from tilecert import families
from tilecert.families import FAMILIES, run_batch


def test_run_batch_looks_facts_functions_up_at_call_time(monkeypatch):
    # Wrappers installed by replacing the module attributes (as a tracer
    # does) must see every call, so nothing may hold the original functions.
    calls = []

    def recorder(name, original):
        def record(inst):
            calls.append(name)
            return original(inst)
        return record

    monkeypatch.setattr(families, "subset_facts", recorder("subset", families.subset_facts))
    monkeypatch.setattr(families, "product_facts", recorder("product", families.product_facts))
    for family, params, check in (
        ("subsets", (3, 2), "granville-period"),
        ("two-factor", (1, 2), "two-factor-equivalence"),
        ("three-factor", (1,), "tower-equivalence"),
    ):
        calls.clear()
        make, _, _ = FAMILIES[family]
        summary = run_batch(family, make(*params), check)
        kind = "subset" if family == "subsets" else "product"
        assert summary["instances"] > 0
        assert calls == [kind] * summary["instances"]

