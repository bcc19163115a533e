import pytest

from tilecert import families
from tilecert.families import (
    FAMILIES,
    judge_keller_witness,
    judge_tower_equivalence,
    judge_two_factor_equivalence,
    product_facts,
    run_batch,
)
from tilecert.products import ProductSpec
from tilecert.report import product_report


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



def _flipped(spec, set_report=None, **changes):
    """The facts of spec with some keys, and some keys of its set report, replaced."""
    f = product_facts(ProductSpec.parse(spec))
    f.update(changes)
    f["set_report"] = {**f["set_report"], **(set_report or {})}
    return f


# (judge, spec, flipped facts, the record the ProductFacts pipeline printed
# for the same flip before the product checks read the product_report dict)
FLIPPED_RECORDS = [
    (judge_two_factor_equivalence, "1:2,2:2", {"two_factor_condition": False},
     {"spec": "1:2,2:2", "two_factor_condition": False, "t1_and_t2": True,
      "tiles": True, "spectrum": True}),
    (judge_two_factor_equivalence, "1:2,2:2", {"spectrum_search": False},
     {"spec": "1:2,2:2", "two_factor_condition": True, "t1_and_t2": True,
      "tiles": True, "spectrum": False}),
    (judge_two_factor_equivalence, "1:2,3:2",
     {"set_report": {"tiling": {"period": 4, "complement": [0]}}},
     {"spec": "1:2,3:2", "two_factor_condition": False, "t1_and_t2": False,
      "tiles": True, "spectrum": False}),
    (judge_tower_equivalence, "1:2,2:2,4:2", {"tower_order": None},
     {"spec": "1:2,2:2,4:2", "tower": False, "t1_and_t2": True, "tiles": True}),
    (judge_tower_equivalence, "1:2,2:2,4:2", {"set_report": {"tiling": None}},
     {"spec": "1:2,2:2,4:2", "tower": True, "t1_and_t2": True, "tiles": False}),
    (judge_keller_witness, "1:2,3:2", {"keller_witness": None},
     {"spec": "1:2,3:2", "reason": "no valid violation witness"}),
]


@pytest.mark.parametrize("judge, spec, changes, record", FLIPPED_RECORDS)
def test_product_violation_records(judge, spec, changes, record):
    assert judge(product_facts(ProductSpec.parse(spec))) is None
    got = judge(_flipped(spec, **changes))
    assert got == record
    assert list(got) == list(record)
    assert [type(v) for v in got.values()] == [type(v) for v in record.values()]


def test_product_facts_are_the_product_report():
    spec = ProductSpec.parse("1:2,3:2")
    f = product_facts(spec)
    assert list(f) == [*product_report(spec), "spec", "spectrum_search"]
    assert {k: f[k] for k in product_report(spec)} == product_report(spec)
    assert f["spec"] == "1:2,3:2" and f["spectrum_search"] is False
    # the spectrum search runs on two-factor 0/1 specs only
    assert product_facts(ProductSpec.parse("1:2,2:2,4:2"))["spectrum_search"] is None
    assert product_facts(ProductSpec.parse("1:3,1:3"))["set_report"] is None
    assert product_facts(ProductSpec.parse("1:3,1:3"))["spectrum_search"] is None
