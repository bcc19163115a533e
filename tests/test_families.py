import pytest

from tilecert import families
from tilecert.families import (
    FAMILIES,
    build_family,
    judge_granville_agreement,
    judge_keller_witness,
    judge_spectrum_formula,
    judge_t1t2_implies_tiling,
    judge_tiling_implies_t1,
    judge_tiling_implies_t2,
    judge_tower_equivalence,
    judge_two_factor_equivalence,
    product_facts,
    run_batch,
    subset_facts,
    subsets,
)
from tilecert.products import ProductSpec
from tilecert.report import product_report
from tilecert.tileset import IntSet


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
        ("subsets", {"max_elem": 3, "max_size": 2}, "granville-period"),
        ("two-factor", {"m": 1, "n": 2}, "two-factor-equivalence"),
        ("three-factor", {"m": 1}, "tower-equivalence"),
    ):
        calls.clear()
        summary = run_batch(family, build_family(family, params), check)
        kind = "subset" if family == "subsets" else "product"
        assert summary["instances"] > 0
        assert calls == [kind] * summary["instances"]


def test_build_family_reads_the_table():
    assert [a.elements for a in build_family("subsets", {"max_size": 2, "max_elem": 2})] == [
        a.elements for a in subsets(2, 2)]
    # every family is nonempty at the least value of each parameter
    for kind, (_, least, _, _) in FAMILIES.items():
        assert next(iter(build_family(kind, dict(least)))) is not None
        for name in least:
            with pytest.raises(ValueError, match=f"needs {name} at least {least[name]}, got"):
                build_family(kind, {**least, name: least[name] - 1})


@pytest.mark.parametrize("kind, params", [
    ("subsets", {"max_elem": 7, "max_size": 4}),
    # no set has more than max_elem + 1 elements, so a huge max_size costs nothing
    ("subsets", {"max_elem": 3, "max_size": 10**9}),
    ("two-factor", {"m": 3, "n": 4}),
    ("three-factor", {"m": 3}),
])
def test_instance_count_matches_the_generator(kind, params):
    make, least, _, count = FAMILIES[kind]
    args = [params[name] for name in least]
    assert count(*args) == len(list(make(*args)))


def test_oversized_family_is_refused_before_any_instance():
    # the count is read off the parameters, and the sum of binomials
    # stops once past the limit, so even subsets(10**6, 10**6) is refused at once
    for kind, params in (("subsets", {"max_elem": 10**6, "max_size": 10**6}),
                         ("two-factor", {"m": 501, "n": 3}),
                         ("three-factor", {"m": 51})):
        with pytest.raises(ValueError, match="over the batch limit of 1,000,000"):
            build_family(kind, params)
    # the limit itself is allowed: 8 * 50**3 = 1,000,000
    assert FAMILIES["three-factor"][3](50) == families.MAX_INSTANCES
    build_family("three-factor", {"m": 50})


# (judge, flipped facts of {0, 1, 8, 9}, the record it prints); the facts
# themselves pass every subsets check
SUBSET_FLIPS = [
    (judge_t1t2_implies_tiling, {"tiling": None},
     {"set": [0, 1, 8, 9], "reason": "t1 and t2 hold but no tiling found"}),
    (judge_tiling_implies_t1, {"t1": False},
     {"set": [0, 1, 8, 9], "reason": "tiles but t1 fails"}),
    (judge_tiling_implies_t2, {"t2": False},
     {"set": [0, 1, 8, 9], "reason": "tiles but t2 fails"}),
    (judge_granville_agreement, {"brute": None},
     {"set": [0, 1, 8, 9], "reason": "bound-restricted search found=True, brute force found=False"}),
    (judge_granville_agreement, {"tiling": None},
     {"set": [0, 1, 8, 9], "reason": "bound-restricted search found=False, brute force found=True"}),
    (judge_spectrum_formula, {"spectrum": None},
     {"set": [0, 1, 8, 9], "reason": "constructed spectrum size=None, verified=False"}),
    (judge_spectrum_formula, {"spectrum": ["1/16", "1/2"]},
     {"set": [0, 1, 8, 9], "reason": "constructed spectrum size=2, verified=True"}),
]


@pytest.mark.parametrize("judge, changes, record", SUBSET_FLIPS)
def test_subset_violation_records(judge, changes, record):
    facts = subset_facts(IntSet([0, 1, 8, 9]))
    assert judge(facts) is None
    got = judge({**facts, **changes})
    assert got == record
    assert list(got) == list(record)


def test_tiling_implies_t2_is_claimed_for_two_primes_only():
    # #A = 30 has three primes, where the implication is open
    facts = {**subset_facts(IntSet([0, 1, 8, 9])), "t2": False}
    assert judge_tiling_implies_t2(facts) is not None
    assert judge_tiling_implies_t2({**facts, "size": 30}) is None


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
