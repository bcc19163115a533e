import itertools
import tracemalloc

import pytest

from tilecert import report, tiler, tileset

from tilecert.report import analyze_set, product_report, tiling_report
from tilecert.tiler import find_tiling
from tilecert.tileset import CertificateError, IntSet, cyclotomic_divisors
from tilecert.products import ProductSpec


def test_sparse_set_is_analyzed_without_its_polynomial():
    # the characteristic polynomial of {0,1,3,4,10**8} has 10**8 + 1
    # coefficients; every stage reads the five elements instead
    cyclotomic_divisors.cache_clear()
    tracemalloc.start()
    try:
        d = analyze_set(IntSet([0, 1, 3, 4, 10**8]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak
    assert d == {
        "set": [0, 1, 3, 4, 10**8], "size": 5, "degree": 10**8,
        "cyclotomic_divisors": [], "prime_power_divisors": [], "t1": False, "t2": True,
        "granville_bound": 1, "tiling": None, "tiling_undecided": False,
        "spectrum": None, "classification": None,
    }


def test_report_fields_example():
    d = analyze_set(IntSet([0, 1, 2, 3]))
    assert d["set"] == [0, 1, 2, 3]
    assert d["size"] == 4
    assert d["degree"] == 3
    assert d["cyclotomic_divisors"] == [2, 4]
    assert d["prime_power_divisors"] == [2, 4]
    assert d["t1"] is True and d["t2"] is True
    assert d["granville_bound"] == 4
    assert d["tiling"] == {"period": 4, "complement": [0]}
    assert d["spectrum"] == ["1/4", "1/2", "3/4"]
    assert d["classification"] is None


def test_report_non_tiler():
    d = analyze_set(IntSet([0, 1, 3]))
    assert d["t1"] is False
    assert d["tiling"] is None
    assert d["spectrum"] is None


def test_report_internal_consistency():
    for combo in itertools.combinations(range(9), 3):
        report = analyze_set(IntSet(combo))
        if report["tiling"] is not None:
            assert report["t1"]
        if report["spectrum"] is not None:
            assert len(report["spectrum"]) == report["size"] - 1


def test_report_undecided_with_tiny_cap():
    report = analyze_set(IntSet([0, 1, 2, 3]), cap=3)
    assert report["tiling"] is None
    assert report["tiling_undecided"]
    d = tiling_report(IntSet([0, 1, 2, 3]), cap=3)
    assert d["tiling_undecided"] is True and d["tiling"] is None


def test_tiling_report_verified():
    d = tiling_report(IntSet([0, 2]))
    assert d["tiling"] == {"period": 4, "complement": [0, 1]}
    assert d["verified"] is True
    assert d["granville_bound"] == 4


def test_product_report_tiling_case():
    d = product_report(ProductSpec.parse("1:2,2:2"))
    assert d["zero_one"] is True
    assert d["tower_order"] == [1, 2]
    assert d["two_factor_condition"] is True
    assert d["keller_witness"] is None
    assert d["set_report"]["tiling"] is not None


def test_product_report_keller_case():
    d = product_report(ProductSpec.parse("1:2,3:2"))
    assert d["tower_order"] is None
    assert d["keller_witness"] == [3, -1]
    assert d["set_report"]["tiling"] is None
    assert d["set_report"]["t1"] is False or d["set_report"]["t2"] is False


def test_product_report_non_zero_one():
    d = product_report(ProductSpec.parse("2:2,2:2"))
    assert d["zero_one"] is False
    assert d["set_report"] is None
    # equal steps collide immediately: no tower ordering, and the
    # witness (1,-1) certifies the collision
    assert d["tower_order"] is None
    assert d["keller_witness"] == [1, -1]


def test_unverified_tiling_raises(monkeypatch):
    monkeypatch.setattr(tiler, "verify_tiling", lambda a, cert: False)
    with pytest.raises(CertificateError):
        analyze_set(IntSet([0, 2]))


def test_period_cap(monkeypatch):
    # the reports apply the cap: below the Granville bound the tiling is
    # undecided and find_tiling never runs; at or above it, it is searched
    a = IntSet([0, 1, 2, 3])  # bound 4, tiles with period 4; also the product 1:2,2:2
    spec = ProductSpec.parse("1:2,2:2")
    searched = []
    monkeypatch.setattr(report, "find_tiling", lambda s: searched.append(s) or find_tiling(s))
    for cap, undecided in ((2, True), (3, True), (4, False), (5, False), (None, False)):
        searched.clear()
        results = [analyze_set(a, cap=cap), tiling_report(a, cap=cap),
                   product_report(spec, cap=cap)["set_report"]]
        assert searched == ([] if undecided else [a] * 3), cap
        for d in results:
            assert d["granville_bound"] == 4
            assert d["tiling_undecided"] is undecided, cap
            assert d["tiling"] == (None if undecided else {"period": 4, "complement": [0]}), cap


def test_reports_reject_period_cap_below_one(monkeypatch):
    # 1:2,2:2 is 0/1, so its set report runs; 2:2,2:2 is not and has none
    specs = [ProductSpec.parse("1:2,2:2"), ProductSpec.parse("2:2,2:2")]
    for cap in (0, -5):
        for a in (IntSet([0, 1]), IntSet([0, 1, 8, 9])):
            with pytest.raises(ValueError):
                analyze_set(a, cap=cap)
            with pytest.raises(ValueError):
                tiling_report(a, cap=cap)
        for spec in specs:
            with pytest.raises(ValueError):
                product_report(spec, cap=cap)
    # the cap is checked before any stage runs, so a bad cap costs no
    # inventory scan of a 1,000-element set
    cyclotomic_divisors.cache_clear()
    calls = []
    scan = tileset.divisors_of_poly

    def counted(a):
        calls.append(a)
        return scan(a)

    monkeypatch.setattr(tileset, "divisors_of_poly", counted)
    with pytest.raises(ValueError):
        analyze_set(IntSet(range(0, 3000, 3)), cap=0)
    assert calls == []
