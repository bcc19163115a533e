import itertools
import random

import pytest

from tilecert import report, tiler
from tilecert.families import subset_facts, subsets
from tilecert.tileset import CertificateError, IntSet
from tilecert.tiler import (
    TilingCertificate,
    _complement_search,
    brute_force_tiling,
    find_tiling,
    granville_bound,
    search_periods,
    verify_tiling,
)


def test_granville_bound_examples():
    assert granville_bound(IntSet([0, 1, 2, 3])) == 4
    assert granville_bound(IntSet([0, 1, 3])) == 1
    assert granville_bound(IntSet([0, 2, 4])) == 6


def test_find_tiling_examples():
    cert = find_tiling(IntSet([0, 2]))
    assert cert == TilingCertificate(4, [0, 1])

    assert find_tiling(IntSet([0, 1, 3])) is None

    cert = find_tiling(IntSet([0, 3, 6]))
    assert cert == TilingCertificate(9, [0, 1, 2])


def test_verify_tiling_examples():
    assert verify_tiling(IntSet([0, 1]), TilingCertificate(2, [0]))
    # #A * #B = 2 is not the period 3, so some residue stays uncovered
    assert not verify_tiling(IntSet([0, 1]), TilingCertificate(3, [0]))
    assert not verify_tiling(IntSet([0, 2]), TilingCertificate(4, [0, 2]))
    assert verify_tiling(IntSet([0, 1, 2, 3]), TilingCertificate(4, [0]))


def test_tiles_z_examples():
    assert find_tiling(IntSet([0, 1, 3, 4])) is None
    assert find_tiling(IntSet([0, 1, 8, 9])) is not None
    assert find_tiling(IntSet(range(6))) == TilingCertificate(6, [0])


def test_certificate_validation():
    with pytest.raises(ValueError):
        TilingCertificate(0, [0])
    with pytest.raises(ValueError):
        TilingCertificate(4, [])
    with pytest.raises(ValueError):
        TilingCertificate(4, [0, 4])
    with pytest.raises(ValueError):
        TilingCertificate(4, [0, 0, 1])


def test_certificates_verify_and_divide_bound():
    for combo in itertools.combinations(range(10), 3):
        a = IntSet(combo)
        cert = find_tiling(a)
        if cert is not None:
            assert verify_tiling(a, cert)
            assert granville_bound(a) % cert.period == 0


def test_translation_invariant_tiling():
    # both searches read the elements relative to the minimum, so a
    # translate, however far, gets the same search and the same certificate
    for combo in ((0, 1, 2, 3), (0, 2), (0, 1, 8, 9), (0, 1, 3)):
        base = IntSet(combo)
        for offset in (5, 10**12):
            moved = IntSet(x + offset for x in base.elements)
            for search in (find_tiling, brute_force_tiling):
                cert = search(base)
                assert search(moved) == cert, (combo, offset, search)
                if cert is not None:
                    # the same certificate covers the translated set
                    assert verify_tiling(moved, cert)


def test_brute_force_agrees_on_small_family():
    for size in (2, 3, 4):
        for combo in itertools.combinations(range(9), size):
            a = IntSet(combo)
            restricted = find_tiling(a)
            brute = brute_force_tiling(a)
            assert (restricted is None) == (brute is None), combo
            if brute is not None:
                assert verify_tiling(a, brute)


def test_search_periods_skips_impossible():
    a = IntSet([0, 2])
    # period 2 collides residues, period 3 is not divisible by the size
    assert search_periods(a, [2, 3]) is None
    assert search_periods(a, [2, 3, 4]) == TilingCertificate(4, [0, 1])


def test_period_cap_below_one_rejected(monkeypatch):
    # the cap is the tiling report's to apply: a cap below 1 is an error
    # before any period is searched, although {0,1,8,9} tiles with period 16
    a = IntSet([0, 1, 8, 9])
    searched = []
    monkeypatch.setattr(report, "find_tiling", lambda s: searched.append(s) or find_tiling(s))
    for cap in (0, -5):
        with pytest.raises(ValueError):
            report.tiling_report(a, cap=cap)
    assert searched == []
    assert report.tiling_report(a, cap=16)["tiling"] == {"period": 16, "complement": [0, 2, 4, 6]}


def test_producers_raise_on_failed_verification(monkeypatch):
    # every tiling certificate passes verify_tiling inside search_periods
    monkeypatch.setattr(tiler, "verify_tiling", lambda a, cert: False)
    a = IntSet([0, 2])
    producers = [
        lambda: search_periods(a, [4]),
        lambda: find_tiling(a),
        lambda: brute_force_tiling(a),
        lambda: subset_facts(a),
    ]
    for produce in producers:
        with pytest.raises(CertificateError):
            produce()
    # no certificate, nothing to verify
    assert find_tiling(IntSet([0, 1, 3])) is None


def test_complement_contains_zero_and_sorted():
    for combo in ((0, 1, 8, 9), (0, 2), (0, 3, 6), (0, 1, 2, 3, 4, 5)):
        cert = find_tiling(IntSet(combo))
        assert cert is not None
        assert cert.complement[0] == 0
        assert list(cert.complement) == sorted(cert.complement)


def test_deep_complement_needs_no_recursion():
    # 1,024 complement elements: one Python frame each would pass the
    # default recursion limit
    a = IntSet([0, 1024])
    cert = find_tiling(a)
    assert cert == TilingCertificate(2048, range(1024))
    assert verify_tiling(a, cert)


def _recursive_complement_search(residues, period):
    """Oracle: the recursive bytearray exact cover the bitset search replaced."""
    size = len(residues)
    need = period // size
    covered = bytearray(period)
    for r in residues:
        covered[r] = 1
    chosen = [0]

    def extend() -> bool:
        if len(chosen) == need:
            return True
        r = covered.index(0)
        for a in residues:
            b = (r - a) % period
            shifted = [(x + b) % period for x in residues]
            if any(covered[s] for s in shifted):
                continue
            for s in shifted:
                covered[s] = 1
            chosen.append(b)
            if extend():
                return True
            chosen.pop()
            for s in shifted:
                covered[s] = 0
        return False

    if extend():
        return tuple(sorted(chosen))
    return None


def _searches(a):
    """Every (residues, period) with period up to 2*max(A) + 2 left to search."""
    elems = a.elements
    size = len(elems)
    for period in range(size, 2 * elems[-1] + 3):
        if period % size:
            continue
        residues = sorted({(x - elems[0]) % period for x in elems})
        if len(residues) == size:
            yield residues, period


def test_bitset_search_matches_recursive_oracle():
    rng = random.Random(20)
    sets = list(subsets(10, 5))
    for _ in range(300):
        size = rng.randint(2, 7)
        sets.append(IntSet([0, *rng.sample(range(1, 22), size - 1)]))
    searches = found = 0
    for a in sets:
        for residues, period in _searches(a):
            expected = _recursive_complement_search(residues, period)
            assert _complement_search(residues, period) == expected, (a, period)
            searches += 1
            found += expected is not None
    # 5,328 searches, 1,637 of which find a complement
    assert searches > 5000 and found > 1500
