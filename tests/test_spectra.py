import itertools
import random
import sys
from fractions import Fraction

import pytest

from oracles import degree, tower_set
from tilecert import spectra
from tilecert.families import subset_facts
from tilecert.intpoly import IntPoly
from tilecert.spectra import (
    RationalSpectrum,
    construct_spectrum,
    is_root_of,
    parse_thetas,
    spectrum_search,
    spectrum_search_poly,
    verify_spectrum,
)
from tilecert.tileset import CertificateError, IntSet, cyclotomic_divisors

F = Fraction


def test_is_root_of_examples():
    assert is_root_of((0, 1), F(1, 2))
    assert is_root_of((0, 1, 2, 3), F(1, 4))
    assert not is_root_of((0, 1, 3, 4), F(1, 3))
    # a translate has the same roots on the unit circle
    assert is_root_of((5, 6), F(1, 2))
    # delta = 0 asks whether 1 is a root; never for a 0/1 polynomial
    assert not is_root_of((0, 1), F(0))
    with pytest.raises(ValueError):
        is_root_of((0, 1), F(3, 2))


def test_rational_spectrum_validation():
    s = RationalSpectrum([F(3, 4), F(1, 2)])
    assert s.thetas == (F(1, 2), F(3, 4))
    with pytest.raises(ValueError):
        RationalSpectrum([F(0)])
    with pytest.raises(ValueError):
        RationalSpectrum([F(1, 2), F(2, 4)])


def test_parse_thetas():
    assert parse_thetas("1/2, 1/4") == [F(1, 2), F(1, 4)]
    assert parse_thetas("-3/4,2,0.25,.5") == [F(-3, 4), F(2), F(1, 4), F(1, 2)]
    with pytest.raises(ValueError):
        parse_thetas("1/0")
    with pytest.raises(ValueError):
        parse_thetas("abc")
    # exponent notation would build 10**30000000 before any check
    for tok in ("1e30000000", "2.5E-3", "1e1"):
        with pytest.raises(ValueError, match="bad fraction"):
            parse_thetas(tok)


def test_verify_spectrum_examples():
    assert verify_spectrum((0, 1), RationalSpectrum([F(1, 2)]))
    # any sequence of fractions, reduced mod 1, a repeat failing
    assert verify_spectrum((0, 1), [F(3, 2)])
    assert not verify_spectrum((0, 1), (F(1, 2), F(-1, 2)))
    # root conditions alone do not enforce the full size; the reporting
    # layer checks size separately
    assert verify_spectrum((0, 1, 2, 3), RationalSpectrum([F(1, 2), F(1, 4)]))
    assert not verify_spectrum((0, 1, 3, 4), RationalSpectrum([F(1, 3)]))


def _record_root_tests(monkeypatch) -> list[int]:
    """Route spectra.is_root_of through a recorder of the denominators it is asked about."""
    asked = []
    real = spectra.is_root_of

    def recording(exps, delta):
        asked.append(delta.denominator)
        return real(exps, delta)

    monkeypatch.setattr(spectra, "is_root_of", recording)
    return asked


def test_verify_rejects_duplicates_and_zero(monkeypatch):
    asked = _record_root_tests(monkeypatch)
    p = (0, 1)
    assert not verify_spectrum(p, [F(1, 2), F(1, 2)])
    assert not verify_spectrum(p, [F(0)])
    assert not verify_spectrum(p, [F(1)])
    assert not verify_spectrum(p, [F(1, 2), F(3, 2)])
    # distinctness is checked before any root test
    assert asked == []
    # values are reduced mod 1 before checking
    assert verify_spectrum(p, [F(3, 2)])


def test_verify_rejects_a_single_failing_denominator():
    # (1+x+x^2)(1+x^5), the set {0,1,2,5,6,7}, has the roots of orders 2
    # and 3 but not those of order 6; of the pairs drawn from {0, 1/2, 1/3}
    # only 1/2 - 1/3 fails
    thetas = [F(1, 2), F(1, 3)]
    assert not verify_spectrum((0, 1, 2, 5, 6, 7), thetas)
    assert verify_spectrum(range(6), thetas)


def test_progression_spectrum_family():
    # {0, m, ..., (n-1)m} carries the spectrum {k/(n*m) : k = 1..n-1}
    for m in range(1, 7):
        for n in range(2, 6):
            a = IntSet(range(0, n * m, m))
            spectrum = RationalSpectrum(F(k, n * m) for k in range(1, n))
            assert verify_spectrum(a.elements, spectrum), (m, n)
            assert len(spectrum) == a.size - 1


def test_construct_spectrum_examples():
    assert construct_spectrum(IntSet([0, 1, 2, 3])).thetas == (F(1, 4), F(1, 2), F(3, 4))
    assert construct_spectrum(IntSet([0, 2, 4])).thetas == (F(1, 3), F(2, 3))
    assert construct_spectrum(IntSet([0, 1, 3])) is None


def test_construct_spectrum_size_and_verification():
    for combo in itertools.combinations(range(9), 4):
        a = IntSet(combo)
        spectrum = construct_spectrum(a)
        if spectrum is not None:
            assert len(spectrum) == a.size - 1
            assert verify_spectrum(a.elements, spectrum)


def test_spectrum_search_examples():
    assert spectrum_search(IntSet([0, 1])).thetas == (F(1, 2),)
    assert spectrum_search(IntSet([0, 1, 3, 4])) is None
    found = spectrum_search(IntSet([0, 1, 2, 3]))
    assert found is not None and len(found) == 3


def test_search_agrees_with_construction_size():
    for combo in itertools.combinations(range(8), 3):
        a = IntSet(combo)
        built = construct_spectrum(a)
        if built is not None:
            found = spectrum_search(a)
            assert found is not None
            assert len(found) == len(built)
            assert verify_spectrum(a.elements, found)


def test_verified_size_within_orthogonality_bound():
    # the exponential vectors attached to the values of an N-spectrum of a
    # set A are mutually orthogonal in a space of dimension #A, so N <= #A
    for combo in itertools.combinations(range(8), 3):
        a = IntSet(combo)
        found = spectrum_search(a)
        if found is not None:
            assert len(found) + 1 <= a.size


def test_oversized_root_grid_fails_verification():
    # For {0, p**(a-1), ...} with a >= 2, the full grid {j/p**a} is too
    # big to be a spectrum: pairs whose difference has denominator p**b
    # with b < a are not roots, and the grid size exceeds the
    # orthogonality bound anyway.
    a = IntSet([0, 2])
    grid = [F(j, 4) for j in range(1, 4)]
    assert not verify_spectrum(a.elements, grid)
    assert len(grid) + 1 > a.size
    # the correct spectrum keeps only j = 1..p-1
    assert verify_spectrum(a.elements, RationalSpectrum([F(1, 4)]))


def test_search_poly_trivial_target():
    # the target size is the number of exponents less 1: 0 for one term
    assert spectrum_search_poly((0,)).thetas == ()
    assert spectrum_search_poly((7,)).thetas == ()


def test_search_is_deterministic():
    for combo in ((0, 1, 2, 3), (0, 1, 8, 9), (0, 2, 4)):
        first = spectrum_search(IntSet(combo))
        second = spectrum_search(IntSet(combo))
        assert first == second


def test_candidate_set_is_exactly_the_single_roots():
    # a fraction can join a spectrum only if it is itself a root (its
    # difference with the implicit 0); check the equivalence explicitly
    from tilecert.tileset import divisors_of_poly

    p = (0, 1, 8, 9)
    index_set = set(divisors_of_poly(p).indices)
    for q in range(2, 40):
        for k in range(1, q):
            theta = F(k, q)
            assert is_root_of(p, theta) == (theta.denominator in index_set), theta


def test_unverified_constructed_spectrum_raises(monkeypatch):
    monkeypatch.setattr(spectra, "verify_spectrum", lambda exps, thetas: False)
    with pytest.raises(CertificateError):
        construct_spectrum(IntSet([0, 1]))


def test_subset_facts_runs_the_spectrum_check(monkeypatch):
    # subset_facts trusts construct_spectrum's own verification, which must still run
    monkeypatch.setattr(spectra, "verify_spectrum", lambda exps, thetas: False)
    with pytest.raises(CertificateError):
        subset_facts(IntSet([0, 1]))


def test_verifier_polynomial_does_not_grow_with_offset(monkeypatch, capsys):
    # the roots on the unit circle do not move under a shift, and the
    # verifier folds the elements mod each denominator; at offset 10**6 the
    # raw polynomial has degree 1,000,009, and no division sees it
    import tilecert.cli as cli

    degrees = []
    original = IntPoly.divrem

    def recorder(self, divisor):
        degrees.append(degree(self))
        return original(self, divisor)

    monkeypatch.setattr(IntPoly, "divrem", recorder)
    shifted = IntSet(10**6 + x for x in (0, 1, 8, 9))
    assert construct_spectrum(shifted) == construct_spectrum(IntSet([0, 1, 8, 9]))
    assert cli.main(["spectrum", "verify", ",".join(map(str, shifted.elements)),
                     "--theta", "1/16,1/2,9/16"]) == 0
    assert '"verified": true' in capsys.readouterr().out
    assert degrees and max(degrees) < 16, degrees


def test_spectra_agree_on_far_translates():
    # A + 10**6 has the polynomial x**(10**6) * A(x), and x is prime to every
    # cyclotomic polynomial: the inventory, both producers and the verifier
    # read the same answers off both sets, and none builds either polynomial
    rng = random.Random(43)
    spectral = 0
    for trial in range(60):
        if trial % 2:
            a = IntSet(tower_set(rng, 40))
        else:
            a = IntSet(rng.sample(range(24), rng.randint(2, 6)))
        moved = IntSet(x + 10**6 for x in a.elements)
        assert cyclotomic_divisors(moved.elements) == cyclotomic_divisors(a.elements), a
        built, found = construct_spectrum(a), spectrum_search(a)
        assert construct_spectrum(moved) == built, a
        assert spectrum_search(moved) == found, a
        for spectrum in (built, found):
            if spectrum is not None:
                assert verify_spectrum(moved.elements, spectrum.thetas)
                spectral += 1
        # and a grid of twelfths gets one verdict on both
        thetas = [F(j, 12) for j in rng.sample(range(1, 12), min(a.size - 1, 11))]
        assert verify_spectrum(moved.elements, thetas) == verify_spectrum(a.elements, thetas), (a, thetas)
    assert spectral >= 40, spectral


def test_constructed_spectrum_of_wrong_size_raises(monkeypatch):
    # (T1) fails on {0,1,3}, whose inventory is empty: forced through, the
    # formula yields no values instead of two.
    monkeypatch.setattr(spectra, "check_t1", lambda a: True)
    with pytest.raises(CertificateError):
        construct_spectrum(IntSet([0, 1, 3]))


def test_unverified_searched_spectrum_raises(monkeypatch):
    monkeypatch.setattr(spectra, "verify_spectrum", lambda exps, thetas: False)
    with pytest.raises(CertificateError):
        spectrum_search(IntSet([0, 1]))


def recursive_find_clique(adj, target):
    """The clique search as it was written before the explicit stack: the oracle."""
    n = len(adj)

    def grow(members, allowed):
        if len(members) == target:
            return members
        if len(members) + allowed.bit_count() < target:
            return None
        best = -1
        best_deg = n + 1
        mask = allowed
        while mask:
            v = (mask & -mask).bit_length() - 1
            deg = (adj[v] & allowed).bit_count()
            if deg < best_deg:
                best, best_deg = v, deg
            mask &= mask - 1
        taken = grow(members + [best], allowed & adj[best])
        if taken is not None:
            return taken
        return grow(members, allowed & ~(1 << best))

    return grow([], (1 << n) - 1)


GATE_SETS = [
    (0, 1, 8, 9),
    (0, 3, 7, 28),
    (3, 7, 10, 14),
    (0, 9, 18, 108, 117, 126),
    (0, 1, 240),
    (0, 1, 120, 240),
    (0, 5, 11, 17, 23, 61, 130, 201, 245),
]


def test_clique_search_matches_recursive_oracle_on_random_graphs():
    rng = random.Random(20260)
    for _ in range(400):
        n = rng.randint(0, 18)
        density = rng.random()
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        for target in range(n + 2):
            assert spectra._find_clique(adj, target) == recursive_find_clique(adj, target)


def test_spectrum_search_matches_recursive_oracle(monkeypatch):
    rng = random.Random(7)
    sets = [IntSet(a) for a in GATE_SETS]
    sets += [IntSet(rng.sample(range(41), rng.randint(2, 7))) for _ in range(80)]
    found = [spectrum_search(a) for a in sets]
    monkeypatch.setattr(spectra, "_find_clique", recursive_find_clique)
    assert found == [spectrum_search(a) for a in sets]
    assert any(s is not None and len(s) >= 3 for s in found)


def test_spectrum_search_needs_no_recursion():
    # every fraction j/60 is in the spectrum of {0, ..., 59}, so a search
    # that recursed once per branching step would go 59 frames deep
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        spectrum = spectrum_search(IntSet(range(60)))
    finally:
        sys.setrecursionlimit(limit)
    assert spectrum == RationalSpectrum(F(j, 60) for j in range(1, 60))
