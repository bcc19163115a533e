"""The inventory checked against the code it replaced.

The library takes its inventory candidates from Mann's theorem on sparse
polynomials, enumerates every s with phi(s) <= deg directly on dense
ones, and builds each cyclotomic polynomial from sparse binomial factors.
The slow paths it replaced stay here as oracles:

* the totient scan, which tests every s with phi(s) <= deg, with the
  modular reject in front of the division;
* the quadratic scan, which tests every s <= 2*deg**2 + 1 with
  phi(s) <= deg (complete because phi(s) > sqrt(s/2) for s >= 2);
* the recursive cyclotomic, which divides x**s - 1 by the cyclotomic
  polynomial of every proper divisor of s;
* the unfiltered inventory, which divides by every candidate instead of
  first rejecting those whose cyclotomic value at 1, -1 or 2 does not
  divide p's, or with p(w) != 0 mod q;
* evaluation of the built cyclotomic polynomial, for the closed forms
  of its values at 1, -1 and 2 that those rejects read.
"""

import math
import random

import pytest

from oracles import poly_mul, poly_sum, x_pow_minus_one
from tilecert.arith import (
    cyclotomic_at_minus_one,
    cyclotomic_at_one,
    cyclotomic_at_two,
    divisors,
    divisors_totient_at_most,
    euler_phi,
    factorize,
    root_of_unity_mod_prime,
    totient_at_most,
)
from tilecert.intpoly import IntPoly, cyclotomic, divides_cyclotomic
from tilecert import tileset
from tilecert.tileset import IntSet, char_poly, divisors_of_poly

_OLD_CYCLOTOMIC: dict[int, IntPoly] = {}


def old_cyclotomic(s: int) -> IntPoly:
    if s not in _OLD_CYCLOTOMIC:
        poly = x_pow_minus_one(s)
        for d in divisors(s)[:-1]:
            poly, rem = poly.divrem(old_cyclotomic(d))
            assert rem.is_zero()
        _OLD_CYCLOTOMIC[s] = poly
    return _OLD_CYCLOTOMIC[s]


def old_candidates(deg: int) -> list[int]:
    return [s for s in range(2, 2 * deg * deg + 2) if euler_phi(s) <= deg]


def old_divisor_indices(p: IntPoly) -> list[int]:
    return [s for s in old_candidates(p.degree())
            if p.divrem(old_cyclotomic(s))[1].is_zero()]


def test_totient_enumeration_matches_quadratic_scan():
    for deg in range(121):
        assert list(totient_at_most(deg)) == old_candidates(deg), deg


def test_bounded_divisors_match_filtered_divisor_list():
    for n in range(1, 1201):
        for bound in (0, 1, 4, 40, 400):
            expected = [d for d in divisors(n)[1:] if euler_phi(d) <= bound]
            assert divisors_totient_at_most(factorize(n), bound) == expected, (n, bound)


def test_cyclotomic_matches_recursive_division():
    for s in range(1, 401):
        assert cyclotomic(s) == old_cyclotomic(s), s


def test_inventory_matches_quadratic_scan_on_random_polynomials():
    rng = random.Random(2024)
    for trial in range(60):
        if trial % 2:
            # random integer coefficients, negative ones and ones above 1 included
            deg = rng.randint(1, 60)
            p = IntPoly([rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-2, -1, 1, 2, 3))])
        else:
            # a signed cofactor times cyclotomic factors, so that the inventory is not empty
            p = IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 2)])
            while True:
                factor = cyclotomic(rng.randint(2, 40))
                if p.degree() + factor.degree() > 60:
                    break
                p = poly_mul(p, factor)
        assert list(divisors_of_poly(p).indices) == old_divisor_indices(p), p


def unfiltered_divisor_indices(p: IntPoly) -> list[int]:
    return [s for s in totient_at_most(p.degree()) if divides_cyclotomic(p, s)]


def test_root_of_unity_mod_prime_has_exact_order():
    for s in range(2, 3001):
        q, w = root_of_unity_mod_prime(s)
        assert q % s == 1 and all(q % d for d in range(2, math.isqrt(q) + 1)), s
        assert pow(w, s, q) == 1, s
        assert all(pow(w, s // p, q) != 1 for p, _ in factorize(s)), s


def test_root_of_unity_mod_prime_rejects_orders_below_two():
    for s in (1, 0, -3):
        with pytest.raises(ValueError):
            root_of_unity_mod_prime(s)


def test_cyclotomic_values_match_evaluation():
    # the value at 1 is checked by test_intpoly.py::test_cyclotomic_at_one
    for s in range(1, 401):
        phi = cyclotomic(s)
        assert cyclotomic_at_minus_one(s) == phi(-1), s
        assert cyclotomic_at_two(s) == phi(2), s


@pytest.mark.parametrize("helper", [cyclotomic_at_one, cyclotomic_at_minus_one, cyclotomic_at_two])
def test_cyclotomic_values_reject_indices_below_one(helper):
    for s in (0, -3):
        with pytest.raises(ValueError):
            helper(s)


def divisions_tried(monkeypatch, p: IntPoly) -> tuple[list[int], list[int]]:
    """The inventory of p, and the indices that reached the exact division."""
    tried = []

    def recorder(poly, s):
        tried.append(s)
        return divides_cyclotomic(poly, s)

    monkeypatch.setattr(tileset, "divides_cyclotomic", recorder)
    return list(divisors_of_poly(p).indices), tried


def test_filter_false_positive_is_decided_by_division(monkeypatch):
    # Sparse path: 1 + x - x**4 has 3 terms and span 4 = 2 * pi(3).  The
    # twelfth cyclotomic polynomial x**4 - x**2 + 1 takes the value 1 at 1
    # and -1, and 1 + w - w**4 = 0 (mod q) at its root w mod q, so s = 12
    # passes every reject; it does not divide, and the division says so.
    p = IntPoly([1, 1, 0, 0, -1])
    exps = [0, 1, 4]
    assert tileset._candidate_indices(exps) == (False, [2, 3, 4, 6, 8, 12])
    q, w = root_of_unity_mod_prime(12)
    assert p(w) % q == 0
    assert cyclotomic_at_one(12) == cyclotomic_at_minus_one(12) == 1
    assert not divides_cyclotomic(p, 12)
    found, tried = divisions_tried(monkeypatch, p)
    assert 12 in tried and 12 not in found
    assert found == unfiltered_divisor_indices(p)


def test_dense_false_positive_is_decided_by_division(monkeypatch):
    # Dense path: (x - 2)(x**2 - 1) has 4 terms and span 3 < 3 * pi(4), and
    # it vanishes at 1, -1 and 2, so every candidate passes every reject.
    # Only the second cyclotomic polynomial x + 1 divides it.
    p = poly_mul(IntPoly([-2, 1]), IntPoly([-1, 0, 1]))
    assert p.coeffs == (2, -1, -2, 1)
    assert p(1) == p(-1) == p(2) == 0
    assert tileset._candidate_indices([0, 1, 2, 3]) == (True, (2, 3, 4, 6))
    found, tried = divisions_tried(monkeypatch, p)
    assert tried == [2, 3, 4, 6]
    assert found == [2] == unfiltered_divisor_indices(p)


@pytest.mark.parametrize("step, mod_q", [(29, False), (31, True)])
def test_dense_reject_follows_its_cost(monkeypatch, step, mod_q):
    # 151 points spaced by step, on the dense path: the span 150 * step is
    # below (k - 1) * pi(k) = 150 * 36.  Phi_s(2) and the remainder by it
    # grow with span * phi(s), the mod-q chain with k, so the mod-q reject
    # takes over once span**2 > 2**17 * k: 4350**2 is below 2**17 * 151,
    # 4650**2 above.  The polynomial is (x**(151 * step) - 1) / (x**step - 1).
    calls = {root_of_unity_mod_prime: 0, cyclotomic_at_two: 0}

    def counted(f):
        def call(s):
            calls[f] += 1
            return f(s)
        return call

    monkeypatch.setattr(tileset, "root_of_unity_mod_prime", counted(root_of_unity_mod_prime))
    monkeypatch.setattr(tileset, "cyclotomic_at_two", counted(cyclotomic_at_two))
    exps = list(range(0, 151 * step, step))
    assert tileset._candidate_indices(exps)[0]
    found = list(divisors_of_poly(char_poly(IntSet(exps))).indices)
    assert found == [s for s in divisors(151 * step) if step % s]
    assert (calls[root_of_unity_mod_prime] > 0, calls[cyclotomic_at_two] > 0) == (mod_q, not mod_q)


def test_inventory_matches_unfiltered_scan_on_seeded_sets():
    rng = random.Random(31)
    for deg in (50, 150, 300):
        elems = {0, deg} | {x for x in range(1, deg) if rng.random() < 0.3}
        p = char_poly(IntSet(elems))
        assert list(divisors_of_poly(p).indices) == unfiltered_divisor_indices(p), deg


def test_inventory_matches_unfiltered_scan_on_dense_inputs():
    # seeded inputs on the dense path, where p(2) decides the rejects
    # that p(1) and p(-1) leave: 0/1 sets, some shifted off 0, and signed
    # polynomials, some times cyclotomic factors so that the inventory
    # is not empty
    rng = random.Random(97)
    checked = nonempty = 0
    for trial in range(240):
        if trial % 2:
            span = rng.randint(3, 60)
            k = rng.randint(min(span + 1, 4 + span // 3), span + 1)
            low = rng.choice((0, 0, rng.randint(1, 20)))
            elems = {0, span} | set(rng.sample(range(1, span), k - 2))
            p = char_poly(IntSet(low + x for x in elems))
        else:
            p = IntPoly([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(2, 12))])
            while rng.random() < 0.7 and p.degree() < 50:
                p = poly_mul(p, cyclotomic(rng.randint(2, 30)))
            p = IntPoly([0] * rng.choice((0, 0, rng.randint(1, 10))) + list(p.coeffs))
        dense, _ = tileset._candidate_indices([i for i, c in enumerate(p.coeffs) if c])
        if not dense:
            continue
        found = list(divisors_of_poly(p).indices)
        assert found == unfiltered_divisor_indices(p), p
        checked += 1
        nonempty += bool(found)
    assert checked >= 200 and nonempty >= 100, (checked, nonempty)


def test_inventory_of_initial_segments():
    # 1 + x + ... + x**(n-1) = (x**n - 1)/(x - 1) is the product of the
    # cyclotomic polynomials of the divisors d >= 2 of n.  The unfiltered
    # scan runs on a few n only, to keep the suite fast.
    for n in range(2, 129):
        p = char_poly(IntSet(range(n)))
        assert list(divisors_of_poly(p).indices) == divisors(n)[1:], n
        if n in (60, 128):
            assert list(divisors_of_poly(p).indices) == unfiltered_divisor_indices(p), n


def totient_scan_divisor_indices(p: IntPoly) -> list[int]:
    terms = [(e, c) for e, c in enumerate(p.coeffs) if c]
    found = []
    for s in totient_at_most(p.degree()):
        q, w = root_of_unity_mod_prime(s)
        if sum(c * pow(w, e, q) for e, c in terms) % q == 0 and divides_cyclotomic(p, s):
            found.append(s)
    return found


def random_set(rng: random.Random) -> IntSet:
    k = rng.randint(2, 8)
    top = rng.randint(k - 1, 300)
    return IntSet({0, top} | set(rng.sample(range(1, top), k - 2)))


def test_mann_candidates_match_totient_scan_on_seeded_sets():
    # The unfiltered scan costs about 25 ms a set here, so it runs on every
    # tenth set; the totient scan (the same candidates, and a reject that
    # keeps every divisor) runs on all of them.
    rng = random.Random(61)
    nonempty = 0
    for trial in range(600):
        p = char_poly(random_set(rng))
        found = list(divisors_of_poly(p).indices)
        assert found == totient_scan_divisor_indices(p), p
        if trial % 10 == 0:
            assert found == unfiltered_divisor_indices(p), p
        nonempty += bool(found)
    assert nonempty >= 150


def test_mann_candidates_on_signed_polynomials_with_zero_constant_term():
    # x**e times a signed polynomial, so the lowest exponent is e > 0 and
    # coefficients may be negative or above 1: half are sparse multiples of
    # x**n - 1 (every Phi_d with d | n divides), half signed cofactors times
    # cyclotomic polynomials
    rng = random.Random(73)
    nonempty = 0
    for trial in range(200):
        if trial % 2:
            n = rng.randint(2, 60)
            exps = rng.sample(range(0, 60), rng.randint(1, 3))
            cofactor = IntPoly()
            for e in exps:
                cofactor = poly_sum(cofactor, IntPoly([0] * e + [rng.choice((-3, -2, -1, 1, 2))]))
            if cofactor.is_zero():
                continue
            p = poly_mul(cofactor, x_pow_minus_one(n))
        else:
            p = IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 2)])
            for _ in range(rng.randint(0, 3)):
                p = poly_mul(p, cyclotomic(rng.randint(2, 30)))
        p = IntPoly([0] * rng.randint(1, 20) + list(p.coeffs))
        found = list(divisors_of_poly(p).indices)
        assert found == unfiltered_divisor_indices(p), p
        nonempty += bool(found)
    assert nonempty >= 150


GATE_SETS = [
    (0, 1, 8, 9), (0, 3, 7, 28), (3, 7, 10, 14), (0, 9, 18, 108, 117, 126),
    (0, 1, 240), (0, 1, 120, 240), (0, 5, 11, 17, 23, 61, 130, 201, 245),
]


@pytest.mark.parametrize("elements", GATE_SETS)
def test_inventory_of_gate_sets_matches_unfiltered_scan(elements):
    # char_poly keeps the offset, so {3,7,10,14} has a zero constant term
    p = char_poly(IntSet(elements))
    assert list(divisors_of_poly(p).indices) == unfiltered_divisor_indices(p)


def test_inventory_of_sparse_set_of_degree_1200():
    # The unfiltered scan takes seconds here.  1 + z + z**1200 = 0 with
    # |z| = 1 makes 1, z, z**1200 the three cube roots of unity, so z has
    # order 3 and 1200 = 2 (mod 3), which is false: the inventory is empty.
    p = char_poly(IntSet((0, 1, 1200)))
    assert list(divisors_of_poly(p).indices) == totient_scan_divisor_indices(p) == []


@pytest.mark.parametrize("poly, candidates", [
    (char_poly(IntSet((0, 1, 240))), 34),
    (char_poly(IntSet((0, 1, 200000))), 94),
    (char_poly(IntSet(range(16))), 25),
    (IntPoly([0, 0, 0, 0, 0, 3]), 0),
])
def test_candidate_counts(monkeypatch, poly, candidates):
    # the candidates as the scan takes them, before any reject: the Mann list
    # does not grow with the degree ({0,1,240} had 483 totient candidates,
    # {0,1,200000} about 380,000), {0..15} keeps the totient list, and a
    # monomial has no cyclotomic divisor and no candidate
    seen = []
    candidate_indices = tileset._candidate_indices

    def recorder(exps):
        dense, found = candidate_indices(exps)
        seen.extend(found)
        return dense, found

    monkeypatch.setattr(tileset, "_candidate_indices", recorder)
    found = list(divisors_of_poly(poly).indices)
    assert len(seen) == candidates
    assert seen == sorted(set(seen))
    if sum(1 for c in poly.coeffs if c) == 1:
        assert found == []
