"""The degree-bounded inventory checked against the code it replaced.

The library enumerates the inventory candidates directly and builds each
cyclotomic polynomial from sparse binomial factors.  The slow paths it
replaced stay here as oracles:

* the quadratic scan, which tests every s <= 2*deg**2 + 1 with
  phi(s) <= deg (complete because phi(s) > sqrt(s/2) for s >= 2);
* the recursive cyclotomic, which divides x**s - 1 by the cyclotomic
  polynomial of every proper divisor of s;
* the unfiltered inventory, which divides by every candidate instead of
  first rejecting those with p(w) != 0 mod q.
"""

import math
import random

import pytest

from tilecert.arith import divisors, euler_phi, factorize, root_of_unity_mod_prime, totient_at_most
from tilecert.intpoly import IntPoly, cyclotomic, divides_cyclotomic, x_pow_minus_one
from tilecert.tileset import IntSet, char_poly, cyclotomic_divisor_indices

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
                p = p * factor
        assert cyclotomic_divisor_indices(p) == old_divisor_indices(p), p


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


def test_filter_false_positive_is_decided_by_division():
    # x**2 + c with c = -w**2 (mod q) vanishes at w mod q, but the third
    # cyclotomic polynomial x**2 + x + 1 does not divide it.
    q, w = root_of_unity_mod_prime(3)
    p = IntPoly([-w * w % q, 0, 1])
    assert p(w) % q == 0
    assert not divides_cyclotomic(p, 3)
    assert 3 not in cyclotomic_divisor_indices(p)


def test_inventory_matches_unfiltered_scan_on_seeded_sets():
    rng = random.Random(31)
    for deg in (50, 150, 300):
        elems = {0, deg} | {x for x in range(1, deg) if rng.random() < 0.3}
        p = char_poly(IntSet(elems))
        assert cyclotomic_divisor_indices(p) == unfiltered_divisor_indices(p), deg


def test_inventory_of_initial_segments():
    # 1 + x + ... + x**(n-1) = (x**n - 1)/(x - 1) is the product of the
    # cyclotomic polynomials of the divisors d >= 2 of n.  The unfiltered
    # scan runs on a few n only, to keep the suite fast.
    for n in range(2, 129):
        p = char_poly(IntSet(range(n)))
        assert cyclotomic_divisor_indices(p) == divisors(n)[1:], n
        if n in (60, 128):
            assert cyclotomic_divisor_indices(p) == unfiltered_divisor_indices(p), n
