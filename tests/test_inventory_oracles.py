"""The degree-bounded inventory checked against the code it replaced.

The library enumerates the inventory candidates directly and builds each
cyclotomic polynomial from sparse binomial factors.  The slow paths it
replaced stay here as oracles:

* the quadratic scan, which tests every s <= 2*deg**2 + 1 with
  phi(s) <= deg (complete because phi(s) > sqrt(s/2) for s >= 2);
* the recursive cyclotomic, which divides x**s - 1 by the cyclotomic
  polynomial of every proper divisor of s.
"""

import random

from tilecert.arith import divisors, euler_phi, totient_at_most
from tilecert.intpoly import IntPoly, cyclotomic, x_pow_minus_one
from tilecert.tileset import cyclotomic_divisor_indices

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
