import itertools
import random

import numpy as np
import pytest

from oracles import (
    char_poly,
    newton_power_sums,
    poly_mul,
    ramanujan_sum,
    tower_set,
    unfiltered_divisor_indices,
)
from tilecert.arith import divisors, euler_phi
from tilecert.analysis import MAX_POWER_SUMS, classify_prime_power_cyclotomic, power_sums
from tilecert.intpoly import IntPoly, cyclotomic
from tilecert.tileset import IntSet


def numeric_power_sums(p: IntPoly, count: int) -> list[complex]:
    roots = np.roots(list(reversed(p.coeffs)))
    return [sum(r**j for r in roots) for j in range(1, count + 1)]


def test_power_sums_examples():
    assert newton_power_sums(IntPoly([1, 0, 1]), 4) == (0, -2, 0, 2)
    assert newton_power_sums(IntPoly([-1, 1]), 3) == (1, 1, 1)
    # 1 + x**2, the set {0, 2}, has the roots i and -i
    assert power_sums(IntSet((0, 2)), 4) == (0, -2, 0, 2)
    # roots of (1+x)(1+x^3): computed independently below
    series = power_sums(IntSet((0, 1, 3, 4)), 3)
    assert series == (-1, 1, -4)
    numeric = numeric_power_sums(char_poly((0, 1, 3, 4)), 3)
    for got, expect in zip(series, numeric):
        assert abs(got - expect) < 1e-9
    # a shift only adds roots at 0, which add nothing
    assert power_sums(IntSet((7, 8, 10, 11)), 3) == series


def test_power_sums_count_is_checked_before_the_set_is_read():
    class Unread:
        @property
        def elements(self):
            raise AssertionError("the set was read")

    for count in (0, -1, MAX_POWER_SUMS + 1, 10**100):
        with pytest.raises(ValueError, match="power sum count must be"):
            power_sums(Unread(), count)


def test_power_sums_print_at_the_count_limit():
    # distances 1, 3, ..., 19 from the maximum give a root near -1.618, and
    # no root of a 0/1 polynomial reaches the golden ratio (Odlyzko-Poonen),
    # so S_j grows about as fast as it can; S_10000 prints within 4,300 digits
    sums = power_sums(IntSet([*range(1, 20, 2), 20]), MAX_POWER_SUMS)
    assert len(sums) == MAX_POWER_SUMS
    assert len(str(max(sums, key=abs))) < 4300


def test_power_sums_rejects_bad_input():
    with pytest.raises(ValueError):
        power_sums(IntSet((0, 1)), 0)
    with pytest.raises(ValueError):
        newton_power_sums(IntPoly([1, 2]), 3)  # not monic
    with pytest.raises(ValueError):
        newton_power_sums(IntPoly([1]), 3)  # degree 0
    with pytest.raises(ValueError):
        newton_power_sums(IntPoly([1, 1]), 0)


def test_power_sum_series_indexing():
    series = power_sums(IntSet((0, 2)), 4)
    assert series[1] == -2  # S_2
    assert len(series) == 4
    with pytest.raises(IndexError):
        series[4]


def test_power_sums_match_numeric_roots():
    rng = random.Random(31)
    for _ in range(100):
        deg = rng.randint(1, 18)
        p = IntPoly([rng.randint(-3, 3) for _ in range(deg)] + [1])
        series = newton_power_sums(p, 10)
        numeric = numeric_power_sums(p, 10)
        for got, expect in zip(series, numeric):
            assert abs(got - expect) < 1e-6


def test_power_sums_match_the_dense_newton_oracle():
    # shifted sets, and counts below, at and beyond the degree
    rng = random.Random(1009)
    for _ in range(1200):
        span = rng.randint(1, 30)
        inner = rng.sample(range(1, span), rng.randint(0, min(span - 1, 8)))
        shift = rng.choice((0, 0, rng.randint(1, 50), 10**12))
        exps = sorted(shift + e for e in [0, span, *inner])
        dense = char_poly([e - shift for e in exps])
        for count in (1, max(1, span - 1), span, span + 1, 2 * span + 3):
            assert power_sums(IntSet(exps), count) == newton_power_sums(dense, count), (exps, count)


def test_power_sums_of_cyclotomic_set_polynomials_match_ramanujan():
    # {0, ..., n-1} has the polynomial (x**n - 1)/(x - 1), the product of
    # the cyclotomic polynomials of the divisors s > 1 of n
    for n in range(2, 40):
        series = power_sums(IntSet(range(n)), 3 * n)
        for j in range(1, 3 * n + 1):
            assert series[j - 1] == sum(ramanujan_sum(s, j) for s in divisors(n)[1:]), (n, j)
    # a tower set is a direct sum of progressions, and its polynomial is
    # the product of the distinct cyclotomic polynomials dividing it:
    # their degrees add up to the span
    rng = random.Random(71)
    for _ in range(40):
        elems = tower_set(rng, 120)
        span = elems[-1]
        indices = unfiltered_divisor_indices(elems)
        assert sum(euler_phi(s) for s in indices) == span, elems
        shift = rng.randint(0, 10**6)
        series = power_sums(IntSet(e + shift for e in elems), span + 10)
        for j in range(1, span + 11):
            assert series[j - 1] == sum(ramanujan_sum(s, j) for s in indices), (elems, j)


def test_ramanujan_sum_examples():
    for j in range(-3, 8):
        assert ramanujan_sum(1, j) == 1
    assert ramanujan_sum(2, 1) == -1
    assert ramanujan_sum(4, 2) == -2


def test_ramanujan_sum_properties():
    for s in range(1, 30):
        # j = 0 gives the totient; the sum is periodic in j with period s
        assert ramanujan_sum(s, 0) == euler_phi(s)
        for j in range(1, s + 1):
            assert ramanujan_sum(s, j) == ramanujan_sum(s, j + s)
            assert ramanujan_sum(s, j) == ramanujan_sum(s, -j)


def test_ramanujan_matches_direct_root_summation():
    for s in range(1, 25):
        roots = [np.exp(2j * np.pi * k / s) for k in range(s) if np.gcd(k, s) == 1]
        for j in range(0, 12):
            direct = sum(r**j for r in roots)
            assert abs(ramanujan_sum(s, j) - direct) < 1e-9, (s, j)


def test_power_sums_of_cyclotomic_products_match_ramanujan():
    rng = random.Random(17)
    for _ in range(60):
        k = rng.randint(1, 4)
        indices = [rng.randint(1, 20) for _ in range(k)]
        prod = poly_mul(*(cyclotomic(s) for s in indices))
        series = newton_power_sums(prod, 25)
        for j in range(1, 26):
            assert series[j - 1] == sum(ramanujan_sum(s, j) for s in indices)


def test_gap_identities_sample():
    rng = random.Random(23)
    for _ in range(100):
        deg = rng.randint(2, 30)
        second = rng.randint(0, deg - 1)
        exponents = {deg, second} | set(rng.sample(range(second + 1), rng.randint(0, second)))
        gap = deg - second
        series = power_sums(IntSet(exponents), gap)
        for j in range(1, gap):
            assert series[j - 1] == 0
        assert series[gap - 1] == -gap


def test_classify_examples():
    assert classify_prime_power_cyclotomic(IntSet([0, 1, 2])) == (3, 1)
    assert classify_prime_power_cyclotomic(IntSet([0, 3, 6])) == (3, 2)
    assert classify_prime_power_cyclotomic(IntSet([0, 1, 3])) is None
    assert classify_prime_power_cyclotomic(IntSet([0, 2, 4, 6, 8])) is None
    assert classify_prime_power_cyclotomic(IntSet([0, 8])) == (2, 4)
    # translation invariant
    assert classify_prime_power_cyclotomic(IntSet([5, 6, 7])) == (3, 1)


def test_classify_agrees_with_characteristic_polynomial():
    for size in (2, 3, 4, 5):
        for combo in itertools.combinations(range(10), size):
            a = IntSet(combo)
            result = classify_prime_power_cyclotomic(a)
            poly = char_poly([x - combo[0] for x in combo])
            if result is None:
                matches = any(
                    poly == cyclotomic(p**alpha)
                    for p in (2, 3, 5, 7)
                    for alpha in (1, 2, 3, 4)
                )
                assert not matches, combo
            else:
                p, alpha = result
                assert poly == cyclotomic(p**alpha)
