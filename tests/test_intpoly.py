import random

import pytest

from oracles import degree, dense_divides_cyclotomic, evaluate, poly_mul, poly_sum, x_pow_minus_one
from tilecert.arith import cyclotomic_at_one, divisors, factorize
from tilecert.intpoly import (
    IntPoly,
    cyclotomic,
    divides_cyclotomic,
    over_binomial,
    times_binomial,
)
from tilecert.tileset import IntSet

# Textbook table, frozen independently of the construction under test.
KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
    16: (1, 0, 0, 0, 0, 0, 0, 0, 1),
}


def test_canonical_form():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly([]).is_zero()
    assert degree(IntPoly([])) is None
    assert degree(IntPoly([5])) == 0
    assert degree(IntPoly([0, 0, 3])) == 2


def test_mul():
    # the dense product oracle
    assert poly_mul(IntPoly([1, 1]), IntPoly([1, 0, 1])) == IntPoly([1, 1, 1, 1])
    p = IntPoly([3, 0, -2, 1])
    assert poly_mul(p, IntPoly([1])) == p == poly_mul(p)
    # product of the two progression factors with steps 1 and 3
    assert poly_mul(IntPoly([1, 1]), IntPoly([1, 0, 0, 1])) == IntPoly([1, 1, 0, 1, 1])
    assert poly_mul(IntPoly([1, 1]), IntPoly()).is_zero()


def test_mul_degree_adds():
    rng = random.Random(11)
    for _ in range(100):
        p = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 9))] + [rng.randint(1, 4)])
        q = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 9))] + [rng.randint(1, 4)])
        assert degree(poly_mul(p, q)) == degree(p) + degree(q)


def test_divrem_exact_factorization():
    quot, rem = IntPoly([1, 1, 1, 1]).divrem(IntPoly([1, 1]))
    assert quot == IntPoly([1, 0, 1])
    assert rem.is_zero()


def test_divrem_nonzero_remainder():
    # the third cyclotomic does not divide (1 + x)(1 + x^3)
    quot, rem = IntPoly([1, 1, 0, 1, 1]).divrem(IntPoly([1, 1, 1]))
    assert not rem.is_zero()
    assert poly_sum(poly_mul(quot, IntPoly([1, 1, 1])), rem) == IntPoly([1, 1, 0, 1, 1])


def test_divrem_unit_divisor():
    p = IntPoly([4, -1, 7])
    quot, rem = p.divrem(IntPoly([1]))
    assert quot == p and rem.is_zero()


def test_divrem_rejects_bad_divisor():
    with pytest.raises(ValueError):
        IntPoly([1, 1]).divrem(IntPoly())
    with pytest.raises(ValueError):
        IntPoly([1, 1]).divrem(IntPoly([1, 2]))


def test_divrem_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(300):
        p = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 14))])
        q = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 9))] + [1])
        quot, rem = p.divrem(q)
        assert poly_sum(poly_mul(quot, q), rem) == p
        assert rem.is_zero() or degree(rem) < degree(q)


def test_evaluate():
    p = IntPoly([1, 1, 0, 1, 1])
    assert evaluate(p, 1) == 4
    assert evaluate(p, -1) == 0
    assert evaluate(p, 2) == 1 + 2 + 8 + 16
    assert evaluate(IntPoly(), 5) == 0


def test_cyclotomic_known_values():
    for s, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic(s).coeffs == coeffs, s


def test_cyclotomic_is_monic_with_totient_degree():
    from tilecert.arith import euler_phi

    for s in range(1, 80):
        poly = cyclotomic(s)
        assert poly.is_monic()
        assert degree(poly) == euler_phi(s)


def test_cyclotomic_product_identity():
    for n in range(1, 61):
        prod = poly_mul(*(cyclotomic(d) for d in divisors(n)))
        assert prod == x_pow_minus_one(n), n


def test_cyclotomic_105_has_coefficient_minus_two():
    assert min(cyclotomic(105).coeffs) == -2


def test_binomial_quotient_is_exact_or_raises():
    assert over_binomial(list(x_pow_minus_one(6).coeffs), 2) == [1, 0, 1, 0, 1]
    # an ArithmeticError, not an assert, so the check survives python -O
    with pytest.raises(ArithmeticError):
        over_binomial([1, 1, 1], 2)
    with pytest.raises(ArithmeticError):
        over_binomial([1, 1], 3)


def test_binomial_passes_match_dense_product():
    rng = random.Random(5)
    for _ in range(300):
        d = rng.randint(1, 12)
        p = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 15))] + [rng.randint(1, 5)])
        times = times_binomial(list(p.coeffs), d)
        assert IntPoly(times) == poly_mul(p, x_pow_minus_one(d))
        assert over_binomial(times, d) == list(p.coeffs)


def test_cyclotomic_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_below_one_is_refused():
    for n in (0, -6):
        with pytest.raises(ValueError, match=f"cannot factor {n}"):
            factorize(n)
        with pytest.raises(ValueError):
            divides_cyclotomic(IntSet([0, 1]), n)


def test_cyclotomic_at_one():
    assert cyclotomic_at_one(1) == 0
    assert cyclotomic_at_one(9) == 3
    assert cyclotomic_at_one(6) == 1
    for s in range(1, 401):
        assert cyclotomic_at_one(s) == evaluate(cyclotomic(s), 1), s


def test_divides_cyclotomic_examples():
    assert divides_cyclotomic(IntSet((0, 1, 2, 3)), 2)
    assert not divides_cyclotomic(IntSet((0, 1, 3, 4)), 4)
    assert divides_cyclotomic(IntSet((0, 2, 4)), 6)
    # a translate has the same cyclotomic divisors, and x - 1 divides no set
    assert divides_cyclotomic(IntSet((7, 9, 11)), 6)
    assert not divides_cyclotomic(IntSet((0, 1)), 1)
    # a power of x is prime to every cyclotomic polynomial: x**5 * (1 + x)
    # has the one cyclotomic divisor of 1 + x
    assert [s for s in range(1, 20) if divides_cyclotomic(IntSet((5, 6)), s)] == [2]


def random_multiple(rng: random.Random, s: int) -> list[int]:
    """Exponents of a 0/1 multiple of the s-th cyclotomic polynomial, s >= 2.

    With p a prime of s and m = s / p, the cyclotomic polynomial of index
    s divides 1 + x**m + ... + x**((p-1)*m).  Its product with B(x) is a
    0/1 polynomial when no two elements of B differ by j * m with
    0 < |j| < p, as for elements r + m*p*t with 0 <= r < m.
    """
    p = rng.choice([q for q, _ in factorize(s)])
    m = s // p
    base = {rng.randrange(m) + m * p * rng.randint(0, 3) for _ in range(rng.randint(1, 4))}
    return sorted(b + j * m for b in base for j in range(p))


def test_divides_cyclotomic_random_products():
    rng = random.Random(99)
    for _ in range(120):
        s = rng.randint(2, 60)
        exps = random_multiple(rng, s)
        assert divides_cyclotomic(IntSet(exps), s), (exps, s)


def test_divides_cyclotomic_fold_matches_unfolded_division():
    # divides_cyclotomic folds the exponents mod s; the plain long division
    # of the dense polynomial, and the dense division it replaced, are the
    # oracles.  Sets with span below s, above s, and shifted off 0.
    rng = random.Random(7)
    below = above = divides = 0
    for trial in range(600):
        s = rng.randint(1, 40)
        if trial % 2 and s > 1:
            exps = random_multiple(rng, s)
        else:
            span = rng.randint(1, s - 1) if trial % 3 == 0 and s > 1 else rng.randint(s, 4 * s + 10)
            exps = sorted({0, span} | set(rng.sample(range(span + 1), rng.randint(0, span + 1))))
        shift = rng.choice((0, 0, rng.randint(1, 50)))
        exps = [e + shift for e in exps]
        p = IntPoly([int(e in exps) for e in range(exps[-1] + 1)])
        unfolded = p.divrem(cyclotomic(s))[1].is_zero()
        assert divides_cyclotomic(IntSet(exps), s) == unfolded == dense_divides_cyclotomic(p, s), (exps, s)
        span = exps[-1] - exps[0]
        below += span < s
        above += span >= s
        divides += unfolded
    assert below >= 100 and above >= 400 and 250 <= divides < 600, (below, above, divides)


def test_inventory_divides_no_polynomial_of_the_set_degree(monkeypatch):
    # the inventory and the spectrum check of {0, 1, 200000} divide only
    # folds, of degree below the index s; unfolded, the inventory divided
    # the polynomial of degree 200,000
    from tilecert.report import analyze_set
    from tilecert.tileset import cyclotomic_divisors

    degrees = []
    original = IntPoly.divrem

    def recorder(self, divisor):
        degrees.append(degree(self))
        return original(self, divisor)

    monkeypatch.setattr(IntPoly, "divrem", recorder)
    cyclotomic_divisors.cache_clear()
    report = analyze_set(IntSet((0, 1, 200000)))
    assert report["cyclotomic_divisors"] == [3]
    assert degrees and max(degrees) < 100, degrees


def test_divides_cyclotomic_factors_no_index_beyond_twice_the_squared_degree(monkeypatch):
    # phi(s) >= sqrt(s/2) rules out every s > 2 * deg**2 before euler_phi
    # factors s by trial division
    from tilecert import arith

    factored = []
    original = arith.factorize

    def recorder(n):
        factored.append(n)
        return original(n)

    monkeypatch.setattr(arith, "factorize", recorder)
    arith.euler_phi.cache_clear()
    for deg in range(1, 6):
        a = IntSet(range(deg + 1))
        assert not divides_cyclotomic(a, 2 * deg * deg + 1)
        divides_cyclotomic(a, 2 * deg * deg)
    # only at s <= 2 * deg**2 is the totient taken
    assert factored == [2 * deg * deg for deg in range(1, 6)]
    # the bound itself, checked against the totient
    assert all(2 * arith.euler_phi(s) ** 2 >= s for s in range(1, 5000))
