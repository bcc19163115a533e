"""Test-only oracles: closed forms the library's results are compared with.

The Ramanujan sum c_s(j) is the sum of the j-th powers of the primitive
s-th roots of unity, computed exactly from the Moebius function:

    c_s(j) = sum over d | gcd(j, s) of d * mu(s / d).

Power sums of a product of cyclotomic polynomials are sums of these, so
they check Newton's identities in ``tilecert.analysis`` independently.

The library has no general polynomial multiplication and no separate
two-factor condition: it expands products through binomial passes and
decides every tower, two factors included, by one peel.  The dense
product and the two-factor divisibility condition live here as the
oracles those are compared with.
"""

from __future__ import annotations

import math

from tilecert.arith import divisors, factorize
from tilecert.intpoly import IntPoly
from tilecert.products import ProductSpec


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)**(number of primes)."""
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


def ramanujan_sum(s: int, j: int) -> int:
    """The Ramanujan sum c_s(j), exact for any integer j and s >= 1."""
    if s < 1:
        raise ValueError("s must be positive")
    g = math.gcd(abs(j), s)
    return sum(d * mobius(s // d) for d in divisors(g))


def x_pow_minus_one(n: int) -> IntPoly:
    """The polynomial x**n - 1 for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntPoly([-1] + [0] * (n - 1) + [1])


def poly_sum(*polys: IntPoly) -> IntPoly:
    """The sum of the polynomials, coefficient by coefficient."""
    out = [0] * max(len(p.coeffs) for p in polys)
    for p in polys:
        for i, c in enumerate(p.coeffs):
            out[i] += c
    return IntPoly(out)


def poly_mul(*polys: IntPoly) -> IntPoly:
    """The dense product of the polynomials; the empty product is 1."""
    out = [1]
    for p in polys:
        if p.is_zero():
            return IntPoly()
        prod = [0] * (len(out) + len(p.coeffs) - 1)
        for i, c in enumerate(out):
            if c:
                for j, d in enumerate(p.coeffs):
                    prod[i + j] += c * d
        out = prod
    return IntPoly(out)


def progression_poly(m: int, n: int) -> IntPoly:
    """The progression polynomial 1 + x**m + ... + x**((n-1)*m)."""
    coeffs = [0] * (m * (n - 1) + 1)
    coeffs[::m] = [1] * n
    return IntPoly(coeffs)


def two_factor_condition(spec: ProductSpec) -> bool:
    """For exactly two factors: n_1 | m_2/d or n_2 | m_1/d, with d = gcd(m_1, m_2)."""
    if len(spec) != 2:
        raise ValueError("two-factor condition needs exactly two factors")
    (m1, n1), (m2, n2) = spec.factors
    d = math.gcd(m1, m2)
    return (m2 // d) % n1 == 0 or (m1 // d) % n2 == 0
