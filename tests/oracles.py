"""Test-only oracles: closed forms the library's results are compared with.

The Ramanujan sum c_s(j) is the sum of the j-th powers of the primitive
s-th roots of unity, computed exactly from the Moebius function:

    c_s(j) = sum over d | gcd(j, s) of d * mu(s / d).

Power sums of a product of cyclotomic polynomials are sums of these, so
they check Newton's identities independently: the library's
``analysis.power_sums`` on sets whose polynomial is such a product, and
the general ``newton_power_sums`` here on any monic integer polynomial.
The library runs the identities on a set's elements only; the general
form, with the dense ``char_poly`` of a set, is kept here for the tests
that need a polynomial that is not 0/1 or a dense one to divide.

The library has no general polynomial multiplication and no separate
two-factor condition: it expands products through binomial passes and
decides every tower, two factors included, by one peel.  The dense
product and the two-factor divisibility condition live here as the
oracles those are compared with.

The library's root tests read a set's elements as the exponents of its
0/1 polynomial and never build it densely.  The dense division they
replaced, which takes any nonzero integer polynomial, is kept here as
their oracle, with the degree and the evaluation at an integer point
that only tests read; ``unfiltered_divisor_indices`` runs it on every
candidate of a set, with none of the library's rejects in front.
"""

from __future__ import annotations

import math
import random

from tilecert.arith import divisors, euler_phi, factorize, totient_at_most
from tilecert.intpoly import IntPoly, cyclotomic
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


def char_poly(exps) -> IntPoly:
    """The dense 0/1 polynomial with the given exponents."""
    coeffs = [0] * (max(exps) + 1)
    for x in exps:
        coeffs[x] = 1
    return IntPoly(coeffs)


def newton_power_sums(p: IntPoly, count: int) -> tuple[int, ...]:
    """(S_1, ..., S_count) for a monic polynomial of degree >= 1, via Newton's identities.

    S_j sits at index j - 1.  Beyond the degree M the identities are
    homogeneous: S_j + b_{M-1}*S_{j-1} + ... + b_0*S_{j-M} = 0.
    """
    if not p.is_monic() or len(p.coeffs) < 2:
        raise ValueError("polynomial must be monic of degree >= 1")
    if count < 1:
        raise ValueError("count must be positive")
    b = p.coeffs
    deg = len(b) - 1
    sums: list[int] = []
    for j in range(1, count + 1):
        acc = j * b[deg - j] if j <= deg else 0
        for i in range(1, min(j, deg + 1)):
            acc += b[deg - i] * sums[j - i - 1]
        sums.append(-acc)
    return tuple(sums)


def degree(p: IntPoly) -> int | None:
    """Degree, or None for the zero polynomial."""
    return len(p.coeffs) - 1 if p.coeffs else None


def evaluate(p: IntPoly, x: int) -> int:
    """The value at an integer point (Horner)."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def dense_divides_cyclotomic(p: IntPoly, s: int) -> bool:
    """True iff the s-th cyclotomic polynomial divides the nonzero dense polynomial p.

    The division the library ran on a set's dense characteristic
    polynomial: p is folded mod x**s - 1 when deg p >= s, summing its
    coefficients in each residue class, and a zero fold means x**s - 1
    itself divides p.
    """
    if s < 1:
        raise ValueError("cyclotomic index must be >= 1")
    deg = degree(p)
    if deg is None:
        raise ValueError("dividend must be nonzero")
    if s > 2 * deg * deg or euler_phi(s) > deg:
        return False
    if deg >= s:
        p = IntPoly([sum(p.coeffs[r::s]) for r in range(s)])
        if p.is_zero():
            return True
    return p.divrem(cyclotomic(s))[1].is_zero()


def unfiltered_divisor_indices(exps) -> list[int]:
    """Every s with phi(s) <= span whose cyclotomic polynomial divides the set's dense polynomial.

    ``exps`` is ascending.  The offset x**min has no root of unity, so a
    divisor's degree phi(s) is at most the span, and only those
    candidates are scanned.  The division still runs on the dense
    polynomial with its offset, so the oracle does not share the
    library's reading of the elements relative to their minimum.
    """
    p = char_poly(exps)
    return [s for s in totient_at_most(exps[-1] - exps[0]) if dense_divides_cyclotomic(p, s)]


def tower_set(rng: random.Random, top: int, stride: tuple[int, ...] = (1, 1, 2, 3)) -> list[int]:
    """Elements of a product of progression polynomials in tower order, span at most top.

    Each factor's step is the step times the length of the factor
    before it, times a number drawn from stride, so the elements built
    so far lie below it and the product is the direct sum of the
    progressions: a 0/1 polynomial, and a tile with a rich inventory.
    With top >= 9 at least one factor fits.
    """
    elems, m = [0], rng.randint(1, 3)
    while True:
        n = rng.randint(2, 4)
        if elems[-1] + m * (n - 1) > top:
            return elems
        elems = sorted(e + j * m for e in elems for j in range(n))
        m *= n * rng.choice(stride)
