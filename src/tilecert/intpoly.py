"""Cyclotomic divisibility of a set's 0/1 polynomial, in exact integer arithmetic.

The library multiplies and divides coefficient lists only by binomials
x**d - 1, one linear pass each (``times_binomial``, ``over_binomial``):
the cyclotomic polynomials and the products of progression polynomials
(``products.product_poly``) are built from them, and long division
(``IntPoly.divrem``) by a monic cyclotomic polynomial decides
divisibility.  There is no general multiplication.

``IntPoly`` is the polynomial of that one test, and no other module
imports it.  It stores a dense tuple of integer coefficients indexed by
exponent: ``IntPoly([1, 0, 1])`` is 1 + x**2.  The canonical form has
no trailing zero coefficient and the zero polynomial is the empty tuple.
Coefficients are Python ints and therefore never overflow; this matters
because cyclotomic coefficients do eventually exceed 1 in magnitude (the
105th cyclotomic polynomial is the first with a coefficient of -2).

A finite set A is never stored densely here: ``divides_cyclotomic``
reads its 0/1 polynomial A(x) = sum of x**a from the exponents, so its
cost follows the number of elements and the index s, not the span.

Values are immutable and all operations are pure, so they can be used
freely from concurrent workers.  The cyclotomic cache is an lru_cache of
the last 1024 indices, which is safe for concurrent read/insert under
CPython.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from .arith import euler_phi, radical_binomials
from .values import frozen


@frozen
class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of x**i."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def divrem(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division by a monic divisor: self = divisor*quot + rem.

        The divisor must be monic and nonzero (every cyclotomic divisor
        is), which keeps the division exact over the integers; the
        remainder has degree strictly below the divisor's.
        """
        if not divisor.is_monic():
            raise ValueError("divisor must be monic and nonzero")
        dq = len(divisor.coeffs) - 1
        rem = list(self.coeffs)
        quot = [0] * (len(rem) - dq)
        dcs = divisor.coeffs
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c:
                quot[i - dq] = c
                base = i - dq
                for j in range(dq):
                    rem[base + j] -= c * dcs[j]
                rem[i] = 0
        return IntPoly(quot), IntPoly(rem[:dq])


def times_binomial(coeffs: list[int], d: int) -> list[int]:
    """Coefficients of the product with x**d - 1: one pass, no general multiply."""
    shifted = [0] * d + coeffs
    negated = [-c for c in coeffs] + [0] * d
    return [u + v for u, v in zip(shifted, negated)]


def over_binomial(coeffs: list[int], d: int) -> list[int]:
    """Coefficients of the exact quotient by x**d - 1: one pass, no general divrem.

    Raises ArithmeticError when x**d - 1 does not divide, so the check
    survives ``python -O``.
    """
    rem = list(coeffs)
    for i in range(len(rem) - 1, d - 1, -1):
        rem[i - d] += rem[i]
    if any(rem[:d]):
        raise ArithmeticError(f"x^{d} - 1 does not divide the polynomial")
    return rem[d:]


@lru_cache(maxsize=1024)
def cyclotomic(s: int) -> IntPoly:
    """The s-th cyclotomic polynomial, for s >= 1.

    Let r = rad(s) be the product of the distinct primes of s.  Then
    Phi_s(x) = Phi_r(x**(s/r)), and Moebius inversion of
    x**n - 1 = prod over d | n of Phi_d(x) gives

        Phi_r(x) = prod over d | r of (x**d - 1)**mu(r/d)

    (``arith.radical_binomials`` lists the pairs).  The factors with
    mu(r/d) = +1 are multiplied in first, then each factor with
    mu(r/d) = -1 is divided out exactly.  Every step is one linear pass
    against a binomial: no long division, and no smaller cyclotomic
    polynomial is built.  Results are memoized for the last 1024
    indices, as ``arith.cyclotomic_at_two`` is: a repeated index costs
    one dict lookup, and a wide scan does not keep every dense Phi_s
    it has built.
    """
    stride, terms = radical_binomials(s)
    coeffs = [1]
    for d, mu in terms:
        if mu > 0:
            coeffs = times_binomial(coeffs, d)
    for d, mu in terms:
        if mu < 0:
            coeffs = over_binomial(coeffs, d)
    spread = [0] * (stride * (len(coeffs) - 1) + 1)
    spread[::stride] = coeffs
    return IntPoly(spread)


def divides_cyclotomic(exps: Sequence[int], s: int) -> bool:
    """True iff the s-th cyclotomic polynomial divides the 0/1 polynomial with exponents exps.

    ``exps`` is a set's elements: ascending and distinct, at least one,
    with any minimum.  The polynomial is folded mod x**s - 1 by counting
    its exponents in each residue class, taken relative to the lowest:
    the s-th cyclotomic polynomial divides x**s - 1 and is prime to x,
    so it divides the polynomial exactly when it divides the fold, and
    no translate of the set needs normalizing first.  The counts sum to
    the number of exponents, so the fold is never zero; it has at most
    min(s, span + 1) coefficients, and the long division runs on it
    whatever the span.
    """
    if s < 1:
        raise ValueError("cyclotomic index must be >= 1")
    low = exps[0]
    span = exps[-1] - low
    # phi(s) >= sqrt(s/2), so beyond 2*span**2 the span rules s out
    # without factoring s, which by trial division can take forever
    if s > 2 * span * span or euler_phi(s) > span:
        return False
    fold = [0] * min(s, span + 1)
    for e in exps:
        fold[(e - low) % s] += 1
    _, rem = IntPoly(fold).divrem(cyclotomic(s))
    return rem.is_zero()
