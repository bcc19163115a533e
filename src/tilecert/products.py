"""Products of arithmetic-progression polynomials and the tower condition.

A product spec is a list of pairs (m_i, n_i), each describing the factor

    1 + x**m_i + x**(2*m_i) + ... + x**((n_i - 1)*m_i)
      = (x**(m_i*n_i) - 1) / (x**m_i - 1),

the characteristic polynomial of the progression {0, m_i, ..., (n_i-1)*m_i}.
The product is expanded from the right-hand side into a plain tuple of
coefficients: each factor is one pass multiplying by x**(m_i*n_i) - 1
and one pass dividing exactly by x**m_i - 1, so no general polynomial
multiplication is needed.  The coefficients are nonnegative, so the
product is a 0/1 polynomial, the polynomial of a set, exactly when none
exceeds 1.

Whether the expanded product tiles the integers is decided by the tower
condition: some ordering of the factors satisfies, for every position k,

    n_k divides gcd( m_j / gcd(m_k, m_j) : j after k ).

The tower is decided by peeling, with no limit on the number of
factors: while some remaining factor can precede every other remaining
one, remove the smallest such factor.  Deleting a factor keeps a valid
ordering valid, so a valid head of a set that has a valid ordering
starts one, and a set with no valid head has none; the peel therefore
removes every factor exactly when the tower holds.  A valid ordering
starts with a valid head, so taking the smallest one at each step gives
the lexicographically first valid ordering.  For two factors the tower
is the divisibility condition n_1 | m_2/d or n_2 | m_1/d with
d = gcd(m_1, m_2), which the report prints as ``two_factor_condition``.

When the tower condition fails for every ordering, a witness vector can
be extracted that violates Keller's cube-tiling property for the lattice
W = {w : sum_i w_i * m_i = 0}: a nonzero w in W such that no coordinate
of (w_1/n_1, ..., w_N/n_N) is a nonzero integer.  Keller's theorem makes
such a vector a certificate of non-tiling, independent of any search.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import index

from .intpoly import over_binomial, times_binomial
from .tileset import CertificateError, IntSet
from .values import frozen


@frozen
class ProductSpec:
    """Factors (m_i, n_i) of integers with m_i >= 1 and n_i >= 2.

    Pairwise gcds d_ij = gcd(m_i, m_j) are recomputed on demand, never
    stored, so they cannot go stale.
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors: Iterable[tuple[int, int]]):
        # a float or a string is a TypeError, not a silently different polynomial
        fs = tuple((index(m), index(n)) for m, n in factors)
        if not fs:
            raise ValueError("need at least one factor")
        if any(m < 1 for m, _ in fs):
            raise ValueError("every step m must be >= 1")
        if any(n < 2 for _, n in fs):
            raise ValueError("every length n must be >= 2")
        object.__setattr__(self, "factors", fs)

    @classmethod
    def parse(cls, text: str) -> "ProductSpec":
        """Parse a spec literal such as "1:2,3:2"."""
        factors = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            parts = tok.split(":")
            if len(parts) != 2:
                raise ValueError(f"bad factor {tok!r}, expected m:n")
            try:
                factors.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ValueError(f"bad factor {tok!r}") from exc
        return cls(factors)

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.factors)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return ",".join(f"{m}:{n}" for m, n in self.factors)


def product_poly(spec: ProductSpec) -> tuple[int, ...]:
    """Coefficients of the expanded product of all factors (x**(m*n) - 1) / (x**m - 1).

    ``coeffs[i]`` is the coefficient of x**i.  Every factor has
    nonnegative coefficients, so the product does too.
    """
    coeffs = [1]
    for m, n in spec.factors:
        coeffs = over_binomial(times_binomial(coeffs, m * n), m)
    return tuple(coeffs)


def product_set(spec: ProductSpec) -> IntSet | None:
    """The exponent set of the product, when the product is 0/1; else None."""
    coeffs = product_poly(spec)
    if any(c > 1 for c in coeffs):
        return None
    return IntSet(i for i, c in enumerate(coeffs) if c)


def _peel(spec: ProductSpec) -> tuple[list[int], list[int], list[list[bool]]]:
    """The tower peel of the module docstring: (removed factors in order, factors left, blocks).

    ``blocks[i][j]`` says factor i cannot precede factor j: n_i does not
    divide m_j / gcd(m_i, m_j).  No factor is left exactly when the tower holds.
    """
    fs = spec.factors
    blocks = [
        [i != j and (mj // math.gcd(mi, mj)) % ni != 0 for j, (mj, _) in enumerate(fs)]
        for i, (mi, ni) in enumerate(fs)
    ]
    # how many remaining factors each factor blocks, so the peel is O(N**2)
    blocked = [sum(row) for row in blocks]
    active = [True] * len(fs)
    order = []
    while True:
        head = next((i for i, a in enumerate(active) if a and blocked[i] == 0), None)
        if head is None:
            break
        active[head] = False
        order.append(head)
        for k, row in enumerate(blocks):
            blocked[k] -= row[head]
    return order, [i for i, a in enumerate(active) if a], blocks


def tower_condition(spec: ProductSpec) -> tuple[int, ...] | None:
    """First factor ordering (as 0-based indices) satisfying the tower chain.

    The result is the lexicographically first valid ordering, so it is
    deterministic.  None means the chain fails for every ordering.
    """
    order, rest, _ = _peel(spec)
    return None if rest else tuple(order)


def _pair_vector(spec: ProductSpec, i: int, j: int) -> list[int]:
    # Coordinate i gets m_j/d_ij, coordinate j gets -m_i/d_ij, zeros elsewhere;
    # by construction the dot product with the step vector is 0.
    mi, mj = spec.factors[i][0], spec.factors[j][0]
    d = math.gcd(mi, mj)
    vec = [0] * len(spec)
    vec[i] = mj // d
    vec[j] = -(mi // d)
    return vec


def check_keller_violation(spec: ProductSpec, vector: Sequence[int]) -> bool:
    """True iff the vector certifies a Keller-property violation.

    Requirements: nonzero, orthogonal to the step vector, and for every
    coordinate either w_i = 0 or n_i does not divide w_i (so scaling by
    1/n_i leaves no coordinate in Z minus {0}).
    """
    vec = tuple(vector)
    if len(vec) != len(spec) or not any(vec):
        return False
    if sum(w * m for w, m in zip(vec, spec.steps)) != 0:
        return False
    return all(w == 0 or w % n != 0 for w, n in zip(vec, spec.lengths))


def keller_violation_witness(spec: ProductSpec) -> tuple[int, ...] | None:
    """None when the tower condition holds; otherwise a violation witness.

    The construction follows the failure structure of the tower chain.
    The peel removes every factor that can head an ordering of the rest
    (any witness on the remaining coordinates is a witness for the whole
    spec, with zeros elsewhere).  Once it is stuck, every remaining i
    has a partner sigma(i) with n_i not dividing m_sigma(i)/d, and
    following sigma yields a cycle i_1, ..., i_r.  If some consecutive
    pair also fails the reverse divisibility, its pair vector alone is a
    witness; otherwise the sum of the pair vectors around the cycle is.
    """
    _, active, blocks = _peel(spec)
    if not active:
        return None
    sigma = {i: next(j for j in active if blocks[i][j]) for i in active}
    path = [active[0]]
    seen = {active[0]: 0}
    while sigma[path[-1]] not in seen:
        nxt = sigma[path[-1]]
        seen[nxt] = len(path)
        path.append(nxt)
    cycle = path[seen[sigma[path[-1]]]:]
    r = len(cycle)
    vec: list[int] | None = None
    for j in range(r):
        i1, i2 = cycle[j], cycle[(j + 1) % r]
        if blocks[i2][i1]:
            vec = _pair_vector(spec, i1, i2)
            break
    if vec is None:
        vec = [0] * len(spec)
        for j in range(r):
            pair = _pair_vector(spec, cycle[j], cycle[(j + 1) % r])
            vec = [a + b for a, b in zip(vec, pair)]
    if not check_keller_violation(spec, vec):
        raise CertificateError(f"Keller witness {vec} for {spec} failed verification")
    return tuple(vec)
