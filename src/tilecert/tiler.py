"""Decide whether a finite set tiles the integers, with explicit certificates.

Every tiling of the integers by a finite set is periodic, so tiling is
equivalent to the existence of a period M and a complement set B inside
{0, ..., M-1} such that the sums a + b hit every residue class mod M
exactly once.  Granville's bound makes the period search finite: if A
tiles at all, it admits a tiling whose period divides

    L = lcm{ s : the s-th cyclotomic polynomial divides A(x) }.

``find_tiling`` therefore walks every divisor of L in increasing order
and runs an exact-cover backtracking search per period; a returned None
is sound because of that bound.  A cap on L is the report's to apply, not
the searcher's.  A brute-force searcher tries every period in an
explicit range instead.  It runs the same exact-cover search, so
agreement with it checks Granville's bound, not the search; the search
itself is checked against the recursive exact cover it replaced, which
the tests keep as an oracle.

Every certificate passes ``verify_tiling`` inside ``search_periods``,
the one place certificates are made, before it is returned; a failure
raises ``CertificateError``.  Callers therefore never verify again.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import index

from .arith import divisors
from .tileset import CertificateError, IntSet, cyclotomic_divisors
from .values import frozen


@frozen
class TilingCertificate:
    """A period M and complement B with A + B covering Z mod M exactly once."""

    period: int
    complement: tuple[int, ...]

    def __init__(self, period: int, complement: Iterable[int]):
        period = index(period)  # a float or a string is a TypeError
        comp = tuple(sorted(map(index, complement)))
        if period < 1:
            raise ValueError("period must be positive")
        if not comp:
            raise ValueError("complement must be nonempty")
        if comp[0] < 0 or comp[-1] >= period:
            raise ValueError("complement entries must lie in [0, period)")
        if len(set(comp)) != len(comp):
            raise ValueError("complement entries must be distinct")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "complement", comp)


def granville_bound(a: IntSet) -> int:
    """lcm of all cyclotomic divisor indices of A(x); 1 when there are none."""
    return math.lcm(*cyclotomic_divisors(a).indices)


def _complement_search(residues: Sequence[int], period: int) -> tuple[int, ...] | None:
    """Exact-cover backtracking for a complement B containing 0.

    ``residues`` are the distinct residues mod ``period`` of the set's
    elements less its minimum, sorted, with 0 present.  Each step covers
    the smallest uncovered residue r: the only usable shifts are
    b = r - a mod period for a in the set, tried in the order of
    ``residues``, and placing b either collides or covers #A fresh
    residues.  Seeding B with 0 loses
    no generality, because any tiling complement can be translated to
    contain 0.

    Sets of residues are Python ints used as bitsets, bit r standing for
    residue r.  The set itself is the mask ``amask`` and the covered
    residues are one int ``cov``.  The shift of the set by b mod period
    is a rotation of ``amask``: the bits pushed past ``period`` by
    ``amask << b`` wrap round to the bottom.  The smallest uncovered
    residue is the lowest zero bit of ``cov``, which is the one bit of
    ``~cov & (cov + 1)``, and a shift collides exactly when its rotation
    meets ``cov``.  The backtracking runs on an explicit stack, one
    entry per open depth holding that depth's covered mask and the next
    index into ``residues`` to try there, so a complement of any size
    needs no Python recursion.
    """
    size = len(residues)
    need = period // size
    full = (1 << period) - 1
    amask = 0
    for r in residues:
        amask |= 1 << r
    chosen = [0]
    stack: list[tuple[int, int]] = []
    cov, i = amask, 0
    while len(chosen) < need:
        r = (~cov & (cov + 1)).bit_length() - 1
        while i < size:
            b = (r - residues[i]) % period
            i += 1
            s = amask << b
            s = (s & full) | (s >> period)
            if not cov & s:
                break
        else:
            if not stack:
                return None
            cov, i = stack.pop()
            chosen.pop()
            continue
        stack.append((cov, i))
        chosen.append(b)
        cov |= s
        i = 0
    return tuple(sorted(chosen))


def search_periods(a: IntSet, periods: Iterable[int]) -> TilingCertificate | None:
    """Try each candidate period in the given order; first certificate wins.

    The set is read relative to its minimum: the residues searched are
    those of x - min(A), so a translate gets the same search and the same
    certificate, which covers the translate as well.  Periods not
    divisible by #A, and periods where the residues collide, cannot carry
    a tiling and are skipped without search.  The certificate is verified
    before it is returned; a failure raises ``CertificateError``.
    """
    elems = a.elements
    low, size = elems[0], len(elems)
    for period in periods:
        if period < size or period % size:
            continue
        residues = sorted({(x - low) % period for x in elems})
        if len(residues) != size:
            continue
        comp = _complement_search(residues, period)
        if comp is not None:
            cert = TilingCertificate(period, comp)
            if not verify_tiling(a, cert):
                raise CertificateError(f"tiling certificate {cert} for {a} failed verification")
            return cert
    return None


def find_tiling(a: IntSet) -> TilingCertificate | None:
    """Search every divisor of the Granville bound L in increasing order.

    Returns the first certificate found, or None when no divisor of L
    works (which by Granville's bound means A does not tile at all).
    """
    return search_periods(a, divisors(granville_bound(a)))


def brute_force_tiling(a: IntSet) -> TilingCertificate | None:
    """Try every period up to 2*(max(A) - min(A)) + 2.

    It shares the exact-cover search with find_tiling, so it cross-checks
    Granville's period bound only.  The range reads the span, as the
    search reads the elements relative to the minimum, so a translate
    tries the same periods.
    """
    return search_periods(a, range(1, 2 * (a.elements[-1] - a.elements[0]) + 3))


def verify_tiling(a: IntSet, cert: TilingCertificate) -> bool:
    """Check a certificate: right size, and every residue covered exactly once."""
    m = cert.period
    if a.size * len(cert.complement) != m:
        return False
    counts = bytearray(m)
    for x in a.elements:
        for b in cert.complement:
            r = (x + b) % m
            if counts[r]:
                return False
            counts[r] = 1
    return all(counts)
