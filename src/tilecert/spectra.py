"""Rational spectra of finite sets, through their 0/1 polynomials.

An N-spectrum for the polynomial A(x) = sum of x**a over the N elements
a of a set A is a set of N-1 distinct values
theta_1, ..., theta_{N-1} (theta_0 = 0 implicit) such that for every
pair j != k the number exp(2*pi*i*(theta_j - theta_k)) is a root of A.
This module works with rational theta only, where everything is exact:
exp(2*pi*i*p/q) in lowest terms is a primitive q-th root of unity, so it
is a root of A exactly when the q-th cyclotomic polynomial divides A.

Rational restriction is not a real loss at desk scale -- for the sizes
handled here a spectrum of full size is forced to be rational whenever
the polynomial's degree is small relative to N -- but a None from the
searcher is still reported as "no rational spectrum", never as a
refutation of spectrality in general.

Two producers exist: ``construct_spectrum`` applies the explicit formula
available under the Coven-Meyerowitz conditions, and ``spectrum_search``
runs a complete clique search over all candidate fractions.  Both, and
``tilecert spectrum verify``, check a spectrum with ``verify_spectrum``,
which decides each root condition, the difference 0 included, by one
cyclotomic divisibility test.  Every function here reads the set's
elements as the exponents of A; none builds A densely.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .intpoly import divides_cyclotomic
from .tileset import (
    CertificateError,
    IntSet,
    check_t1,
    check_t2,
    cyclotomic_divisors,
    require_ascending,
)
from .values import frozen


@frozen
class RationalSpectrum:
    """Distinct reduced fractions in (0, 1); the implicit theta_0 = 0 is not stored."""

    thetas: tuple[Fraction, ...]

    def __init__(self, thetas: Iterable[Fraction]):
        ts = tuple(sorted(Fraction(t) for t in thetas))
        if any(not (0 < t < 1) for t in ts):
            raise ValueError("spectrum values must lie strictly inside (0, 1)")
        if any(a == b for a, b in zip(ts, ts[1:])):
            raise ValueError("spectrum values must be distinct")
        object.__setattr__(self, "thetas", ts)

    def __len__(self) -> int:
        return len(self.thetas)

    def __iter__(self):
        return iter(self.thetas)

    def __str__(self) -> str:
        return "{" + ",".join(str(t) for t in self.thetas) + "}"


def parse_thetas(text: str) -> list[Fraction]:
    """Parse a comma-separated fraction list such as "1/2,1/4,3/4".

    Each value is p/q, an integer or a plain decimal.  Exponent notation
    is refused: ``Fraction("1e30000000")`` builds a 30-million-digit
    integer before anything could check it.
    """
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "e" in tok.lower():
            raise ValueError(f"bad fraction {tok!r}")
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad fraction {tok!r}") from exc
    return out


def is_root_of(exps: Sequence[int], delta: Fraction) -> bool:
    """True iff exp(2*pi*i*delta) is a root of the 0/1 polynomial with exponents exps.

    delta lies in [0, 1).  delta = 0 has denominator 1, and the first
    cyclotomic polynomial x - 1 divides no 0/1 polynomial, whose value
    at 1 is its number of terms.
    """
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    return divides_cyclotomic(exps, delta.denominator)


def verify_spectrum(exps: Sequence[int], thetas: Sequence[Fraction]) -> bool:
    """Check the root condition for every pair drawn from thetas plus 0.

    ``exps`` is a set's elements, read as the exponents of its 0/1
    polynomial with no normalizing: a shift multiplies the polynomial by
    a power of x, which is prime to every cyclotomic polynomial.
    ``thetas`` is any sequence of fractions.  Values are taken mod 1
    first; a repeated value (including a theta congruent to 0) violates
    distinctness and yields False.  Only the root conditions are checked
    here -- whether len(thetas) + 1 matches the number of exponents is
    the caller's concern.  Exponents out of order, or repeated, are a
    ValueError.
    """
    require_ascending(exps)
    pts = [Fraction(0)] + [Fraction(t) % 1 for t in thetas]
    if len(set(pts)) != len(pts):
        return False
    for u, v in itertools.combinations(pts, 2):
        if not is_root_of(exps, (u - v) % 1):
            return False
    return True


def construct_spectrum(a: IntSet) -> RationalSpectrum | None:
    """Explicit spectrum from the prime-power inventory, under (T1) and (T2).

    Returns None unless both conditions hold.  Otherwise builds all sums

        sum over inventory prime powers s = p**alpha of k_s / s,
        with 0 <= k_s < p,

    taken mod 1, drops 0, and returns the rest.  The sums are kept as
    integers on the common denominator L, the product of each prime's
    largest inventory power: the term k_s / s is k_s * (L / s) mod L,
    and a Fraction is built only for each value of the result.  Under
    (T1) there are exactly #A such sums and they are pairwise distinct,
    so the result has #A - 1 values; it is verified before being
    returned and a failure there raises ``CertificateError``.
    """
    if not (check_t1(a) and check_t2(a)):
        return None
    inv = cyclotomic_divisors(a.elements)
    denominator = math.prod(group[-1] for _, group in inv.by_prime)
    sums = {0}
    for p, group in inv.by_prime:
        for s in group:
            step = denominator // s
            sums = {(x + k * step) % denominator for x in sums for k in range(p)}
    sums.discard(0)
    spectrum = RationalSpectrum(Fraction(x, denominator) for x in sums)
    if len(spectrum) != a.size - 1:
        raise CertificateError(f"spectrum formula for {a} produced {len(spectrum)} values")
    if not verify_spectrum(a.elements, spectrum.thetas):
        raise CertificateError(f"spectrum formula for {a} failed verification")
    return spectrum


def _find_clique(adj: list[int], target: int) -> list[int] | None:
    """Find a clique of the given size in a graph stored as bitmask rows.

    Branch and bound: at each node the candidate with the fewest
    compatible partners is chosen (ties broken by index), and the search
    branches on including or excluding it, including first, pruning when
    the current clique plus all remaining candidates cannot reach the
    target.  The search runs on an explicit stack of open branches, each
    holding the clique size it starts from, the vertex it adds (or -1)
    and its candidate mask, so a clique of any size needs no Python
    recursion.
    """
    members: list[int] = []
    stack = [(0, -1, (1 << len(adj)) - 1)]
    while stack:
        size, added, allowed = stack.pop()
        del members[size:]
        if added >= 0:
            members.append(added)
        if len(members) == target:
            return members
        if len(members) + allowed.bit_count() < target:
            continue
        best = -1
        best_deg = len(adj) + 1
        mask = allowed
        while mask:
            v = (mask & -mask).bit_length() - 1
            deg = (adj[v] & allowed).bit_count()
            if deg < best_deg:
                best, best_deg = v, deg
            mask &= mask - 1
        # pushed last, the include branch is searched first
        stack.append((len(members), -1, allowed & ~(1 << best)))
        stack.append((len(members), best, allowed & adj[best]))
    return None


def spectrum_search_poly(exps: Sequence[int]) -> RationalSpectrum | None:
    """Complete search for a full rational spectrum of the 0/1 polynomial p with exponents exps.

    A full spectrum has p(1) - 1 = len(exps) - 1 theta values, the
    target size.  Candidates are exactly the fractions in (0, 1) whose
    reduced denominator indexes a cyclotomic divisor of p (their
    difference with the implicit 0 must already be a root), and two
    candidates are compatible when their difference mod 1 is a root; a
    spectrum is a clique of the target size.  None means no full
    rational spectrum exists.  The divisors come from the set's one
    inventory memo, so a set just analyzed is not scanned again.
    Exponents out of order, or repeated, are a ValueError.

    Nothing bounds the work.  There are sum of phi(s) <= span
    candidates over the inventory's s, and every pair is tested: for
    {0, N}, whose inventory is every s dividing 2N but not N, that is N
    candidates and N**2 / 2 pairs.  ``tilecert spectrum search 0,1000``
    takes about 1.5 s and ``0,3000`` about 16 s on a 2-core VM.
    """
    require_ascending(exps)
    target = len(exps) - 1
    index_set = set(cyclotomic_divisors(tuple(exps)).indices)
    candidates = sorted(
        Fraction(k, s) for s in index_set for k in range(1, s) if math.gcd(k, s) == 1
    )
    if len(candidates) < target:
        return None
    adj = [0] * len(candidates)
    for i, u in enumerate(candidates):
        for j in range(i + 1, len(candidates)):
            if ((u - candidates[j]) % 1).denominator in index_set:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    clique = _find_clique(adj, target)
    if clique is None:
        return None
    spectrum = RationalSpectrum(candidates[v] for v in clique)
    if not verify_spectrum(exps, spectrum.thetas):
        raise CertificateError(f"searched spectrum {spectrum} failed verification")
    return spectrum


def spectrum_search(a: IntSet) -> RationalSpectrum | None:
    """Search for a full rational spectrum of the set (target size #A - 1)."""
    return spectrum_search_poly(a.elements)
