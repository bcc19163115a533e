"""Finite sets of nonnegative integers and the Coven-Meyerowitz conditions.

A candidate tile is a finite set A of at least two nonnegative integers.
Its characteristic polynomial is the 0/1 polynomial whose exponents are
exactly the elements of A.  The cyclotomic divisor inventory collects
every index s >= 2 whose cyclotomic polynomial divides that polynomial;
the prime-power subset of the inventory drives the two Coven-Meyerowitz
conditions:

  (T1)  #A equals the product, over prime powers s in the inventory, of
        the cyclotomic polynomial's value at 1 (i.e. of the primes);
  (T2)  for prime powers s1, ..., sk in the inventory with pairwise
        distinct primes, the cyclotomic polynomial of index s1*...*sk
        also divides the characteristic polynomial.

Both conditions, the inventory, and tiling itself are invariant under
translating the set, and every stage reads the elements relative to
their minimum: no translate is ever built.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import index, lt

from .arith import (
    cyclotomic_at_minus_one,
    cyclotomic_at_one,
    cyclotomic_at_two,
    divisors_totient_at_most,
    factorize,
    prime_count,
    primes_up_to,
    root_of_unity_mod_prime,
    totient_at_most,
)
from .intpoly import divides_cyclotomic
from .values import frozen


@frozen
class IntSet:
    """A finite set of >= 2 nonnegative integers, kept sorted."""

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]):
        # a float or a string is a TypeError here, not a failure deep in a later stage
        elems = sorted(map(index, elements))
        if len(elems) < 2:
            raise ValueError("a tile candidate needs at least two elements")
        if elems[0] < 0:
            raise ValueError("elements must be nonnegative")
        if any(a == b for a, b in zip(elems, elems[1:])):
            raise ValueError("elements must be distinct")
        object.__setattr__(self, "elements", tuple(elems))

    @classmethod
    def parse(cls, text: str) -> "IntSet":
        """Parse a comma-separated list of nonnegative integers."""
        try:
            values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ValueError(f"bad set literal {text!r}") from exc
        return cls(values)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"


def require_ascending(exps: Sequence[int]) -> None:
    """Raise ValueError unless exps is nonempty and strictly ascending.

    That is the contract of every reader of a set's elements as the
    exponents of its 0/1 polynomial; the readers that run once per set
    check it here, so bad input fails at once, not with a wrong answer.
    """
    if not exps:
        raise ValueError("need at least one exponent")
    if not all(map(lt, exps, exps[1:])):
        raise ValueError("exponents must be strictly ascending")


class CertificateError(RuntimeError):
    """A certificate the library built failed its verifier.

    This is an internal bug, never a caller error; the check is explicit
    so that it still runs under ``python -O``.
    """


@frozen
class CycloDivisors:
    """Cyclotomic divisor inventory of a polynomial, built from its indices.

    ``indices`` holds every s >= 2 whose cyclotomic polynomial divides
    the polynomial, given ascending; ``prime_powers`` is the subset of
    prime powers, and ``by_prime`` groups those as ``(p, (p**a, ...))``
    pairs in increasing p.  The prime of a prime power s is the value
    of its cyclotomic polynomial at 1, which is 1 for every other s >= 2;
    it is read here and only here, from the memo in ``arith``: (T1),
    (T2) and the spectrum formula all read ``by_prime``.
    """

    indices: tuple[int, ...]
    prime_powers: tuple[int, ...]
    by_prime: tuple[tuple[int, tuple[int, ...]], ...]

    def __init__(self, indices: Iterable[int]):
        indices = tuple(indices)
        powers = []
        groups: dict[int, list[int]] = {}
        for s in indices:
            p = cyclotomic_at_one(s)
            if p > 1:
                powers.append(s)
                groups.setdefault(p, []).append(s)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "prime_powers", tuple(powers))
        object.__setattr__(self, "by_prime", tuple((q, tuple(g)) for q, g in sorted(groups.items())))


@lru_cache(maxsize=4096)
def _mann_divisors(a: int, k: int, bound: int) -> tuple[int, ...]:
    """The divisors s >= 2 of P_k * a with phi(s) <= bound, P_k the product of the primes <= k."""
    exps = dict(factorize(a))
    for r in primes_up_to(k):
        exps[r] = exps.get(r, 0) + 1
    return tuple(divisors_totient_at_most(list(exps.items()), bound))


def _candidate_indices(exps: Sequence[int]) -> Sequence[int]:
    """A complete ascending list of the s that can index a divisor of p.

    Reads the exponents only.  See ``divisors_of_poly`` for the rule
    and for why either list is complete.
    """
    k, low = len(exps), exps[0]
    span = exps[-1] - low
    if (k - 1) * prime_count(k) > span:
        return totient_at_most(span)
    found: set[int] = set()
    for e in exps[1:]:
        found.update(_mann_divisors(e - low, k, span))
    return sorted(found)


def divisors_of_poly(exps: Sequence[int]) -> CycloDivisors:
    """Inventory of the 0/1 polynomial p with exponents exps: each s >= 2 with Phi_s | p.

    ``exps`` is a set's elements, ascending and distinct, with any
    minimum e; the polynomial is never built.  Let p have k terms.
    Dividing by x**e moves no root of unity, so a translate of the set
    has the same inventory and needs no normalizing: a divisor of index
    s has degree phi(s) <= span, the degree of p / x**e, and every
    exponent below is taken relative to e.  Two complete candidate
    lists are known:

    * Sparse p: if the cyclotomic polynomial of index s divides p, then
      s divides P_k * a for some nonzero relative exponent a, where P_k
      is the product of the primes <= k.  Indeed, for a primitive s-th
      root of unity z, p(z) = 0 is a vanishing sum of k roots of unity
      with nonzero rational coefficients.  Either the term of x**e
      meets a term whose exponent a has z**a = 1, so s divides a; or
      it lies, with a term of exponent a and z**a != 1, in a minimal
      vanishing subsum (one with no vanishing proper subsum) of
      j <= k terms.  By Mann's theorem (Mathematika 12, 1965;
      sharpened by Conway and Jones, Acta Arith. 30, 1976) the ratio
      of two terms of such a subsum has order dividing P_j.  That
      ratio is z**a, of order s / gcd(s, a), so s divides P_k * a.
      The candidates are the divisors s >= 2 of the P_k * a with
      phi(s) <= span; their number does not grow with the degree.
    * Dense p: ``totient_at_most(span)``, every s with phi(s) <= span.
      Every prime r dividing s has r - 1 dividing phi(s), hence
      r <= span + 1, and s is a product of prime powers r**a whose
      factors r**(a-1) * (r-1) multiply to phi(s) <= span.

    The first list is a subset of the second, so either gives the same
    result.  The second is used when (k - 1) * pi(k) > span, pi(k) the
    number of primes <= k, a cheap proxy for which list is shorter: the
    first joins k - 1 divisor lists of numbers with at least pi(k)
    prime factors, the second has about 2 * span entries.  The rule
    reads k and the span only, and builds neither list to compare (the
    dense list alone takes about a second at degree 200,000).

    Most candidates are rejected without a division.  Each reject
    evaluates the cyclotomic polynomial Phi_s of index s at one point
    m, and rules s out when Phi_s(m) does not divide p(m).  This is
    sound because Phi_s is monic: if it divides p over the integers,
    the quotient has integer coefficients, so Phi_s(m) divides p(m).

    * At m = 1 and m = -1, for every candidate and before anything
      else: p(1) = k, and p(-1) is k less twice the number of odd
      exponents (up to the sign (-1)**e, which no divisibility test
      reads); and ``arith`` gives Phi_s(1) (p for s = p**a, else 1) and
      Phi_s(-1) (0 for s = 2, p for s = 2 * p**a with p odd, 2 for
      s = 2**a with a >= 2, else 1) in O(1).  So every prime power of a
      prime not dividing the size goes here.
    * At m = 2, where span**2 <= 2**17 * k, whichever list the
      candidates come from: p(2) / 2**e, the sum of the 2**(a - e) over
      the exponents a (the bitmask of the translated set), is computed
      once, and one big-int remainder by Phi_s(2)
      (``arith.cyclotomic_at_two``) decides each candidate.  Phi_s(2) is
      odd, so the power of 2 dropped with x**e changes nothing.
      Building Phi_s(2) and the remainder both take bit operations that
      grow with span * phi(s); the reject below takes k modular steps
      per candidate.  Measured cold on dense 0/1 sets of 150 to 1,000
      elements, a scan with this reject takes about 0.6 of the time of
      one with the reject below at span**2 = 2**17 * k, and they break
      even near span**2 = 2 * 10**5 * k.  The rule reads the span and
      k only, as the candidate list's does.
    * Mod a prime where span**2 > 2**17 * k, whichever list the
      candidates come from: ``root_of_unity_mod_prime`` gives a prime
      q = 1 (mod s) and an element w of order exactly s in the field of
      integers mod q.  Then w is a root of x**s - 1, the product of the
      cyclotomic polynomials of the divisors d of s, but of no
      x**d - 1 with d < s, which the cyclotomic polynomial of index d
      divides; so w is a root of Phi_s mod q, and a nonzero p(w) mod q
      rules s out.  The unit w**e is divided out, as x**e is above.

    Every s that survives is decided by the exact division of
    ``divides_cyclotomic``, so the result equals the unfiltered scan
    over every s with phi(s) <= span.  Exponents out of order, or
    repeated, are a ValueError.
    """
    require_ascending(exps)
    k, low = len(exps), exps[0]
    span = exps[-1] - low
    at_minus_one = k - 2 * sum(e & 1 for e in exps)
    at_two_reject = span * span <= (1 << 17) * k
    if at_two_reject:
        at_two = sum(1 << (e - low) for e in exps)
    else:
        # gaps between successive exponents, the first taken as 0, so that
        # p(w) / w**e mod q is one chained pass of multiplications
        gaps = [b - a for a, b in zip((low, *exps), exps)]
    found = []
    for s in _candidate_indices(exps):
        one, minus_one = cyclotomic_at_one(s), cyclotomic_at_minus_one(s)
        # Phi_s(-1) is 0 only for s = 2, and 0 divides only 0
        if k % one or (at_minus_one % minus_one if minus_one else at_minus_one):
            continue
        if at_two_reject:
            if at_two % cyclotomic_at_two(s):
                continue
        else:
            q, w = root_of_unity_mod_prime(s)
            x, value = 1, 0
            for gap in gaps:
                x = x * pow(w, gap, q) % q
                value += x
            if value % q:
                continue
        if divides_cyclotomic(exps, s):
            found.append(s)
    return CycloDivisors(found)


@lru_cache(maxsize=1)
def cyclotomic_divisors(elements: tuple[int, ...]) -> CycloDivisors:
    """Cyclotomic divisor inventory of the set with this element tuple.

    Memoized on the tuple for the one set under analysis: its stages,
    the clique search included, consult its inventory in turn, and no
    pipeline comes back to a set it has left.
    """
    return divisors_of_poly(elements)


def check_t1(a: IntSet) -> bool:
    """Condition (T1): #A is the product of Phi_s(1) = p over inventory prime powers s = p**a."""
    return math.prod(p ** len(g) for p, g in cyclotomic_divisors(a.elements).by_prime) == a.size


def check_t2(a: IntSet) -> bool:
    """Condition (T2): cross-prime products of inventory prime powers also divide.

    Enumerates every combination that picks at most one prime power per
    prime and involves at least two distinct primes; the number of
    distinct primes is tiny at desk scale, so direct enumeration is fine.
    Each product is looked up in the inventory, which holds every index
    s >= 2 whose cyclotomic polynomial divides (one of degree phi(s)
    above the polynomial's cannot), so no polynomial is divided here.
    """
    inv = cyclotomic_divisors(a.elements)
    indices = set(inv.indices)
    prime_groups = [g for _, g in inv.by_prime]
    for k in range(2, len(prime_groups) + 1):
        for groups in itertools.combinations(prime_groups, k):
            for combo in itertools.product(*groups):
                if math.prod(combo) not in indices:
                    return False
    return True
