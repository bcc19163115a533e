"""Small exact number-theory helpers shared across the package.

Everything here is integer-only.  Factorization is trial division up to
the square root, so a large prime costs about half its square root in
divisions.  That is not enough for every set: the inventory factors each
difference from a set's minimum, and
``tilecert analyze 0,1,3,4,1000000000000037`` (a prime difference near
10**15) spends 6-7 s in ``factorize`` on a 2-core VM.  ROADMAP item G
replaces it with Pollard's rho and a deterministic Miller-Rabin test.
``divisors_totient_at_most`` lists the divisors of a factored number
whose totient is within a bound by one depth-first search over prime
powers, pruned by the running totient, and factorizes nothing;
``totient_at_most`` runs the same walk over every sieved prime up to
the bound plus one.

The inventory's rejects read the s-th cyclotomic polynomial Phi_s at
a few integer points without building it.  Each is sound because Phi_s
is monic: if Phi_s divides A in Z[x], the quotient Q has integer
coefficients, so Phi_s(m) divides A(m) = Phi_s(m) * Q(m) for every
integer m, and a value of A that the value of Phi_s does not divide
rules s out.

* ``cyclotomic_at_one``: Phi_s(1) is p for s = p**a and 1 otherwise
  (0 for s = 1).
* ``cyclotomic_at_minus_one``: Phi_s(-1) is 0 for s = 2, p for
  s = 2 * p**a with p odd, 2 for s = 2**a with a >= 2, and 1 for every
  other s >= 3 (-2 for s = 1).
* ``cyclotomic_at_two``: Phi_s(2), from the binomial product of
  ``radical_binomials`` evaluated at 2, memoized for recent s.
* ``root_of_unity_mod_prime``: the least prime q = 1 (mod s), found by
  trial division along the progression s + 1, 2s + 1, ..., and an
  element w of order exactly s mod q from a search over small bases;
  Phi_s(w) = 0 (mod q), so A(w) != 0 (mod q) rules s out.
"""

from __future__ import annotations

import math
from functools import lru_cache


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=4096)
def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1.  Memoized for the last 4096 arguments."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


def divisors_totient_at_most(factors: list[tuple[int, int]], bound: int) -> list[int]:
    """The divisors s >= 2 of prod p**e over factors with euler_phi(s) <= bound, ascending.

    ``factors`` holds (prime, exponent) pairs in any order; giving the
    factorization keeps the product itself, which may be huge, out of
    the computation.  A depth-first search multiplies in prime powers
    p**a in increasing p while the running totient, the product of the
    factors p**(a-1) * (p-1), stays within the bound; the increasing
    order lets the first prime whose p - 1 overshoots end the loop.
    Each s is reached once, along its factorization, and since phi is
    multiplicative the running product there is phi(s).
    """
    factors = sorted(factors)
    found: list[int] = []

    def extend(start: int, s: int, phi: int) -> None:
        for i in range(start, len(factors)):
            p, top = factors[i]
            phi_p = phi * (p - 1)
            if phi_p > bound:
                break
            s_p = s * p
            for _ in range(top):
                if phi_p > bound:
                    break
                found.append(s_p)
                extend(i + 1, s_p, phi_p)
                s_p *= p
                phi_p *= p

    extend(0, 1, 1)
    return sorted(found)


@lru_cache(maxsize=256)
def totient_at_most(bound: int) -> tuple[int, ...]:
    """All s >= 2 with euler_phi(s) <= bound, ascending.

    Every prime p dividing s has p - 1 dividing phi(s), so only primes
    p <= bound + 1 can occur, and p**a with a > bound has a totient
    above the bound: these are the divisors of the product of every
    p**bound.  Memoized: batch runs ask for the same few bounds.
    """
    return tuple(divisors_totient_at_most([(p, bound) for p in primes_up_to(bound + 1)], bound))


@lru_cache(maxsize=256)
def prime_count(n: int) -> int:
    """The number of primes p <= n.  Memoized: the inventory asks it per set size."""
    return len(primes_up_to(n))


@lru_cache(maxsize=4096)
def root_of_unity_mod_prime(s: int) -> tuple[int, int]:
    """A prime q = 1 (mod s) and an element w of order exactly s mod q.

    q is the least prime in s + 1, 2s + 1, ... (Dirichlet's theorem
    makes the walk finite).  For g = 2, 3, ... the power w = g**((q-1)/s)
    satisfies w**s = g**(q-1) = 1 by Fermat, and it has order exactly s
    when w**(s/p) != 1 for every prime p dividing s; the units mod q are
    cyclic, so a generator g ends the search at the latest.  Needs
    s >= 2: for s = 1 the search would return q = 2 and w = 0, which is
    not a root of unity.  Memoized for the last 4096 orders: dense sets
    of one span share their whole candidate list, sparse sets share the
    divisors of their common differences, and each miss walks the
    progression by trial division again.
    """
    if s < 2:
        raise ValueError(f"root of unity order must be >= 2, got {s}")
    q = s + 1
    while not is_prime(q):
        q += s
    cofactors = [s // p for p, _ in factorize(s)]
    k = (q - 1) // s
    g = 2
    while True:
        w = pow(g, k, q)
        if all(pow(w, c, q) != 1 for c in cofactors):
            return q, w
        g += 1


def radical_binomials(s: int) -> tuple[int, list[tuple[int, int]]]:
    """The stride t = s / rad(s) and the (d, mu(r/d)) pairs over the divisors d of r = rad(s).

    Then Phi_s(x) = Phi_r(x**t), and Moebius inversion of
    x**n - 1 = prod over d | n of Phi_d(x) gives

        Phi_r(x) = prod over d | r of (x**d - 1)**mu(r/d).
    """
    if s < 1:
        raise ValueError("cyclotomic index must be >= 1")
    primes = [p for p, _ in factorize(s)]
    terms = [(1, (-1) ** len(primes))]
    for p in primes:
        terms += [(d * p, -mu) for d, mu in terms]
    return s // math.prod(primes), terms


@lru_cache(maxsize=4096)
def cyclotomic_at_one(s: int) -> int:
    """Phi_s(1): 0 for s = 1, p for s = p**a, else 1.

    Memoized for the last 4096 indices, which hold every candidate of a
    span up to about 2,000; a wider scan factors each of its candidates
    again, a few microseconds each, rather than keep one entry per index.
    """
    if s < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if s == 1:
        return 0
    fac = factorize(s)
    return fac[0][0] if len(fac) == 1 else 1


def cyclotomic_at_minus_one(s: int) -> int:
    """Phi_s(-1): -2 for s = 1, 0 for s = 2, and Phi_(s/2)(1) for even s >= 4, else 1.

    That is p for s = 2 * p**a with p odd, 2 for s = 2**a with a >= 2,
    and 1 for every other s >= 3.  For odd s >= 3, Phi_s(-x) = Phi_2s(x),
    so Phi_s(-1) = Phi_2s(1) = 1.  For even s = 2n with n >= 2, Phi_s(x)
    is Phi_n(-x) when n is odd and Phi_n(x**2) when n is even; either
    way Phi_s(-1) = Phi_n(1), read from ``cyclotomic_at_one``.
    """
    if s < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if s <= 2:
        return -2 if s == 1 else 0
    return 1 if s % 2 else cyclotomic_at_one(s // 2)


@lru_cache(maxsize=1024)
def cyclotomic_at_two(s: int) -> int:
    """Phi_s(2) = prod over d | s of (2**d - 1)**mu(s/d), without building Phi_s.

    The product runs over the divisors of rad(s) only (``radical_binomials``),
    its factors with mu = +1 first; the division by the rest is exact.
    Memoized for the last 1024 indices: the dense inventory asks for the
    same candidates for every polynomial of a span, but a memo of every
    index would keep about span**2 bits for the widest span it has seen.
    """
    stride, terms = radical_binomials(s)
    num = den = 1
    for d, mu in terms:
        if mu > 0:
            num *= (1 << (stride * d)) - 1
        else:
            den *= (1 << (stride * d)) - 1
    return num // den
