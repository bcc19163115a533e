"""Power sums of the roots of a set's polynomial, and the prime-power cyclotomic pattern.

For a monic integer polynomial of degree M with coefficients b_0..b_M,
Newton's identities give the power sums S_j of its roots exactly:

    S_j + b_{M-1}*S_{j-1} + ... + b_{M-j+1}*S_1 + j*b_{M-j} = 0   (j <= M)
    S_j + b_{M-1}*S_{j-1} + ... + b_0*S_{j-M}           = 0   (j > M)

The j > M line is the standard homogeneous extension, needed to compare
against independent oracles beyond the degree, such as the Ramanujan
sums the tests keep.

``power_sums`` takes the set as an ``IntSet``.  For the 0/1 polynomial
A(x) of a set A with maximum M, b_{M-i} is 1 exactly when M - i is an
element, so each identity reads only the distances d = M - e from the
maximum to the other elements e: step j adds S_{j-d} for every such
d < j, and j when d = j.  A translate only adds roots at 0, which add
nothing, and the cost follows the number of power sums and the number
of elements, not the span.

The classifier at the bottom recognizes arithmetic progressions
{0, t, 2t, ..., (p-1)t} with p prime and t a power of p -- exactly the
sets whose characteristic polynomial is a prime-power cyclotomic
polynomial, of index p**alpha with t = p**(alpha-1).
"""

from __future__ import annotations

from .arith import is_prime
from .tileset import IntSet

# Every root of a 0/1 polynomial has modulus below 2 (Cauchy's bound), and
# S_j reads only the distances up to j, so |S_j| < j * 2**j: S_10000 has at
# most 3,015 digits, within Python's 4,300-digit limit for printing an int
MAX_POWER_SUMS = 10_000


def power_sums(a: IntSet, count: int) -> tuple[int, ...]:
    """(S_1, ..., S_count) for the roots of the set's 0/1 polynomial.

    The set may have any minimum.  S_j sits at index j - 1.  A count
    below 1 or above MAX_POWER_SUMS is a ValueError.
    """
    if count < 1:
        raise ValueError(f"power sum count must be at least 1, got {count}")
    if count > MAX_POWER_SUMS:
        raise ValueError(f"power sum count must be at most {MAX_POWER_SUMS:,}")
    exps = a.elements
    top = exps[-1]
    distances = [top - e for e in reversed(exps[:-1])]
    sums: list[int] = []
    for j in range(1, count + 1):
        acc = 0
        for d in distances:
            if d >= j:
                if d == j:
                    acc += j
                break
            acc += sums[j - d - 1]
        sums.append(-acc)
    return tuple(sums)


def classify_prime_power_cyclotomic(a: IntSet) -> tuple[int, int] | None:
    """Recognize {0, t, 2t, ..., (p-1)t} with p prime, t = p**(alpha-1).

    Elements are read relative to the minimum, so a translate of such a
    set matches too.  Returns (p, alpha) when the set matches --
    equivalently, when its characteristic polynomial is the cyclotomic
    polynomial of index p**alpha -- and None otherwise.
    """
    elems = a.elements
    p = len(elems)
    if not is_prime(p):
        return None
    t = elems[1] - elems[0]
    if any(elems[k] - elems[0] != k * t for k in range(p)):
        return None
    alpha = 1
    step = t
    while step % p == 0:
        step //= p
        alpha += 1
    if step != 1:
        return None
    return (p, alpha)
