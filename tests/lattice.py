"""Test-only integer lattice membership oracle.

Reduces a generator matrix to an integer row-echelon form (Hermite
style) with exact extended-gcd row combinations, then decides lattice
membership by greedy reduction against the pivots.  Lives in the test
suite on purpose: the library's public surface does not need it.
``w_basis`` lists the pair vectors the Keller witness is summed from,
so the lattice-span checks test the very vectors the library uses.
"""

from __future__ import annotations

from tilecert.products import ProductSpec, _pair_vector


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def echelon(rows) -> list[list[int]]:
    """Integer row-echelon form of the row span of the given vectors."""
    work = [list(r) for r in rows]
    if not work:
        return []
    m, n = len(work), len(work[0])
    rank = 0
    for c in range(n):
        piv = None
        for i in range(rank, m):
            if work[i][c] != 0:
                if piv is None:
                    piv = i
                else:
                    a, b = work[piv][c], work[i][c]
                    g, x, y = extended_gcd(a, b)
                    combined = [x * p + y * q for p, q in zip(work[piv], work[i])]
                    cleared = [-(b // g) * p + (a // g) * q for p, q in zip(work[piv], work[i])]
                    work[piv], work[i] = combined, cleared
        if piv is not None:
            work[rank], work[piv] = work[piv], work[rank]
            if work[rank][c] < 0:
                work[rank] = [-v for v in work[rank]]
            rank += 1
    return work[:rank]


def in_lattice(echelon_rows: list[list[int]], vector) -> bool:
    """Membership of an integer vector in the lattice spanned by echelon rows."""
    w = list(vector)
    for row in echelon_rows:
        c = next(i for i, x in enumerate(row) if x)
        if w[c] % row[c]:
            return False
        k = w[c] // row[c]
        if k:
            w = [a - k * b for a, b in zip(w, row)]
    return not any(w)


def w_basis(spec: ProductSpec) -> list[tuple[int, ...]]:
    """Generators of the lattice {w : <w, steps> = 0}: all pair vectors i < j."""
    n = len(spec)
    return [tuple(_pair_vector(spec, i, j)) for i in range(n) for j in range(i + 1, n)]
