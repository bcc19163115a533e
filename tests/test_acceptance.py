"""Acceptance suite: exhaustive desk-scale verification, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL summary each criterion prints.  Every tolerance is pinned
here; the whole module finishes in a few minutes on commodity hardware.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from lattice import echelon, in_lattice, w_basis
from oracles import char_poly, evaluate, newton_power_sums, poly_mul, ramanujan_sum, x_pow_minus_one
from tilecert.arith import cyclotomic_at_one, divisors, euler_phi
from tilecert.analysis import classify_prime_power_cyclotomic, power_sums
from tilecert.families import (
    product_facts,
    subset_facts,
    subsets,
    three_factor_specs,
    two_factor_specs,
)
from tilecert.intpoly import cyclotomic
from tilecert.spectra import RationalSpectrum, verify_spectrum
from tilecert.tileset import IntSet, check_t1, check_t2
from tilecert.tiler import TilingCertificate, find_tiling, verify_tiling
from tilecert.products import ProductSpec

SUBSET_MAX_ELEM = 14
SUBSET_MAX_SIZE = 6
NUMERIC_TOLERANCE = 1e-6


def report(criterion: str, ok: bool, start: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail} [{time.perf_counter() - start:.1f}s]")


@pytest.fixture(scope="module")
def subset_family():
    return [subset_facts(a) for a in subsets(SUBSET_MAX_ELEM, SUBSET_MAX_SIZE)]


@pytest.fixture(scope="module")
def three_factor_family():
    return [product_facts(spec) for spec in three_factor_specs(6)]


def test_criterion_01_cyclotomic_identities():
    start = time.perf_counter()
    violations = []
    for n in range(1, 201):
        prod = poly_mul(*(cyclotomic(d) for d in divisors(n)))
        if prod != x_pow_minus_one(n):
            violations.append(("product", n))
    for s in range(1, 201):
        if evaluate(cyclotomic(s), 1) != cyclotomic_at_one(s):
            violations.append(("at_one", s))
    report("1", not violations, start,
           "cyclotomic product and value-at-1 identities, n,s <= 200")
    assert not violations, violations[:5]


def test_criterion_02_condition_implications(subset_family):
    start = time.perf_counter()
    bad_a = [f for f in subset_family if f["t1"] and f["t2"] and f["tiling"] is None]
    bad_b = [f for f in subset_family if f["tiling"] is not None and not f["t1"]]
    # every size 2..6 has at most two distinct prime factors, so (c)
    # applies to the whole family
    bad_c = [f for f in subset_family if f["tiling"] is not None and not f["t2"]]
    ok = not (bad_a or bad_b or bad_c)
    report("2", ok, start,
           f"(a) t1&t2=>tiles, (b) tiles=>t1, (c) tiles=>t2 over {len(subset_family)} sets")
    assert ok, (bad_a[:3], bad_b[:3], bad_c[:3])


def test_criterion_03_granville_bound_agreement(subset_family):
    start = time.perf_counter()

    def verified(f, key):
        cert = f[key]
        return verify_tiling(IntSet(f["set"]), TilingCertificate(cert["period"], cert["complement"]))

    bad = [
        f for f in subset_family
        if (f["tiling"] is None) != (f["brute"] is None)
        or (f["tiling"] is not None and not (verified(f, "tiling") and verified(f, "brute")))
    ]
    tilers = sum(1 for f in subset_family if f["tiling"] is not None)
    report("3", not bad, start,
           f"bound-restricted vs unrestricted period search agree ({tilers} tilers)")
    assert not bad, [f["set"] for f in bad[:5]]


def test_criterion_04_two_factor_equivalence():
    start = time.perf_counter()
    violations = []
    checked = 0
    for spec in two_factor_specs(8, 4):
        f = product_facts(spec)
        sr = f["set_report"]
        if sr is None:
            continue
        checked += 1
        outcomes = {f["two_factor_condition"], sr["t1"] and sr["t2"], sr["tiling"] is not None,
                    f["spectrum_search"]}
        if len(outcomes) != 1:
            violations.append((str(spec), f))
    report("4", not violations, start,
           f"condition<=>t1&t2<=>tiles<=>spectrum over {checked} two-factor specs")
    assert not violations, violations[:5]


def test_criterion_05_tower_equivalence(three_factor_family):
    start = time.perf_counter()
    violations = []
    checked = 0
    for f in three_factor_family:
        sr = f["set_report"]
        if sr is None:
            continue
        checked += 1
        outcomes = {f["tower_order"] is not None, sr["t1"] and sr["t2"], sr["tiling"] is not None}
        if len(outcomes) != 1:
            violations.append(f["spec"])
    report("5", not violations, start,
           f"tower<=>t1&t2<=>tiles over {checked} three-factor specs")
    assert not violations, violations[:5]


def test_criterion_06_spectrum_formula(subset_family):
    start = time.perf_counter()
    eligible = [f for f in subset_family if f["t1"] and f["t2"]]
    bad = [
        f for f in eligible
        if f["spectrum"] is None
        or len(f["spectrum"]) != f["size"] - 1
        or not verify_spectrum(f["set"], RationalSpectrum(Fraction(t) for t in f["spectrum"]))
    ]
    report("6", not bad, start,
           f"constructed spectra have size #A-1 and verify on {len(eligible)} sets")
    assert not bad, [f["set"] for f in bad[:5]]


def test_criterion_07_keller_witnesses(three_factor_family):
    start = time.perf_counter()
    failures = [
        f for f in three_factor_family if f["set_report"] is not None and f["tower_order"] is None
    ]
    bad = [f for f in failures if f["keller_witness"] is None]
    report("7", not bad, start,
           f"valid violation witness for all {len(failures)} tower failures")
    assert not bad, [f["spec"] for f in bad[:5]]


def _cyclotomic_product_multisets():
    for s in range(1, 81):
        if euler_phi(s) <= 60:
            yield (s,)
    for s in range(1, 25):
        for t in range(s, 25):
            if euler_phi(s) + euler_phi(t) <= 60:
                yield (s, t)
    for n in range(1, 61):
        yield tuple(divisors(n))
    rng = random.Random(20240917)
    made = 0
    while made < 200:
        k = rng.randint(2, 6)
        ms = tuple(sorted(rng.randint(1, 40) for _ in range(k)))
        if sum(euler_phi(s) for s in ms) <= 60:
            made += 1
            yield ms


def test_criterion_08_power_sum_oracles():
    start = time.perf_counter()
    violations = []

    # (a) Newton values equal Ramanujan totals on cyclotomic products
    products = 0
    for ms in _cyclotomic_product_multisets():
        prod = poly_mul(*(cyclotomic(s) for s in ms))
        series = newton_power_sums(prod, 40)
        for j in range(1, 41):
            if series[j - 1] != sum(ramanujan_sum(s, j) for s in ms):
                violations.append(("ramanujan", ms, j))
        products += 1

    # (b) gap identities on 1000 random 0/1 monic polynomials
    rng = random.Random(424242)
    for _ in range(1000):
        deg = rng.randint(2, 40)
        second = rng.randint(0, deg - 1)
        exponents = {deg, second} | set(rng.sample(range(second + 1), rng.randint(0, second)))
        gap = deg - second
        series = power_sums(sorted(exponents), gap)
        if any(series[j - 1] != 0 for j in range(1, gap)) or series[gap - 1] != -gap:
            violations.append(("gap", tuple(sorted(exponents))))

    # (c) numeric root summation to 1e-6 for degree <= 30
    rng = random.Random(3131)
    for _ in range(200):
        deg = rng.randint(2, 30)
        exps = sorted(rng.sample(range(deg), rng.randint(1, deg))) + [deg]
        roots = np.roots(list(reversed(char_poly(exps).coeffs)))
        series = power_sums(exps, 12)
        for j in range(1, 13):
            if abs(sum(r**j for r in roots) - series[j - 1]) > NUMERIC_TOLERANCE:
                violations.append(("numeric", tuple(exps), j))

    report("8", not violations, start,
           f"newton==ramanujan on {products} products; gap identities x1000; numeric to 1e-6")
    assert not violations, violations[:5]


def test_criterion_09_prime_power_family():
    from fractions import Fraction

    start = time.perf_counter()
    violations = []
    cases = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
             8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3)}
    for q, (p, alpha) in cases.items():
        step = p ** (alpha - 1)
        a = IntSet(range(0, p * step, step))
        if classify_prime_power_cyclotomic(a) != (p, alpha):
            violations.append((q, "classification"))
        cert = find_tiling(a)
        if cert != TilingCertificate(q, range(step)) or not verify_tiling(a, cert):
            violations.append((q, "certificate"))
        # the grid {j/q} restricted to j = 1..p-1: exactly the full-size
        # spectrum for this set (p elements, so p-1 values)
        spectrum = RationalSpectrum(Fraction(j, q) for j in range(1, p))
        if len(spectrum) != a.size - 1 or not verify_spectrum(a.elements, spectrum):
            violations.append((q, "spectrum"))
    report("9", not violations, start,
           f"classified, tiled, spectrum-verified for {len(cases)} prime powers")
    assert not violations, violations


def test_criterion_10_lattice_span(three_factor_family):
    start = time.perf_counter()
    violations = []
    checked = 0
    for f in three_factor_family:
        if f["set_report"] is None:
            continue
        spec = ProductSpec.parse(f["spec"])
        basis = echelon(w_basis(spec))
        steps = spec.steps
        for w in itertools.product(range(-5, 6), repeat=3):
            if sum(a * b for a, b in zip(w, steps)) == 0:
                checked += 1
                if not in_lattice(basis, w):
                    violations.append((str(spec), w))
    report("10", not violations, start,
           f"{checked} orthogonal vectors (|w_i|<=5) all inside the basis span")
    assert not violations, violations[:5]


def szabo_tiles(primes: tuple[int, int, int]) -> tuple[list[int], set[tuple[int, ...]]]:
    """Szabo's tiles of period M = (p1 p2 p3)**2, and the complement they share.

    With g_i = M / p_i**2, of order p_i**2 in Z_M, the box
    A = {sum a_i g_i : a_i < p_i} and B = {sum b_i p_i g_i : b_i < p_i}
    give A + B = Z_M.  A column of B in direction i (b_i free, the other
    digits fixed) plus A is invariant under adding g_i, so shifting
    pairwise disjoint columns by their g_i keeps A a complement.  One
    column per direction, in every disjoint choice, gives the tiles.
    """
    period = math.prod(primes) ** 2
    g = [period // p**2 for p in primes]
    digits = list(itertools.product(*(range(p) for p in primes)))
    box = sorted(sum(a * gi for a, gi in zip(d, g)) for d in digits)

    def column(i, base):
        return {base[:i] + (t,) + base[i + 1:] for t in range(primes[i])}

    columns = [[column(i, d) for d in digits if d[i] == 0] for i in range(3)]
    tiles = set()
    for chosen in itertools.product(*columns):
        if any(c & d for c, d in itertools.combinations(chosen, 2)):
            continue
        shift = {d: g[i] for i, c in enumerate(chosen) for d in c}
        tiles.add(tuple(sorted(
            (sum(b * p * gi for b, p, gi in zip(d, primes, g)) + shift.get(d, 0)) % period
            for d in digits)))
    return box, tiles


def test_criterion_11_szabo_tiles():
    # #A = 30 has three primes, the open case of Coven-Meyerowitz B2: these
    # tiles come with their complement, so the gate needs no tiling search
    start = time.perf_counter()
    box, tiles = szabo_tiles((2, 3, 5))
    cert = TilingCertificate(900, box)
    violations = [
        t for t in tiles
        if len(t) != 30 or not verify_tiling(IntSet(t), cert)
        or not (check_t1(IntSet(t)) and check_t2(IntSet(t)))
    ]
    ok = len(tiles) == 240 and not violations
    report("11", ok, start,
           f"{len(tiles)} Szabo tiles of period 900 tile with the box and satisfy t1 and t2")
    assert len(tiles) == 240
    assert not violations, violations[:3]
