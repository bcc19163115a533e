"""Seeded inputs for the three workloads.

Each workload draws from a fixed pool that is built from POOL_SEED alone,
so reference.json can hold a verdict for every input any run can see.
The run seed only decides which pool entries each round uses.  A run is a
sequence of rounds with the same category mix in the same order, so a run
that stops after any whole round has the same mix of input sizes whatever
its seed, and the operations at one position of every round are alike
(run.py takes the median time at each position).

This module imports nothing from tilecert: the inputs are plain tuples
and spec strings, built here without the library under test.
"""

from __future__ import annotations

import itertools
import math
import random

POOL_SEED = 2002

# analyze-cold: bands of the maximum element, one set from each per round
# (five at 28, the round's median), plus the two fixed ROADMAP sets.  A
# round has an odd number of operations, and the bands up to 28, where the
# cost is mostly the interpreter, the import and the CLI, put each round's
# median among sets of one degree.  The top band and the fixed sets, all
# of degree 240-250, make the slowest fifth of each round sets of similar
# cost, so op_tail_ms stays within that class whenever a run has at least
# four rounds.  The other bands are narrow for the same reason: a round's
# cost should depend on the seed as little as possible.
ANALYZE_BANDS = (
    (10, 11), (12, 13), (14, 15), (16, 18), (19, 21), (22, 25),
    (28, 28), (28, 28), (28, 28), (28, 28), (28, 28),
    (40, 50), (75, 85), (120, 130), (240, 250),
)
ANALYZE_POOL_BANDS = tuple(dict.fromkeys(ANALYZE_BANDS))
ANALYZE_FIXED = ((0, 1, 240), (0, 1, 120, 240))
ANALYZE_SIZES = (3, 10)
ANALYZE_RANDOM_PER_BAND = 24
ANALYZE_TILING_PER_BAND = 12
ANALYZE_TILING_PER_ROUND = 4
MAX_SHIFT = 4

# products: one random spec per entry of PRODUCT_RANDOM_FACTORS (8 twice,
# the count where a failing tower scans all 8! orderings twice) and one
# tower spec per entry of PRODUCT_TOWER_SIZES.  As for analyze-cold, a
# round has an odd number of operations with one size class at its median
# (24 elements, five times), and its slowest ones (64 twice and 128) keep
# op_tail_ms within the 64-element class whenever a run has four to ten
# rounds.
PRODUCT_RANDOM_FACTORS = (2, 3, 4, 5, 6, 7, 8, 8)
PRODUCT_RANDOM_STEPS = (1, 6)
PRODUCT_LENGTHS = (2, 4)
PRODUCT_TOWER_SIZES = (8, 12, 16, 24, 24, 24, 24, 24, 32, 48, 64, 64, 128)
PRODUCT_PER_CATEGORY = 8
# Eight 1:2 factors: not 0/1, the tower fails after all 8! orderings.
EIGHT_HALVES = ",".join(["1:2"] * 8)

# batch-subsets: the library family subsets(14, 6), fed to run_batch in
# chunks so each call is one timed operation.
BATCH_MAX_ELEM = 14
BATCH_MAX_SIZE = 6
BATCH_CHUNK = 43  # 9933 = 231 * 43


def set_key(elements) -> str:
    return ",".join(str(x) for x in elements)


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _random_set(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    top = rng.randint(lo, hi)
    size = rng.randint(*ANALYZE_SIZES)
    return tuple(sorted({0, top, *rng.sample(range(1, top), size - 2)}))


def tower_factors(lengths, multipliers) -> list[tuple[int, int]]:
    """Factors (m_i, n_i) in tower order: m_1 = 1, m_(i+1) = c_i * m_i * n_i."""
    factors = []
    step = 1
    for n, c in zip(lengths, (1,) + tuple(multipliers)):
        step *= c
        factors.append((step, n))
        step *= n
    return factors


def expand_product(factors) -> list[int]:
    """Coefficients of the product of the progression polynomials."""
    coeffs = [1]
    for m, n in factors:
        out = [0] * (len(coeffs) + m * (n - 1))
        for i, c in enumerate(coeffs):
            if c:
                for k in range(n):
                    out[i + k * m] += c
        coeffs = out
    return coeffs


def _tiling_set(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    """A scaled tower product set with 3-10 elements, shifted so its max is in [lo, hi].

    The shift is at most MAX_SHIFT, so the degree, which sets the cost,
    stays close to the band.
    """
    shapes = [s for k in (1, 2, 3) for s in itertools.product(range(2, 6), repeat=k)
              if ANALYZE_SIZES[0] <= math.prod(s) <= ANALYZE_SIZES[1]]
    while True:
        lengths = rng.choice(shapes)
        factors = tower_factors(lengths, [rng.randint(1, 6) for _ in lengths[1:]])
        base = sum(m * (n - 1) for m, n in factors)
        scales = range(max(1, -(-(lo - MAX_SHIFT) // base)), hi // base + 1)
        if not scales:
            continue
        g = rng.choice(scales)
        shifts = range(max(0, lo - g * base), min(MAX_SHIFT, hi - g * base) + 1)
        if shifts:
            t = rng.choice(shifts)
            coeffs = expand_product([(m * g, n) for m, n in factors])
            return tuple(i + t for i, c in enumerate(coeffs) if c)


def analyze_pool() -> dict:
    """{"random": [[set, ...] per pool band], "tiling": [...], "fixed": [...]}."""
    rng = random.Random(f"analyze-cold-pool:{POOL_SEED}")
    random_sets, tiling_sets = [], []
    for lo, hi in ANALYZE_POOL_BANDS:
        random_sets.append(_distinct(lambda: _random_set(rng, lo, hi), ANALYZE_RANDOM_PER_BAND))
        tiling_sets.append(_distinct(lambda: _tiling_set(rng, lo, hi), ANALYZE_TILING_PER_BAND))
    return {"random": random_sets, "tiling": tiling_sets, "fixed": [list(s) for s in ANALYZE_FIXED]}


def _distinct(draw, count: int, tries: int = 100_000) -> list:
    seen: dict = {}
    for _ in range(tries):
        item = draw()
        seen.setdefault(item, None)
        if len(seen) == count:
            return [list(x) if isinstance(x, tuple) else x for x in seen]
    raise RuntimeError("pool draw found too few distinct inputs")


def spec_str(factors) -> str:
    return ",".join(f"{m}:{n}" for m, n in factors)


def _random_spec(rng: random.Random, k: int) -> str:
    return spec_str((rng.randint(*PRODUCT_RANDOM_STEPS), rng.randint(*PRODUCT_LENGTHS))
                    for _ in range(k))


def _tower_spec(rng: random.Random, size: int) -> str:
    """A tower spec with the given number of elements, factors shuffled.

    Every multiplier is 1, so the product set is {0, ..., size - 1} and
    specs of one size cost the same up to the ordering search; a larger
    multiplier would double the degree and, at 128 elements, the cost.
    """
    shapes = [s for k in range(1, 8) for s in itertools.product(range(2, 5), repeat=k)
              if math.prod(s) == size]
    factors = tower_factors(rng.choice(shapes), [1] * 7)
    rng.shuffle(factors)
    return spec_str(factors)


def products_pool() -> dict:
    """{"random": [[spec, ...] per factor count], "tower": [[spec, ...] per size]}."""
    rng = random.Random(f"products-pool:{POOL_SEED}")
    random_specs = [_distinct(lambda: _random_spec(rng, k), PRODUCT_PER_CATEGORY)
                    for k in sorted(set(PRODUCT_RANDOM_FACTORS))]
    random_specs[-1][0] = EIGHT_HALVES
    tower_specs = [_distinct(lambda: _tower_spec(rng, size), PRODUCT_PER_CATEGORY)
                   for size in sorted(set(PRODUCT_TOWER_SIZES))]
    return {"random": random_specs, "tower": tower_specs}


def batch_instances() -> list[tuple[int, ...]]:
    """The elements of subsets(14, 6), enumerated without the library."""
    return [combo for size in range(2, BATCH_MAX_SIZE + 1)
            for combo in itertools.combinations(range(BATCH_MAX_ELEM + 1), size)]


# ---------------------------------------------------------------------------
# Seeded schedules
# ---------------------------------------------------------------------------


def _cycler(rng: random.Random, items: list):
    """Endless seeded walk over items: each pass is a fresh permutation."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def analyze_rounds(seed: int, pool: dict):
    """Yield rounds: one set per band entry (four of them tiling sets) plus both fixed sets."""
    rng = random.Random(f"analyze-cold:{seed}")
    randoms = [_cycler(rng, sets) for sets in pool["random"]]
    tilings = [_cycler(rng, sets) for sets in pool["tiling"]]
    entries = [ANALYZE_POOL_BANDS.index(band) for band in ANALYZE_BANDS]
    while True:
        tiled = set(rng.sample(range(len(entries)), ANALYZE_TILING_PER_ROUND))
        ops = [tuple(next(tilings[b] if i in tiled else randoms[b])) for i, b in enumerate(entries)]
        yield ops + [tuple(s) for s in pool["fixed"]]


def product_rounds(seed: int, pool: dict):
    """Yield rounds: a random spec per factor-count entry and a tower spec per size entry."""
    rng = random.Random(f"products:{seed}")
    counts = sorted(set(PRODUCT_RANDOM_FACTORS))
    randoms = {k: _cycler(rng, pool["random"][i]) for i, k in enumerate(counts)}
    sizes = sorted(set(PRODUCT_TOWER_SIZES))
    towers = {n: _cycler(rng, pool["tower"][i]) for i, n in enumerate(sizes)}
    while True:
        ops = [next(randoms[k]) for k in PRODUCT_RANDOM_FACTORS]
        yield ops + [next(towers[n]) for n in PRODUCT_TOWER_SIZES]


def batch_chunks(seed: int, pass_index: int) -> list[list[tuple[int, ...]]]:
    """One pass over subsets(14, 6) in a seeded order, cut into run_batch calls."""
    rng = random.Random(f"batch-subsets:{seed}:{pass_index}")
    order = batch_instances()
    rng.shuffle(order)
    return [order[i:i + BATCH_CHUNK] for i in range(0, len(order), BATCH_CHUNK)]
