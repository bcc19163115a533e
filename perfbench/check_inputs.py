"""Check that the seeded input generators are deterministic and within their limits.

    python3 perfbench/check_inputs.py [seed ...]

For each seed (default 1 2 3) the inputs of every workload are generated
in two fresh interpreters with different hash seeds and must match byte
for byte; different seeds must give different inputs; and every input
must meet its workload's size limits and have a verdict in reference.json.
Exits 1 and names the first failure otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import seeded
from checkers import parse_factors, tower_exists

ROUNDS = 8
PASSES = 2


def inputs(seed: int) -> dict:
    """The first ROUNDS rounds (PASSES passes) of every workload, as plain data."""
    analyze = seeded.analyze_rounds(seed, seeded.analyze_pool())
    products = seeded.product_rounds(seed, seeded.products_pool())
    return {
        "analyze-cold": [[list(s) for s in next(analyze)] for _ in range(ROUNDS)],
        "products": [next(products) for _ in range(ROUNDS)],
        "batch-subsets": [[[list(c) for c in chunk] for chunk in seeded.batch_chunks(seed, p)]
                          for p in range(PASSES)],
    }


def generated_bytes(seed: int, hash_seed: str) -> bytes:
    """inputs(seed) serialized by a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    code = f"import json, check_inputs; print(json.dumps(check_inputs.inputs({seed})))"
    return subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                          capture_output=True, check=True, timeout=120).stdout


def limit_errors(data: dict, reference: dict) -> list[str]:
    errors = []
    lo, hi = seeded.ANALYZE_BANDS[0][0], seeded.ANALYZE_BANDS[-1][1]
    fixed = [list(s) for s in seeded.ANALYZE_FIXED]
    for round_ in data["analyze-cold"]:
        if len(round_) != len(seeded.ANALYZE_BANDS) + len(fixed) or any(s not in round_ for s in fixed):
            errors.append(f"analyze-cold round has the wrong shape: {round_}")
        for s in round_:
            key = seeded.set_key(s)
            if s in fixed:
                continue
            if not (seeded.ANALYZE_SIZES[0] <= len(s) <= seeded.ANALYZE_SIZES[1]
                    and lo <= s[-1] <= hi and s == sorted(set(s)) and s[0] >= 0):
                errors.append(f"analyze-cold set out of limits: {key}")
            if key not in reference["analyze"]:
                errors.append(f"analyze-cold set without a verdict: {key}")
    for round_ in data["products"]:
        if len(round_) != len(seeded.PRODUCT_RANDOM_FACTORS) + len(seeded.PRODUCT_TOWER_SIZES):
            errors.append(f"products round has the wrong shape: {round_}")
        for spec in round_:
            factors = parse_factors(spec)
            steps_ok = all(1 <= m for m, _ in factors)
            lengths_ok = all(seeded.PRODUCT_LENGTHS[0] <= n <= seeded.PRODUCT_LENGTHS[1]
                             for _, n in factors)
            size = math.prod(n for _, n in factors)
            tower = size in seeded.PRODUCT_TOWER_SIZES and tower_exists(factors) and \
                max(seeded.expand_product(factors)) == 1
            random_ok = 2 <= len(factors) <= 8 and all(m <= seeded.PRODUCT_RANDOM_STEPS[1]
                                                       for m, _ in factors)
            if not (steps_ok and lengths_ok and (tower or random_ok)):
                errors.append(f"products spec out of limits: {spec}")
            if spec not in reference["products"]:
                errors.append(f"products spec without a verdict: {spec}")
    family = sorted(seeded.batch_instances())
    for chunks in data["batch-subsets"]:
        flat = [tuple(c) for chunk in chunks for c in chunk]
        if sorted(flat) != family or any(len(chunk) > seeded.BATCH_CHUNK for chunk in chunks):
            errors.append("batch-subsets pass is not subsets(14, 6) in chunks")
    return errors


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or [1, 2, 3]
    with open(Path(__file__).with_name("reference.json")) as fh:
        reference = json.load(fh)
    errors = []
    first = {}
    for seed in seeds:
        a, b = generated_bytes(seed, "1"), generated_bytes(seed, "2")
        if a != b:
            errors.append(f"seed {seed}: two interpreters generated different inputs")
        first[seed] = json.loads(a)
        errors += [f"seed {seed}: {e}" for e in limit_errors(first[seed], reference)]
    for s1, s2 in itertools.combinations(seeds, 2):
        for workload in first[s1]:
            if first[s1][workload] == first[s2][workload]:
                errors.append(f"seeds {s1} and {s2} give the same {workload} inputs")
    for e in errors:
        print(e)
    print(f"{'FAIL' if errors else 'OK'}: seeds {seeds}, {ROUNDS} rounds and {PASSES} passes each")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
