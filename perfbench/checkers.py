"""Output checks that share no code with tilecert's own verifiers.

Each check returns None when the output is right and a short reason when
it is not.  Verdicts are compared with reference.json; certificates are
checked on their own terms, never byte for byte, so a later version that
returns a different valid complement, spectrum or ordering still passes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import permutations

from seeded import expand_product, set_key

SPECTRUM_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def exact_cover(elements, tiling: dict) -> str | None:
    """A + B hits every residue mod M exactly once."""
    period, complement = tiling["period"], tiling["complement"]
    if period < 1 or len(elements) * len(complement) != period:
        return f"period {period} is not #A * #B"
    hits = [0] * period
    for a in elements:
        for b in complement:
            hits[(a + b) % period] += 1
    if any(h != 1 for h in hits):
        return "A + B does not cover Z mod M exactly once"
    return None


def spectrum_ok(elements, thetas: list[str]) -> str | None:
    """#A - 1 distinct values in (0, 1), and |A(e^(2 pi i d))| ~ 0 for every difference d.

    Differences are reduced exactly first, so each distinct one is
    evaluated once in floating point.
    """
    points = [Fraction(0)] + [Fraction(t) for t in thetas]
    if len(points) != len(elements):
        return f"spectrum has {len(points) - 1} values for a set of {len(elements)}"
    if any(not 0 < t < 1 for t in points[1:]) or len(set(points)) != len(points):
        return "spectrum values are not distinct values in (0, 1)"
    scale = math.lcm(*(t.denominator for t in points))
    ints = [int(t * scale) for t in points]
    diffs = {(u - v) % scale for i, u in enumerate(ints) for v in ints[:i]}
    for d in diffs:
        z = cmath.exp(2j * math.pi * d / scale)
        if abs(sum(z ** a for a in elements)) > SPECTRUM_TOLERANCE * len(elements):
            return f"A(x) does not vanish at exp(2 pi i {d}/{scale})"
    return None


def tower_chain_ok(factors, order_1based) -> str | None:
    """The ordering is a permutation and satisfies the tower chain condition."""
    order = [i - 1 for i in order_1based]
    if sorted(order) != list(range(len(factors))):
        return f"tower order {order_1based} is not a permutation"
    if not _chain_holds(factors, order):
        return f"tower order {order_1based} breaks the chain condition"
    return None


def _chain_holds(factors, order) -> bool:
    for k, i in enumerate(order):
        m, n = factors[i]
        for j in order[k + 1:]:
            if (factors[j][0] // math.gcd(m, factors[j][0])) % n:
                return False
    return True


def tower_exists(factors) -> bool:
    """Permutation oracle: some ordering satisfies the chain (used when recording)."""
    return any(_chain_holds(factors, order) for order in permutations(range(len(factors))))


def keller_ok(factors, vector) -> str | None:
    """Nonzero, orthogonal to the steps, and no coordinate a nonzero multiple of its length."""
    if len(vector) != len(factors) or not any(vector):
        return "Keller witness is zero or has the wrong length"
    if sum(w * m for w, (m, _) in zip(vector, factors)) != 0:
        return "Keller witness is not orthogonal to the steps"
    if any(w != 0 and w % n == 0 for w, (_, n) in zip(vector, factors)):
        return "Keller witness has a coordinate divisible by its length"
    return None


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def set_verdict(report: dict) -> dict:
    """The verdict fields of an analyze report, as recorded in reference.json."""
    if report["tiling"] is not None:
        tiles = "yes"
    elif report["tiling_undecided"]:
        tiles = "undecided"
    else:
        tiles = "no"
    return {
        "inventory": report["cyclotomic_divisors"],
        "t1": report["t1"],
        "t2": report["t2"],
        "granville_bound": report["granville_bound"],
        "tiles": tiles,
        "spectrum": report["spectrum"] is not None,
    }


def check_set_report(elements, report: dict, expected: dict) -> str | None:
    """An analyze report: the input echoed, the verdicts, and both certificates."""
    if report.get("set") != list(elements):
        return "report is for another set"
    got = set_verdict(report)
    if got != expected:
        diff = sorted(k for k in expected if got.get(k) != expected[k])
        return f"verdict differs from reference on {diff}"
    if report["tiling"] is not None:
        bad = exact_cover(elements, report["tiling"])
        if bad:
            return bad
    if report["spectrum"] is not None:
        return spectrum_ok(elements, report["spectrum"])
    return None


def parse_factors(spec: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in tok.split(":")) for tok in spec.split(",")]


def product_elements(factors) -> list[int] | None:
    coeffs = expand_product(factors)
    if any(c > 1 for c in coeffs):
        return None
    return [i for i, c in enumerate(coeffs) if c]


def check_product(spec: str, report: dict, search: list[str] | None, expected: dict) -> str | None:
    """A product report plus the spectrum search on the product set."""
    factors = parse_factors(spec)
    if [(f["step"], f["length"]) for f in report["factors"]] != factors:
        return "report is for another spec"
    elements = product_elements(factors)
    if report["zero_one"] != (elements is not None) or report["zero_one"] != expected["zero_one"]:
        return "zero_one verdict is wrong"
    tower = report["tower_order"]
    if (tower is not None) != expected["tower"]:
        return "tower verdict differs from reference"
    if tower is not None:
        bad = tower_chain_ok(factors, tower)
        if bad or report["keller_witness"] is not None:
            return bad or "Keller witness reported although the tower holds"
    else:
        if report["keller_witness"] is None:
            return "tower fails but no Keller witness"
        bad = keller_ok(factors, report["keller_witness"])
        if bad:
            return bad
    if elements is None:
        if report["set_report"] is not None or search is not None:
            return "set-level results on a product that is not 0/1"
        return None
    if report["set_report"] is None:
        return "0/1 product without a set report"
    bad = check_set_report(elements, report["set_report"], expected["set"])
    if bad:
        return bad
    if (search is not None) != expected["search_spectrum"]:
        return "spectrum search verdict differs from reference"
    if search is not None:
        return spectrum_ok(elements, search)
    return None


def check_batch(chunk, summary: dict, reference: dict) -> str | None:
    """A run_batch summary over one chunk of subsets(14, 6), against the recorded violations."""
    if summary.get("family") != "subsets" or summary.get("check") != "granville-period":
        return "summary is for another family or check"
    if summary.get("instances") != len(chunk):
        return f"summary counts {summary.get('instances')} instances, expected {len(chunk)}"
    recorded = set(reference["violations"])
    expected = sorted(set_key(c) for c in chunk if set_key(c) in recorded)
    got = sorted(set_key(v["set"]) for v in summary.get("violations", []))
    if got != expected or summary.get("violation_count") != len(expected):
        return f"violations {got} differ from the recorded {expected}"
    return None
