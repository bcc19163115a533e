"""Batch enumeration of desk-scale families and the invariant checks on them.

A family is an iterable of instances (sets or product specs); a check
maps one instance to either None (clean, or not applicable) or a
violation record.  Facts about an instance are computed once and every
check judges from the facts, so the command-line batch runner and the
verification suites share a single implementation of each property.
The facts of a set are the dict ``report.analyze_set`` returns, the
one ``tilecert analyze`` prints, plus the brute-force certificate; the
facts of a product spec are the dict ``report.product_report`` returns,
the one ``tilecert product`` prints, plus the spec and the outcome of
the spectrum search.  ``FAMILIES`` lists each family once: its
generator, parameters with least values and size (read by
``build_family``), and checks (read by ``run_batch``).

The facts hold certificates only from producers that verify what they
return and raise ``CertificateError`` otherwise (the tiling search, the
spectrum construction and search, the Keller witness), so no fact is
checked here a second time.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Iterable, Iterator

from .arith import factorize
from .report import analyze_set, cert_dict, product_report
from .spectra import spectrum_search
from .tileset import IntSet
from .tiler import brute_force_tiling
from .products import ProductSpec

# About 10x subsets(18, 7), and over a minute at some 15,000 sets a second
MAX_INSTANCES = 1_000_000

# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def subsets(max_elem: int, max_size: int) -> Iterator[IntSet]:
    """All subsets of {0, ..., max_elem} with between 2 and max_size elements."""
    for size in range(2, min(max_size, max_elem + 1) + 1):
        for combo in itertools.combinations(range(max_elem + 1), size):
            yield IntSet(combo)


def subsets_count(max_elem: int, max_size: int) -> int:
    """How many sets ``subsets`` yields; past MAX_INSTANCES, a lower bound (the exact sum is slow)."""
    total = 0
    for k in range(2, min(max_size, max_elem + 1) + 1):
        total += math.comb(max_elem + 1, k)
        if total > MAX_INSTANCES:
            break
    return total


def two_factor_specs(max_m: int, max_n: int) -> Iterator[ProductSpec]:
    """All two-factor specs with steps up to max_m and lengths 2..max_n."""
    for m1, m2 in itertools.product(range(1, max_m + 1), repeat=2):
        for n1, n2 in itertools.product(range(2, max_n + 1), repeat=2):
            yield ProductSpec([(m1, n1), (m2, n2)])


def three_factor_specs(max_m: int) -> Iterator[ProductSpec]:
    """All three-factor specs with steps up to max_m and lengths 2 or 3."""
    for ms in itertools.product(range(1, max_m + 1), repeat=3):
        for ns in itertools.product((2, 3), repeat=3):
            yield ProductSpec(zip(ms, ns))


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


def subset_facts(a: IntSet) -> dict:
    """One pass of the pipeline over a single set.

    The ``analyze_set`` dict plus "brute": the certificate of the search
    over every period up to 2*(max(A) - min(A)) + 2, in the same form,
    or None.
    """
    facts = analyze_set(a)
    facts["brute"] = cert_dict(brute_force_tiling(a))
    return facts


def product_facts(spec: ProductSpec) -> dict:
    """One pass of the pipeline over a single product spec.

    The ``product_report`` dict plus "spec", the spec as text, and
    "spectrum_search": whether the clique search finds a full spectrum
    of the expanded set, for two-factor 0/1 specs only, else None.
    """
    facts = product_report(spec)
    facts["spec"] = str(spec)
    sr = facts["set_report"]
    found = None
    if sr is not None and len(spec) == 2:
        found = spectrum_search(IntSet(sr["set"])) is not None
    facts["spectrum_search"] = found
    return facts


# ---------------------------------------------------------------------------
# Judgments: facts -> violation record or None
# ---------------------------------------------------------------------------


def judge_t1t2_implies_tiling(f: dict) -> dict | None:
    if f["t1"] and f["t2"] and f["tiling"] is None:
        return {"set": f["set"], "reason": "t1 and t2 hold but no tiling found"}
    return None


def judge_tiling_implies_t1(f: dict) -> dict | None:
    if f["tiling"] is not None and not f["t1"]:
        return {"set": f["set"], "reason": "tiles but t1 fails"}
    return None


def judge_tiling_implies_t2(f: dict) -> dict | None:
    # Only claimed when #A has at most two distinct prime factors.
    if len(factorize(f["size"])) <= 2 and f["tiling"] is not None and not f["t2"]:
        return {"set": f["set"], "reason": "tiles but t2 fails"}
    return None


def judge_granville_agreement(f: dict) -> dict | None:
    restricted = f["tiling"] is not None
    unrestricted = f["brute"] is not None
    if restricted != unrestricted:
        return {
            "set": f["set"],
            "reason": f"bound-restricted search found={restricted}, brute force found={unrestricted}",
        }
    return None


def judge_spectrum_formula(f: dict) -> dict | None:
    if not (f["t1"] and f["t2"]):
        return None
    spectrum = f["spectrum"]
    size = None if spectrum is None else len(spectrum)
    if size != f["size"] - 1:
        return {
            "set": f["set"],
            "reason": f"constructed spectrum size={size}, verified={spectrum is not None}",
        }
    return None


def judge_two_factor_equivalence(f: dict) -> dict | None:
    sr = f["set_report"]
    if sr is None:
        return None
    outcomes = {
        "two_factor_condition": f["two_factor_condition"],
        "t1_and_t2": sr["t1"] and sr["t2"],
        "tiles": sr["tiling"] is not None,
        "spectrum": f["spectrum_search"],
    }
    if len(set(outcomes.values())) != 1:
        return {"spec": f["spec"], **outcomes}
    return None


def judge_tower_equivalence(f: dict) -> dict | None:
    sr = f["set_report"]
    if sr is None:
        return None
    outcomes = {
        "tower": f["tower_order"] is not None,
        "t1_and_t2": sr["t1"] and sr["t2"],
        "tiles": sr["tiling"] is not None,
    }
    if len(set(outcomes.values())) != 1:
        return {"spec": f["spec"], **outcomes}
    return None


def judge_keller_witness(f: dict) -> dict | None:
    if f["set_report"] is None or f["tower_order"] is not None:
        return None
    if f["keller_witness"] is None:
        return {"spec": f["spec"], "reason": "no valid violation witness"}
    return None


# ---------------------------------------------------------------------------
# Batch runner
# ---------------------------------------------------------------------------

# name -> (generator, {parameter: least value} in argument order, checks, size)
FAMILIES = {
    "subsets": (subsets, {"max_elem": 1, "max_size": 2}, {
        "t1t2-implies-tiling": judge_t1t2_implies_tiling,
        "tiling-implies-t1": judge_tiling_implies_t1,
        "tiling-implies-t2": judge_tiling_implies_t2,
        "granville-period": judge_granville_agreement,
        "spectrum-formula": judge_spectrum_formula,
    }, subsets_count),
    "two-factor": (two_factor_specs, {"m": 1, "n": 2}, {
        "two-factor-equivalence": judge_two_factor_equivalence,
    }, lambda m, n: m * m * (n - 1) ** 2),
    "three-factor": (three_factor_specs, {"m": 1}, {
        "tower-equivalence": judge_tower_equivalence,
        "keller-witness": judge_keller_witness,
    }, lambda m: 8 * m**3),
}


def _family(kind: str) -> tuple:
    """The ``FAMILIES`` entry of kind; an unknown kind is a ValueError."""
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown family {kind!r}") from None


def build_family(kind: str, params: dict[str, int]) -> Iterator:
    """The instances of family kind; a bad kind or parameter, or a size over MAX_INSTANCES, is a ValueError."""
    make, least, _, count = _family(kind)
    unknown = params.keys() - least
    if unknown:
        raise ValueError(f"{kind} family takes no {sorted(unknown)}, only {list(least)}")
    missing = least.keys() - params.keys()
    if missing:
        raise ValueError(f"{kind} family needs {sorted(missing)}")
    for name, low in least.items():
        if params[name] < low:
            raise ValueError(f"{kind} family needs {name} at least {low}, got {params[name]}")
    args = [params[name] for name in least]
    size = count(*args)
    if size > MAX_INSTANCES:
        raise ValueError(f"{kind} family has more than {MAX_INSTANCES:,} instances, the batch limit")
    return make(*args)


def _judge(judge, inst: IntSet | ProductSpec) -> dict | None:
    # Look the facts functions up by name at call time, so a wrapped or
    # patched module attribute is the one that runs.
    return judge(subset_facts(inst) if isinstance(inst, IntSet) else product_facts(inst))


def run_batch(
    family: str,
    instances: Iterable,
    check: str,
    workers: int = 1,
) -> dict:
    """Run one named check over a family; returns a deterministic summary dict.

    A worker count below 1 is a ValueError; one above the CPU count is
    clamped to it.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    judge = _family(family)[2].get(check)
    if judge is None:
        raise ValueError(f"unknown check {check!r} for family {family!r}")
    job = functools.partial(_judge, judge)
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            results = pool.map(job, instances, chunksize=64)
    else:
        results = list(map(job, instances))
    violations = [r for r in results if r is not None]
    return {
        "family": family,
        "check": check,
        "instances": len(results),
        "violations": violations,
        "violation_count": len(violations),
    }
