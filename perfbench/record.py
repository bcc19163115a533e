"""Record the reference verdicts for every input the workloads can draw.

    python3 perfbench/record.py        # rewrites perfbench/reference.json

The verdicts are recorded once, when the benchmark is defined, and later
versions of tilecert must reproduce them; the benchmark compares verdicts,
never certificate bytes.  Each verdict is cross-checked while recording:

- tiling: brute_force_tiling agrees for sets with maximum <= 20, every
  tower-built set tiles, and every certificate passes the exact-cover check;
- towers: the permutation oracle in checkers agrees with the report;
- spectra: spectrum_search finds a spectrum whenever construct_spectrum
  does, and every spectrum passes the numeric check;
- batch: subsets(14, 6) from the library is exactly seeded.batch_instances().
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checkers  # noqa: E402
import seeded  # noqa: E402
from tilecert import cli  # noqa: E402
from tilecert.families import run_batch, subsets  # noqa: E402
from tilecert.products import ProductSpec  # noqa: E402
from tilecert.report import product_report  # noqa: E402
from tilecert.spectra import spectrum_search  # noqa: E402
from tilecert.tiler import brute_force_tiling  # noqa: E402
from tilecert.tileset import IntSet  # noqa: E402

BRUTE_FORCE_MAX = 20


class RecordError(RuntimeError):
    pass


def _fraction_strings(spectrum) -> list[str] | None:
    return None if spectrum is None else [f"{t.numerator}/{t.denominator}" for t in spectrum]


def _cross_check_set(elements, report: dict, must_tile: bool) -> None:
    a = IntSet(elements)
    verdict = checkers.set_verdict(report)
    if must_tile and verdict["tiles"] != "yes":
        raise RecordError(f"{elements}: built from a tower spec but does not tile")
    if elements[-1] - elements[0] <= BRUTE_FORCE_MAX and verdict["tiles"] != "undecided":
        if (brute_force_tiling(a) is not None) != (verdict["tiles"] == "yes"):
            raise RecordError(f"{elements}: brute force disagrees on tiling")
    search = _fraction_strings(spectrum_search(a))
    if verdict["spectrum"] and search is None:
        raise RecordError(f"{elements}: constructed spectrum but the search found none")
    for thetas in (report["spectrum"], search):
        if thetas is not None and checkers.spectrum_ok(elements, thetas):
            raise RecordError(f"{elements}: spectrum fails the numeric check")
    if report["tiling"] is not None and checkers.exact_cover(elements, report["tiling"]):
        raise RecordError(f"{elements}: tiling certificate fails the exact-cover check")


def record_analyze() -> dict:
    pool = seeded.analyze_pool()
    tiling = {seeded.set_key(s) for group in pool["tiling"] for s in group}
    sets = [s for group in pool["random"] + pool["tiling"] for s in group] + pool["fixed"]
    verdicts = {}
    for elements in sets:
        started = time.perf_counter()
        key = seeded.set_key(elements)
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.main(["analyze", key])
        if rc != 0:
            raise RecordError(f"analyze {key} exited with {rc}")
        report = json.loads(out.getvalue())
        _cross_check_set(list(elements), report, key in tiling)
        verdicts[key] = checkers.set_verdict(report)
        _progress(key, started)
    return verdicts


def _progress(key: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > 1:
        print(f"  {key}: {elapsed:.1f} s", file=sys.stderr, flush=True)


def record_products() -> dict:
    pool = seeded.products_pool()
    verdicts = {}
    for spec in [s for group in pool["random"] + pool["tower"] for s in group]:
        started = time.perf_counter()
        factors = checkers.parse_factors(spec)
        report = product_report(ProductSpec.parse(spec))
        tower = report["tower_order"] is not None
        if tower != checkers.tower_exists(factors):
            raise RecordError(f"{spec}: tower verdict disagrees with the permutation oracle")
        verdict = {"zero_one": report["zero_one"], "tower": tower}
        if report["zero_one"]:
            elements = report["set_report"]["set"]
            _cross_check_set(elements, report["set_report"], tower)
            search = _fraction_strings(spectrum_search(IntSet(elements)))
            verdict["set"] = checkers.set_verdict(report["set_report"])
            verdict["search_spectrum"] = search is not None
        else:
            search = None
        bad = checkers.check_product(spec, report, search, verdict)
        if bad:
            raise RecordError(f"{spec}: {bad}")
        verdicts[spec] = verdict
        _progress(spec, started)
    return verdicts


def record_batch() -> dict:
    family = list(subsets(seeded.BATCH_MAX_ELEM, seeded.BATCH_MAX_SIZE))
    if [a.elements for a in family] != seeded.batch_instances():
        raise RecordError("subsets(14, 6) differs from seeded.batch_instances()")
    summary = run_batch("subsets", family, "granville-period")
    return {
        "instances": summary["instances"],
        "violations": sorted(seeded.set_key(v["set"]) for v in summary["violations"]),
    }


def main() -> None:
    reference = {
        "pool_seed": seeded.POOL_SEED,
        "analyze": record_analyze(),
        "products": record_products(),
        "batch": record_batch(),
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference['analyze'])} sets, {len(reference['products'])} specs, "
          f"{reference['batch']['instances']} batch instances")


if __name__ == "__main__":
    main()
