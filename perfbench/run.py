"""tilecert benchmark: three workloads, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it measures the library in the
checkout's src/.  Workloads (see NOTES.md for why each exists):

  analyze-cold   one fresh interpreter per `tilecert analyze` call
  batch-subsets  run_batch over subsets(14, 6), one fresh process per pass
  products       product_report and spectrum_search on seeded product specs

Each workload is a closed loop with one caller.  It runs whole rounds of
inputs (a pass of subsets(14, 6) on batch-subsets) until --seconds have
passed, so every run sees the same mix of inputs.  Every output is checked
against reference.json and by checkers.py; a failed, wrong or over-limit
operation counts in "failed".

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
it holds the per-layer metrics from one round run twice, untraced and
traced, in fresh processes; spans go to .perfbench_out/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it repeat the numbers for a reader, with the
tail percentile, its sample count and the failed fraction.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

WORKLOADS = ("analyze-cold", "batch-subsets", "products")
SETUP_PROBES = 15
ANALYZE_LIMIT_S = 60
TRACE_ROUNDS = 1
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], timeout: float) -> dict:
    """Run child.py to completion and return the JSON object on its last line."""
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise ChildFailed(tail[0])
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def cold_analyze(elements, reference: dict, traced: bool) -> dict:
    """One cold `tilecert analyze` in a fresh interpreter, checked."""
    import checkers
    from seeded import set_key

    key = set_key(elements)
    started = time.perf_counter_ns()
    try:
        res = run_child(["analyze", key, "1" if traced else "0"], ANALYZE_LIMIT_S)
    except subprocess.TimeoutExpired:
        ns = ANALYZE_LIMIT_S * 10**9
        return {"ns": ns, "cpu_ns": ns, "error": "over the time limit", "maxrss_mb": 0}
    except ChildFailed as exc:
        ns = time.perf_counter_ns() - started
        return {"ns": ns, "cpu_ns": ns, "error": str(exc), "maxrss_mb": 0}
    error = None
    if res["rc"] != 0:
        error = f"analyze exited with {res['rc']}"
    else:
        error = checkers.check_set_report(list(elements), json.loads(res["stdout"]), reference[key])
    return {"ns": res["op_ns"], "cpu_ns": res["op_cpu_ns"], "error": error, "maxrss_mb": res["maxrss_mb"],
            "import_ns": res["import_ns"], "spans": res["spans"]}


def analyze_loop(seed: int, stop: float, rounds: int, traced: bool) -> dict:
    """Whole rounds of cold analyze calls until stop (or exactly `rounds` when positive)."""
    import child

    reference, schedule = child.setup_analyze(seed)
    ops, done = [], 0
    while child.more_rounds(done, rounds, stop):
        for elements in next(schedule):
            if time.monotonic() > stop + child.GRACE_S:
                break
            ops.append(dict(cold_analyze(elements, reference, traced), key=elements, round=done))
        done += 1
    return {"ops": ops, "rounds": done, "maxrss_mb": max(op["maxrss_mb"] for op in ops)}


def in_process_loop(workload: str, seed: int, stop: float, rounds: int, traced: bool) -> dict:
    """products: one child for the whole loop; batch-subsets: one child per pass."""
    import child

    spans = str(OUT / f"{workload}-seed{seed}-spans.tsv.gz")
    flag = "1" if traced else "0"

    def limit() -> float:
        # Children start no operation after stop + GRACE_S and limit each
        # operation, so this only catches a wedged child.
        return max(stop - time.monotonic(), 0) + child.GRACE_S + 60

    if workload == "products":
        return run_child(["products", str(seed), repr(stop), str(rounds), flag, spans], limit())
    ops, maxrss, done = [], 0.0, 0
    while child.more_rounds(done, rounds, stop):
        res = run_child(["batch", str(seed), str(done), repr(stop), flag, spans], limit())
        ops += res["ops"]
        maxrss = max(maxrss, res["maxrss_mb"])
        layers = res.get("layers")
        done += 1
    return {"ops": ops, "rounds": done, "maxrss_mb": maxrss, "layers": layers}


def measure(workload: str, seed: int, seconds: float, rounds: int, traced: bool) -> dict:
    stop = time.monotonic() + seconds
    if workload == "analyze-cold":
        return analyze_loop(seed, stop, rounds, traced)
    return in_process_loop(workload, seed, stop, rounds, traced)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def instances(workload: str, op: dict) -> int:
    """Operations an op record stands for: a chunk's instances on batch-subsets."""
    return op["key"] if workload == "batch-subsets" else 1


def setup_times(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(wall, CPU) seconds from starting a fresh interpreter to the end of its set-up."""
    import resource

    times = []
    for _ in range(count):
        started = time.monotonic()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        res = run_child(["setup", workload, str(seed)], 120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        times.append((res["ready"] - started, cpu))
    return times


def timings(workload: str, ops: list[dict], clock: str) -> dict:
    """Throughput, median and tail latency of a run, by one clock ("cpu_ns" or "ns").

    Every round runs the same input mix in the same order, so the
    operations at one position of a round are alike.  Throughput divides
    the operations of a round by a typical round's time: the sum over
    positions of the median time at that position.  A single stalled
    operation, or a slow spell shorter than half the run, then barely
    moves it.  The tail is taken over the whole run.
    """
    rounds: dict[int, list[dict]] = {}
    for op in ops:
        rounds.setdefault(op["round"], []).append(op)
    positions: dict[int, list[dict]] = {}
    for group in rounds.values():
        for index, op in enumerate(group):
            positions.setdefault(index, []).append(op)
    round_s = sum(statistics.median(op[clock] for op in group) * 1e-9 for group in positions.values())
    per_round = sum(instances(workload, group[0]) for group in positions.values())
    latencies = sorted(op[clock] * 1e-6 for op in ops)
    tail_index = max(len(latencies) - TAIL_BEYOND - 1, 0)
    return {"ops_per_s": per_round / round_s, "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": latencies[tail_index], "tail_index": tail_index}


def end_to_end(workload: str, run: dict, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, from the CPU time of each operation and set-up.

    Each workload runs on one thread, so an operation's CPU time is its
    wall time less the time the machine gave to other work.  On a shared
    host that is what repeats from run to run; the wall-clock figures are
    printed next to them.
    """
    values = timings(workload, run["ops"], "cpu_ns")
    wall = timings(workload, run["ops"], "ns")
    values["setup_s"] = statistics.median(cpu for _, cpu in setup)
    values["peak_rss_mb"] = run["maxrss_mb"]
    n, tail_index = len(run["ops"]), values["tail_index"]
    op_name = "run_batch call" if workload == "batch-subsets" else "operation"
    notes = [
        f"{n} {op_name}s in {run['rounds']} rounds",
        f"op_tail_ms is p{100.0 * (tail_index + 1) / n:.1f}: {n - tail_index - 1} of {n} samples beyond it",
        f"wall clock: ops_per_s {wall['ops_per_s']:.6g}, op_p50_ms {wall['op_p50_ms']:.6g}, "
        f"op_tail_ms {wall['op_tail_ms']:.6g}, setup_s {statistics.median(w for w, _ in setup):.6g}",
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, notes


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    """Run TRACE_ROUNDS rounds untraced, then the same rounds traced, in fresh processes."""
    import gzip

    import tracing

    OUT.mkdir(exist_ok=True)
    plain = measure(workload, seed, 0, TRACE_ROUNDS, traced=False)
    traced = measure(workload, seed, 0, TRACE_ROUNDS, traced=True)
    if workload == "analyze-cold":
        totals = tracing.Totals()
        with gzip.open(OUT / f"{workload}-seed{seed}-spans.tsv.gz", "wt") as fh:
            for op_id, op in enumerate(traced["ops"]):
                if op["error"] is None:
                    totals.fold(op_id, op["spans"], op["ns"], op["import_ns"])
                    tracing.write_spans(fh, op_id, op["spans"])
        metrics, missing = totals.metrics(workload)
    else:
        metrics, missing = traced["layers"]["metrics"], traced["layers"]["missing"]
    plain_ns = sum(op["ns"] for op in plain["ops"])
    traced_ns = sum(op["ns"] for op in traced["ops"])
    metrics["trace.overhead_ratio"] = {"value": plain_ns / traced_ns, "unit": "ratio"}
    return metrics, plain["ops"] + traced["ops"], missing


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tilecert" / "__init__.py").is_file():
        print(f"error: no tilecert sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    # Byte-compile first, so the first cold operation of a fresh checkout
    # does not also pay for compiling the library.
    compileall.compile_dir(str(SRC / "tilecert"), quiet=1)
    try:
        if args.trace:
            metrics, ops, missing = per_layer(args.workload, args.seed)
            notes = [f"first {TRACE_ROUNDS} round(s) run untraced, then traced"]
            notes += [f"missing per-layer metrics: {', '.join(missing)}"] if missing else []
        else:
            # Set-up is probed before and after the loop, so its median
            # spans more than one spell of a shared machine.
            setup = setup_times(args.workload, args.seed, SETUP_PROBES // 2)
            run = measure(args.workload, args.seed, args.seconds, 0, traced=False)
            setup += setup_times(args.workload, args.seed, SETUP_PROBES - len(setup))
            ops, missing = run["ops"], []
            metrics, notes = end_to_end(args.workload, run, setup)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [op for op in ops if op["error"] is not None]
    for op in failed[:5]:
        print(f"failed: {op.get('key', '')} {op['error']}")
    print(f"{args.workload} seed {args.seed}: " + "; ".join(notes))
    print(f"failed_frac {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed and not missing,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
