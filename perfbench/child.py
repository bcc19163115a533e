"""Child processes of run.py; each prints one JSON object as its last line.

    child.py setup <workload> <seed>
        Do the workload's set-up in a fresh interpreter and print when it
        was done (time.monotonic, which all processes share).
    child.py analyze <set> <trace 0|1>
        One cold CLI operation: timed from just before ``import
        tilecert.cli`` until ``tilecert.cli.main(["analyze", set])``
        returns, in wall and CPU time, with its stdout captured and
        returned.
    child.py products <seed> <stop> <rounds> <trace 0|1> <spans file>
    child.py batch <seed> <pass> <stop> <trace 0|1> <spans file>
        In-process closed loops: whole rounds of product specs until the
        monotonic time <stop> (or exactly <rounds> rounds when it is
        positive), or one pass of subsets(14, 6) cut into run_batch calls.
        Every output is checked here, outside the timed region.  With
        trace 1 the spans go to <spans file> and the per-layer metrics
        into the result.

Nothing is imported at module level beyond what the interpreter has
already loaded at start-up, so the cold operation pays for its own imports.
"""

import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-operation time limits, in seconds.  No operation starts later than
# GRACE_S after the stop time, so a run ends even if every operation hangs.
PRODUCT_LIMIT_S = 20
CHUNK_LIMIT_S = 10
GRACE_S = 60
# A timed run has at least MIN_ROUNDS rounds, so op_tail_ms (the eleventh
# slowest operation) falls in each round's slowest class even when one
# operation takes most of the run.
MIN_ROUNDS = 4


def more_rounds(done: int, rounds: int, stop: float) -> bool:
    """Whether to start another round: exactly `rounds` when positive, else until stop."""
    if rounds > 0:
        return done < rounds
    return done < MIN_ROUNDS or time.monotonic() < stop


def _emit(payload: dict) -> None:
    import json

    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _maxrss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_import(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tilecert was imported from {module.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Set-up, shared by the probes and the real runs
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    import json

    with open(Path(__file__).with_name("reference.json")) as fh:
        return json.load(fh)


def _require(keys, verdicts: dict, what: str) -> None:
    missing = [k for k in keys if k not in verdicts]
    if missing:
        raise SystemExit(f"reference.json has no verdict for {len(missing)} {what}, e.g. {missing[0]}")


def setup_analyze(seed: int):
    import seeded

    reference = load_reference()["analyze"]
    pool = seeded.analyze_pool()
    keys = [seeded.set_key(s) for group in pool["random"] + pool["tiling"] for s in group]
    _require(keys + [seeded.set_key(s) for s in pool["fixed"]], reference, "analyze sets")
    return reference, seeded.analyze_rounds(seed, pool)


def setup_products(seed: int):
    import seeded
    import tilecert.report
    import tilecert.spectra
    import tilecert.tileset

    _check_import(tilecert.report)
    reference = load_reference()["products"]
    pool = seeded.products_pool()
    _require([s for group in pool["random"] + pool["tower"] for s in group], reference, "specs")
    return reference, seeded.product_rounds(seed, pool)


def setup_batch(seed: int, pass_index: int):
    import seeded
    import tilecert.families
    from tilecert.tileset import IntSet

    _check_import(tilecert.families)
    reference = load_reference()["batch"]
    chunks = seeded.batch_chunks(seed, pass_index)
    return reference, chunks, [[IntSet(c) for c in chunk] for chunk in chunks]


def probe(workload: str, seed: int) -> None:
    if workload == "analyze-cold":
        setup_analyze(seed)
    elif workload == "products":
        setup_products(seed)
    else:
        setup_batch(seed, 0)
    _emit({"ready": time.monotonic()})


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def analyze(text: str, traced: bool) -> None:
    tracer = None
    if traced:
        from tracing import Tracer, install

        tracer = Tracer()
    start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
    import tilecert.cli

    imported, cpu_imported = time.perf_counter_ns(), time.process_time_ns()
    if tracer is not None:
        install(tracer)
    main_start, cpu_main_start = time.perf_counter_ns(), time.process_time_ns()
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        rc = tilecert.cli.main(["analyze", text])
    finally:
        sys.stdout = real_stdout
    end, cpu_end = time.perf_counter_ns(), time.process_time_ns()
    _check_import(tilecert.cli)
    _emit({
        "rc": rc,
        "stdout": captured.getvalue(),
        "op_ns": (imported - start) + (end - main_start),
        "op_cpu_ns": (cpu_imported - cpu_start) + (cpu_end - cpu_main_start),
        "import_ns": imported - start,
        "maxrss_mb": _maxrss_mb(),
        "spans": None if tracer is None else tracer.take(),
    })


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def _limited(limit_s: float, fn, *args):
    import signal

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _product_op(spec_text: str):
    from tilecert.products import ProductSpec
    from tilecert.report import product_report
    from tilecert.spectra import spectrum_search
    from tilecert.tileset import IntSet

    report = product_report(ProductSpec.parse(spec_text))
    found = None
    if report["zero_one"]:
        found = spectrum_search(IntSet(report["set_report"]["set"]))
    return report, found


def products(seed: int, stop: float, rounds: int, traced: bool, spans_path: str) -> None:
    import checkers

    reference, schedule = setup_products(seed)
    tracer, totals, spans_out = _start_trace(traced, spans_path)
    ops = []
    done = 0
    while more_rounds(done, rounds, stop):
        for spec in next(schedule):
            if time.monotonic() > stop + GRACE_S:
                break
            error = None
            start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
            try:
                report, found = _limited(PRODUCT_LIMIT_S, _product_op, spec)
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            elapsed, cpu = time.perf_counter_ns() - start, time.process_time_ns() - cpu_start
            if error is None:
                search = None if found is None else [f"{t.numerator}/{t.denominator}" for t in found]
                error = checkers.check_product(spec, report, search, reference[spec])
            ops.append({"key": spec, "round": done, "ns": elapsed, "cpu_ns": cpu, "error": error})
            if tracer is not None:
                _fold(tracer, totals, spans_out, len(ops), elapsed, 1)
        done += 1
    _finish(ops, done, totals, spans_out, "products")


def batch(seed: int, pass_index: int, stop: float, traced: bool, spans_path: str) -> None:
    import checkers
    import tilecert.families

    reference, chunks, inputs = setup_batch(seed, pass_index)
    tracer, totals, spans_out = _start_trace(traced, spans_path)
    ops = []
    for chunk, instances in zip(chunks, inputs):
        if time.monotonic() > stop + GRACE_S:
            break
        error = None
        start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
        try:
            summary = _limited(CHUNK_LIMIT_S, tilecert.families.run_batch,
                               "subsets", instances, "granville-period")
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed, cpu = time.perf_counter_ns() - start, time.process_time_ns() - cpu_start
        if error is None:
            error = checkers.check_batch(chunk, summary, reference)
        ops.append({"key": len(chunk), "round": pass_index, "ns": elapsed, "cpu_ns": cpu,
                    "error": error})
        if tracer is not None:
            _fold(tracer, totals, spans_out, len(ops), elapsed, len(chunk))
    _finish(ops, 1, totals, spans_out, "batch-subsets")


def _start_trace(traced: bool, spans_path: str):
    if not traced:
        return None, None, None
    import gzip

    from tracing import Totals, Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer, Totals(), gzip.open(spans_path, "wt")


def _fold(tracer, totals, spans_out, op_id: int, op_ns: int, count: int) -> None:
    from tracing import write_spans

    spans = tracer.take()
    totals.fold(op_id, spans, op_ns, count=count)
    write_spans(spans_out, op_id, spans)


def _finish(ops, rounds: int, totals, spans_out, workload: str) -> None:
    payload = {"ops": ops, "rounds": rounds, "maxrss_mb": _maxrss_mb()}
    if totals is not None:
        spans_out.close()
        metrics, missing = totals.metrics(workload)
        payload["layers"] = {"metrics": metrics, "missing": missing}
    _emit(payload)


def main(argv: list[str]) -> None:
    sys.path.insert(0, str(SRC))
    mode = argv[0]
    if mode == "setup":
        probe(argv[1], int(argv[2]))
    elif mode == "analyze":
        analyze(argv[1], argv[2] == "1")
    elif mode == "products":
        products(int(argv[1]), float(argv[2]), int(argv[3]), argv[4] == "1", argv[5])
    elif mode == "batch":
        batch(int(argv[1]), int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
