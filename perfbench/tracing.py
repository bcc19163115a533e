"""Spans around tilecert's public functions, and the per-layer metrics built from them.

``install`` wraps every public function of the pipeline modules, in every
tilecert module that binds it (modules import names with ``from .x import
f``), and ``IntPoly.divrem`` on the class.  Each call records a span
(function, start, end, parent span, detail) in memory; the caller takes
the spans of one operation with ``Tracer.take`` and folds them into
per-layer totals with ``fold``.

A layer's self time is the time its spans cover minus the time their
child spans cover.  A function that belongs to no layer (a helper such
as ``divides_cyclotomic`` or ``search_periods``) counts toward the layer
of the span that called it, so self times add up to the traced time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

MODULES = ("cli", "report", "families", "tileset", "tiler", "spectra", "products", "intpoly")

# function -> layer whose self time it counts toward
LAYER_OF = {
    "intpoly.cyclotomic": "intpoly.cyclotomic",
    "intpoly.IntPoly.divrem": "intpoly.divrem",
    "tileset.cyclotomic_divisors": "tileset.inventory",
    "tileset.divisors_of_poly": "tileset.inventory",
    "tileset.cyclotomic_divisor_indices": "tileset.inventory",
    "tileset.check_t1": "tileset.t1t2",
    "tileset.check_t2": "tileset.t1t2",
    "tiler.find_tiling": "tiler.find_tiling",
    "tiler.tiles_z": "tiler.find_tiling",
    "tiler.brute_force_tiling": "tiler.brute_force",
    "tiler.verify_tiling": "tiler.verify_tiling",
    "spectra.construct_spectrum": "spectra.construct",
    "spectra.verify_spectrum": "spectra.verify",
    "spectra.verify_spectrum_poly": "spectra.verify",
    "spectra.spectrum_search": "spectra.search",
    "spectra.spectrum_search_poly": "spectra.search",
    "products.tower_condition": "products.tower",
    "products.keller_violation_witness": "products.keller",
    "products.check_keller_violation": "products.keller",
    "products.product_poly": "products.product_poly",
    "families.subset_facts": "families.subset_facts",
    "families.run_batch": "families.run_batch",
    "report.analyze_set": "report.analyze_set",
    "report.product_report": "report.product_report",
    "cli.main": "cli.main",
}

# functions whose span keeps a detail: an outcome bit or a denominator
_FOUND = "found"
DETAIL_OF = {
    "intpoly.divides_cyclotomic": _FOUND,
    "tiler.find_tiling": _FOUND,
    "spectra.spectrum_search_poly": _FOUND,
    "spectra.is_root_of": "denominator",
}

ANALYZE, BATCH, PRODUCTS = "analyze-cold", "batch-subsets", "products"
ALL = (ANALYZE, BATCH, PRODUCTS)

# (metric, unit, workloads on which it must fire).  Counts and times are
# per operation (per instance on batch-subsets), so runs that complete a
# different number of operations stay comparable.  The layer-to-end-to-end
# mapping is in NOTES.md.
PER_LAYER = (
    ("intpoly.cyclotomic.calls", "count/op", ALL),
    ("intpoly.cyclotomic.self_s", "s/op", ALL),
    ("intpoly.divrem.calls", "count/op", ALL),
    ("intpoly.divrem.self_s", "s/op", ALL),
    ("tileset.inventory.calls", "count/op", ALL),
    ("tileset.inventory.self_s", "s/op", ALL),
    ("tileset.inventory.divisibility_tests", "count/op", ALL),
    ("tileset.inventory.hit_ratio", "ratio", ALL),
    ("tileset.t1t2.self_s", "s/op", ALL),
    ("tiler.find_tiling.calls", "count/op", ALL),
    ("tiler.find_tiling.self_s", "s/op", ALL),
    ("tiler.find_tiling.found_ratio", "ratio", ALL),
    ("tiler.brute_force.self_s", "s/op", (BATCH,)),
    ("tiler.verify_tiling.self_s", "s/op", ALL),
    ("spectra.construct.calls", "count/op", ALL),
    ("spectra.construct.self_s", "s/op", ALL),
    ("spectra.verify.self_s", "s/op", ALL),
    ("spectra.is_root_of.calls", "count/op", ALL),
    ("spectra.is_root_of.repeat_ratio", "ratio", ALL),
    ("spectra.search.calls", "count/op", (PRODUCTS,)),
    ("spectra.search.self_s", "s/op", (PRODUCTS,)),
    ("spectra.search.found_ratio", "ratio", (PRODUCTS,)),
    ("products.tower.calls", "count/op", (PRODUCTS,)),
    ("products.tower.self_s", "s/op", (PRODUCTS,)),
    ("products.keller.self_s", "s/op", (PRODUCTS,)),
    ("products.product_poly.self_s", "s/op", (PRODUCTS,)),
    ("families.subset_facts.self_s", "s/op", (BATCH,)),
    ("families.run_batch.self_s", "s/op", (BATCH,)),
    ("report.analyze_set.self_s", "s/op", (ANALYZE, PRODUCTS)),
    ("report.product_report.self_s", "s/op", (PRODUCTS,)),
    ("cli.main.self_s", "s/op", (ANALYZE,)),
    ("cli.import_s", "s/op", (ANALYZE,)),
    ("trace.overhead_ratio", "ratio", ALL),
    ("trace.coverage_ratio", "ratio", ALL),
)

# The layers whose self times should account for most of the operation time.
NAMED_LAYERS = sorted({m.rsplit(".", 1)[0] for m, _, _ in PER_LAYER if m.endswith(".self_s")})


class Tracer:
    """In-memory span recorder; one instance per process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        kind = DETAIL_OF.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = detail = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if kind == _FOUND:
                    detail = int(result is not None and result is not False)
                elif kind is not None:
                    detail = args[1].denominator
                spans[idx] = (name_id, start, end, parent, detail)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def take(self) -> list[tuple]:
        """The spans since the last take, as (name, start, end, parent, detail)."""
        out = [(self.names[s[0]],) + s[1:] for s in self.spans]
        self.spans.clear()
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of MODULES, and IntPoly.divrem, for tracer."""
    mods = {name: importlib.import_module(f"tilecert.{name}") for name in MODULES}
    originals = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(getattr(obj, "__wrapped__", obj), "__module__", None) == mod.__name__:
                originals[id(obj)] = (f"{short}.{attr}", obj)
    wrappers = {key: tracer.wrap(name, obj) for key, (name, obj) in originals.items()}
    loaded = [m for n, m in list(sys.modules.items()) if n == "tilecert" or n.startswith("tilecert.")]
    for mod in loaded:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    intpoly_cls = mods["intpoly"].IntPoly
    intpoly_cls.divrem = tracer.wrap("intpoly.IntPoly.divrem", intpoly_cls.__dict__["divrem"])


class Totals:
    """Per-layer sums over the traced operations of one run."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.found: dict[str, int] = defaultdict(int)
        self.inventory_tests = 0
        self.inventory_hits = 0
        self.root_pairs: set = set()
        self.ops = 0
        self.op_ns = 0
        self.import_ns = 0

    def fold(self, op_id, spans, op_ns: int, import_ns: int = 0, count: int = 1) -> None:
        """Add one operation's spans (as returned by Tracer.take); count is its instances."""
        self.ops += count
        self.op_ns += op_ns
        self.import_ns += import_ns
        layer = [""] * len(spans)
        child_ns = [0] * len(spans)
        # On batch-subsets one traced operation is a run_batch call over many
        # sets; the subset_facts span of each set marks where one instance is.
        instance = [-1] * len(spans)
        for idx, (name, start, end, parent, detail) in enumerate(spans):
            parent_layer = layer[parent] if parent >= 0 else "other"
            layer[idx] = LAYER_OF.get(name, parent_layer)
            instance[idx] = idx if name == "families.subset_facts" else (
                instance[parent] if parent >= 0 else -1)
            if parent >= 0:
                child_ns[parent] += end - start
            self.calls[name] += 1
            if detail is None:
                continue
            if name == "spectra.is_root_of":
                self.root_pairs.add((op_id, instance[idx], detail))
            else:
                self.found[name] += detail
                if name == "intpoly.divides_cyclotomic" and parent_layer == "tileset.inventory":
                    self.inventory_tests += 1
                    self.inventory_hits += detail
        for idx, (_, start, end, _, _) in enumerate(spans):
            self.self_ns[layer[idx]] += end - start - child_ns[idx]

    def metrics(self, workload: str) -> tuple[dict, list[str]]:
        """Per-layer metric values, and the names missing although they must fire.

        trace.overhead_ratio needs the untraced run, so the caller sets it.
        """
        per_op = 1.0 / self.ops

        def calls(fn):
            return self.calls[fn] * per_op

        def self_s(layer):
            return self.self_ns[layer] * 1e-9 * per_op

        def ratio(num, den):
            return num / den if den else None

        named_ns = sum(self.self_ns[layer] for layer in NAMED_LAYERS) + self.import_ns
        values = {
            "intpoly.cyclotomic.calls": calls("intpoly.cyclotomic"),
            "intpoly.divrem.calls": calls("intpoly.IntPoly.divrem"),
            "tileset.inventory.calls": calls("tileset.divisors_of_poly"),
            "tileset.inventory.divisibility_tests": self.inventory_tests * per_op,
            "tileset.inventory.hit_ratio": ratio(self.inventory_hits, self.inventory_tests),
            "tiler.find_tiling.calls": calls("tiler.find_tiling"),
            "tiler.find_tiling.found_ratio": ratio(self.found["tiler.find_tiling"],
                                                   self.calls["tiler.find_tiling"]),
            "spectra.construct.calls": calls("spectra.construct_spectrum"),
            "spectra.is_root_of.calls": calls("spectra.is_root_of"),
            "spectra.is_root_of.repeat_ratio": ratio(self.calls["spectra.is_root_of"],
                                                     len(self.root_pairs)),
            "spectra.search.calls": calls("spectra.spectrum_search_poly"),
            "spectra.search.found_ratio": ratio(self.found["spectra.spectrum_search_poly"],
                                                self.calls["spectra.spectrum_search_poly"]),
            "products.tower.calls": calls("products.tower_condition"),
            "cli.import_s": self.import_ns * 1e-9 * per_op,
            "trace.overhead_ratio": 1.0,
            "trace.coverage_ratio": ratio(named_ns, self.op_ns),
        }
        for metric, _, _ in PER_LAYER:
            if metric.endswith(".self_s"):
                values[metric] = self_s(metric[: -len(".self_s")])
        out, missing = {}, []
        for metric, unit, workloads in PER_LAYER:
            value = values[metric]
            if value is None or (metric.endswith((".calls", ".self_s", ".divisibility_tests"))
                                 and value == 0):
                if workload in workloads:
                    missing.append(metric)
                    continue
                value = 0.0
            out[metric] = {"value": value, "unit": unit}
        return out, missing


def write_spans(fh, op_id, spans) -> None:
    """Append one operation's spans as tab-separated lines."""
    for idx, (name, start, end, parent, detail) in enumerate(spans):
        fh.write(f"{op_id}\t{idx}\t{parent}\t{name}\t{start}\t{end}\t{'' if detail is None else detail}\n")
