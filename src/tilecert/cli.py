"""Command-line interface.

Every invocation prints one self-describing JSON object with a stable
key order, so output is byte-for-byte deterministic for a fixed input;
``--human`` prints ``key: value`` lines instead, a dict as an indented
block and any other value as JSON (strings bare).  Exit codes:
0 = computed (whatever the mathematical outcome), 2 = input error.
Batch mode: 0 = no violations, 1 = violations found.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .analysis import MAX_POWER_SUMS, classify_prime_power_cyclotomic, power_sums
from .report import (
    analyze_set,
    classification_dict,
    format_fraction,
    fraction_list,
    product_report,
    tiling_report,
)
from .spectra import construct_spectrum, parse_thetas, spectrum_search, verify_spectrum
from .tileset import IntSet
from .products import ProductSpec

DEFAULT_LCAP = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilecert",
        description="Certifying toolkit for integer tilings, Coven-Meyerowitz conditions, and rational spectra.",
    )
    parser.add_argument("--version", action="version", version=f"tilecert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lcap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lcap", type=int, default=DEFAULT_LCAP,
                       help="cap on the Granville period bound, at least 1 (default %(default)s)")

    p = sub.add_parser("analyze", help="full report for one set")
    p.add_argument("set", help="comma-separated nonnegative integers, e.g. 0,1,2,3")
    add_lcap(p)

    p = sub.add_parser("tile", help="tiling certificate search for one set")
    p.add_argument("set")
    add_lcap(p)

    p = sub.add_parser("spectrum", help="construct, search for, or verify a rational spectrum")
    p.add_argument("mode", choices=["construct", "search", "verify"])
    p.add_argument("set")
    p.add_argument("--theta", default=None,
                   help="comma-separated fractions for verify, e.g. 1/2,1/4,3/4")

    p = sub.add_parser("product", help="report for a product spec m1:n1,m2:n2,...")
    p.add_argument("spec")
    add_lcap(p)

    p = sub.add_parser("powersums", help="power sums of the roots of a set's characteristic polynomial")
    p.add_argument("set")
    p.add_argument("--count", type=int, default=10,
                   help=f"how many power sums, 1 to {MAX_POWER_SUMS:,} (default 10)")

    p = sub.add_parser("classify", help="recognize the prime-power progression pattern")
    p.add_argument("set")

    p = sub.add_parser("batch", help="run an invariant check over a whole family")
    p.add_argument("family", nargs="+",
                   help="family spec: 'subsets max_elem=E max_size=K', "
                        "'two-factor m=M n=N', or 'three-factor m=M'")
    p.add_argument("--check", required=True, help="check name, see README")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for batch enumeration, at most the "
                        "CPU count (default 1)")

    for p in sub.choices.values():
        p.add_argument("--human", action="store_true",
                       help="human-readable rendering instead of JSON")

    return parser


def _render_human(payload: dict, pad: str = "") -> list[str]:
    lines: list[str] = []
    for key, value in payload.items():
        if isinstance(value, dict) and value:
            lines += [f"{pad}{key}:", *_render_human(value, pad + "  ")]
        else:
            lines.append(f"{pad}{key}: {value if isinstance(value, str) else json.dumps(value)}")
    return lines


def _emit(payload: dict, human: bool) -> None:
    if human:
        print("\n".join(_render_human(payload)))
    else:
        print(json.dumps(payload, indent=2))


def _parse_family(tokens: list[str]) -> tuple[str, dict[str, int]]:
    kind = tokens[0]
    params: dict[str, int] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"bad family parameter {tok!r}, expected key=value")
        key, _, value = tok.partition("=")
        if key in params:
            raise ValueError(f"repeated family parameter {key!r}")
        try:
            params[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"bad family parameter {tok!r}") from exc
    return kind, params


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _spectrum_payload(a: IntSet, mode: str, theta: str | None) -> dict:
    if mode != "verify":
        if theta is not None:
            raise ValueError(f"spectrum {mode} takes no --theta")
        producer = construct_spectrum if mode == "construct" else spectrum_search
        return {"set": list(a.elements), "spectrum": fraction_list(producer(a))}
    if theta is None:
        raise ValueError("spectrum verify needs --theta")
    thetas = [t % 1 for t in parse_thetas(theta)]
    root_conditions = verify_spectrum(a, thetas)
    size_ok = len(thetas) == a.size - 1
    return {"set": list(a.elements), "thetas": [format_fraction(t) for t in thetas],
            "root_conditions": root_conditions, "size_ok": size_ok,
            "verified": root_conditions and size_ok}


def _dispatch(args: argparse.Namespace) -> int:
    command, code = args.command, 0
    if command == "batch":
        # families loads only here, so the other commands do not import it
        from .families import build_family, run_batch

        kind, params = _parse_family(args.family)
        summary = run_batch(kind, build_family(kind, params), args.check, workers=args.workers)
        payload = {"params": params, **summary}
        code = 0 if summary["violation_count"] == 0 else 1
    elif command == "product":
        payload = product_report(ProductSpec.parse(args.spec), cap=args.lcap)
    else:
        a = IntSet.parse(args.set)
        if command == "analyze":
            payload = analyze_set(a, cap=args.lcap)
        elif command == "tile":
            payload = tiling_report(a, cap=args.lcap)
        elif command == "spectrum":
            command = f"spectrum {args.mode}"
            payload = _spectrum_payload(a, args.mode, args.theta)
        elif command == "powersums":
            payload = {"set": list(a.elements), "count": args.count,
                       "power_sums": list(power_sums(a, args.count))}
        else:
            payload = {"set": list(a.elements),
                       "classification": classification_dict(classify_prime_power_cyclotomic(a))}
    _emit({"command": command, **payload}, args.human)
    return code


if __name__ == "__main__":
    sys.exit(main())
