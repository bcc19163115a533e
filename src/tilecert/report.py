"""Aggregated analysis reports with deterministic, machine-readable layout.

Reports are plain dicts with a fixed key insertion order, so a JSON dump
of a report is byte-for-byte reproducible for a fixed input.  Fractions
are serialized as "p/q" strings, certificates as {"period", "complement"}.
``analyze_set`` is the one pipeline over a set: the CLI prints its dict,
``product_report`` nests it, and the ``batch subsets`` checks judge it.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import classify_prime_power_cyclotomic
from .spectra import RationalSpectrum, construct_spectrum
from .tileset import IntSet, check_t1, check_t2, cyclotomic_divisors
from .tiler import TilingCertificate, find_tiling, granville_bound
from .products import (
    ProductSpec,
    keller_violation_witness,
    product_set,
    tower_condition,
)


def cert_dict(cert: TilingCertificate | None) -> dict | None:
    """A tiling certificate as {"period", "complement"}, or None."""
    if cert is None:
        return None
    return {"period": cert.period, "complement": list(cert.complement)}


def fraction_list(spectrum: RationalSpectrum | None) -> list[str] | None:
    """A spectrum as a list of "p/q" strings, or None."""
    if spectrum is None:
        return None
    return [format_fraction(t) for t in spectrum.thetas]


def classification_dict(classification: tuple[int, int] | None) -> dict | None:
    """A (prime, exponent) classification as {"prime", "exponent"}, or None."""
    if classification is None:
        return None
    return {"prime": classification[0], "exponent": classification[1]}


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _check_cap(cap: int | None) -> None:
    """Raise ValueError for a period cap below 1; None means no cap."""
    if cap is not None and cap < 1:
        raise ValueError(f"period cap must be at least 1, got {cap}")


def _tiling(a: IntSet, cap: int | None) -> dict:
    """The keys both set reports print side by side: bound, certificate, undecided.

    This is the one place the period cap is applied: ``find_tiling``
    runs only when the Granville bound is within ``cap``, and otherwise
    tiling_undecided is True.
    """
    _check_cap(cap)
    bound = granville_bound(a)
    undecided = cap is not None and bound > cap
    tiling = None if undecided else cert_dict(find_tiling(a))
    return {"granville_bound": bound, "tiling": tiling, "tiling_undecided": undecided}


def analyze_set(a: IntSet, cap: int | None = None) -> dict:
    """Run the full pipeline on one set; returns the report ``tilecert analyze`` prints.

    With ``cap`` set and the Granville bound above it, the tiling is
    reported undecided instead of searched.
    """
    # the tiling runs first, so a cap below 1 is refused before any scan
    tiling = _tiling(a, cap)
    inv = cyclotomic_divisors(a.elements)
    return {
        "set": list(a.elements),
        "size": a.size,
        "degree": a.elements[-1] - a.elements[0],
        "cyclotomic_divisors": list(inv.indices),
        "prime_power_divisors": list(inv.prime_powers),
        "t1": check_t1(a),
        "t2": check_t2(a),
        **tiling,
        "spectrum": fraction_list(construct_spectrum(a)),
        "classification": classification_dict(classify_prime_power_cyclotomic(a)),
    }


def tiling_report(a: IntSet, cap: int | None = None) -> dict:
    """Tiling-only view: bound, certificate (or undecided), verification bit.

    ``find_tiling`` verifies every certificate it returns, so the bit is
    True whenever there is a tiling.
    """
    out = {"set": list(a.elements), **_tiling(a, cap)}
    out["verified"] = None if out["tiling"] is None else True
    return out


def product_report(spec: ProductSpec, cap: int | None = None) -> dict:
    """Full view of a product spec.

    Tower labelling is reported 1-based; for two factors the tower is
    the two-factor condition, printed as such.  The set-level results
    (tiling, conditions, spectrum) are only meaningful when the expanded
    product has 0/1 coefficients, and stay null otherwise.  A cap below 1 is a
    ValueError for every spec.
    """
    _check_cap(cap)
    pset = product_set(spec)
    tower = tower_condition(spec)
    witness = None if tower is not None else keller_violation_witness(spec)
    out: dict = {
        "factors": [{"step": m, "length": n} for m, n in spec.factors],
        "zero_one": pset is not None,
        "tower_order": None if tower is None else [i + 1 for i in tower],
        "two_factor_condition": tower is not None if len(spec) == 2 else None,
        "keller_witness": None if witness is None else list(witness),
        "set_report": None,
    }
    if pset is not None:
        out["set_report"] = analyze_set(pset, cap=cap)
    return out
