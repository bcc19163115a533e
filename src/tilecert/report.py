"""Aggregated analysis reports with deterministic, machine-readable layout.

Reports are plain dicts with a fixed key insertion order, so a JSON dump
of a report is byte-for-byte reproducible for a fixed input.  Fractions
are serialized as "p/q" strings, certificates as {"period", "complement"}.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import classify_prime_power_cyclotomic
from .spectra import RationalSpectrum, construct_spectrum
from .tileset import IntSet, check_t1, check_t2, cyclotomic_divisors
from .tiler import PeriodCapExceeded, TilingCertificate, find_tiling, granville_bound
from .products import (
    ProductSpec,
    keller_violation_witness,
    product_set,
    tower_condition,
    two_factor_condition,
)
from .values import frozen


@frozen
class AnalysisReport:
    """Everything the toolkit can say about one set."""

    elements: tuple[int, ...]
    size: int
    degree: int
    divisor_indices: tuple[int, ...]
    prime_power_indices: tuple[int, ...]
    t1: bool
    t2: bool
    granville_l: int
    tiling: TilingCertificate | None
    tiling_undecided: bool
    spectrum: RationalSpectrum | None
    classification: tuple[int, int] | None

    def to_dict(self) -> dict:
        return {
            "set": list(self.elements),
            "size": self.size,
            "degree": self.degree,
            "cyclotomic_divisors": list(self.divisor_indices),
            "prime_power_divisors": list(self.prime_power_indices),
            "t1": self.t1,
            "t2": self.t2,
            "granville_bound": self.granville_l,
            "tiling": _cert_dict(self.tiling),
            "tiling_undecided": self.tiling_undecided,
            "spectrum": _fraction_list(self.spectrum),
            "classification": (
                None
                if self.classification is None
                else {"prime": self.classification[0], "exponent": self.classification[1]}
            ),
        }


def _cert_dict(cert: TilingCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {"period": cert.period, "complement": list(cert.complement)}


def _fraction_list(spectrum: RationalSpectrum | None) -> list[str] | None:
    if spectrum is None:
        return None
    return [format_fraction(t) for t in spectrum.thetas]


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def analyze_set(a: IntSet, cap: int | None = None) -> AnalysisReport:
    """Run the full pipeline on one set.

    With ``cap`` set and the Granville bound above it, the tiling search
    is skipped and the report carries tiling_undecided = True.
    """
    inv = cyclotomic_divisors(a)
    deg = a.elements[-1] - a.elements[0]
    tiling = None
    undecided = False
    try:
        tiling = find_tiling(a, cap=cap)
    except PeriodCapExceeded:
        undecided = True
    return AnalysisReport(
        elements=a.elements,
        size=a.size,
        degree=deg,
        divisor_indices=inv.indices,
        prime_power_indices=inv.prime_powers,
        t1=check_t1(a),
        t2=check_t2(a),
        granville_l=granville_bound(a),
        tiling=tiling,
        tiling_undecided=undecided,
        spectrum=construct_spectrum(a),
        classification=classify_prime_power_cyclotomic(a),
    )


def tiling_report(a: IntSet, cap: int | None = None) -> dict:
    """Tiling-only view: bound, certificate (or undecided), verification bit.

    ``find_tiling`` verifies every certificate it returns, so the bit is
    True whenever there is a tiling.
    """
    out: dict = {
        "set": list(a.elements),
        "granville_bound": granville_bound(a),
        "tiling": None,
        "tiling_undecided": False,
        "verified": None,
    }
    try:
        cert = find_tiling(a, cap=cap)
    except PeriodCapExceeded:
        out["tiling_undecided"] = True
        return out
    if cert is not None:
        out["tiling"] = _cert_dict(cert)
        out["verified"] = True
    return out


def product_report(spec: ProductSpec, cap: int | None = None) -> dict:
    """Full view of a product spec.

    Tower labelling is reported 1-based.  The set-level results (tiling,
    conditions, spectrum) are only meaningful when the expanded product
    has 0/1 coefficients, and stay null otherwise.
    """
    pset = product_set(spec)
    tower = tower_condition(spec)
    witness = None if tower is not None else keller_violation_witness(spec)
    out: dict = {
        "factors": [{"step": m, "length": n} for m, n in spec.factors],
        "zero_one": pset is not None,
        "tower_order": None if tower is None else [i + 1 for i in tower],
        "two_factor_condition": (
            two_factor_condition(spec) if len(spec) == 2 else None
        ),
        "keller_witness": None if witness is None else list(witness.vector),
        "set_report": None,
    }
    if pset is not None:
        out["set_report"] = analyze_set(pset, cap=cap).to_dict()
    return out
