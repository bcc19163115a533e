"""tilecert: certifying toolkit for integer tilings by translation.

Decides, with explicit certificates, whether a finite set of nonnegative
integers tiles the integers by translations, whether it satisfies the
Coven-Meyerowitz conditions (T1)/(T2), and whether its characteristic
polynomial admits a full rational spectrum; also handles products of
arithmetic-progression polynomials via the tower condition and Keller
violation witnesses.
"""

from .intpoly import divides_cyclotomic
from .tileset import (
    CertificateError,
    CycloDivisors,
    IntSet,
    check_t1,
    check_t2,
    cyclotomic_divisors,
    divisors_of_poly,
)
from .tiler import (
    TilingCertificate,
    brute_force_tiling,
    find_tiling,
    granville_bound,
    search_periods,
    verify_tiling,
)
from .spectra import (
    RationalSpectrum,
    construct_spectrum,
    is_root_of,
    spectrum_search,
    spectrum_search_poly,
    verify_spectrum,
)
from .products import (
    ProductSpec,
    check_keller_violation,
    keller_violation_witness,
    product_poly,
    product_set,
    tower_condition,
)
from .analysis import (
    classify_prime_power_cyclotomic,
    power_sums,
)
from .report import analyze_set, product_report, tiling_report

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "CycloDivisors",
    "IntSet",
    "ProductSpec",
    "RationalSpectrum",
    "TilingCertificate",
    "analyze_set",
    "brute_force_tiling",
    "check_keller_violation",
    "check_t1",
    "check_t2",
    "classify_prime_power_cyclotomic",
    "construct_spectrum",
    "cyclotomic_divisors",
    "divides_cyclotomic",
    "divisors_of_poly",
    "find_tiling",
    "granville_bound",
    "is_root_of",
    "keller_violation_witness",
    "power_sums",
    "product_poly",
    "product_report",
    "product_set",
    "search_periods",
    "spectrum_search",
    "spectrum_search_poly",
    "tiling_report",
    "tower_condition",
    "verify_spectrum",
    "verify_tiling",
]
