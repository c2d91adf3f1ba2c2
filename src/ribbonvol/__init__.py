"""Exact arithmetic for integral ribbon graphs: weighted counts, their
Laplace-transformed Laurent polynomials, Euclidean and symplectic volume
polynomials, residue-form verification on spectral curves, and the
intersection numbers carried by the volumes.

Everything is computed over the rationals with zero tolerance; numerical
types never enter.
"""

from . import lattice, transform
from ._version import __version__
from .crosscheck import (
    CLASSICAL_INTERSECTIONS,
    golden_laplace,
    intersection_ratio_report,
    perimeter_volume,
    series_identity,
    verify_continuous_recursion,
)
from .eo import (
    CURVE_EUCLIDEAN,
    CURVE_LAPLACE,
    CURVE_SYMPLECTIC,
    CURVES,
    residue_sum,
    verify_eo,
)
from .exactmath import (
    EvenLaurentPoly,
    divided_difference,
    laurent_to_series,
)
from .lattice import CountTable, census, count
from .surface import enumerate_splittings, is_stable
from .transform import (
    CONFIGS,
    EUCLIDEAN,
    LAPLACE,
    SYMPLECTIC,
    compute,
    euclidean_matches_leading,
    intersection_numbers,
    kontsevich_ratio,
)

__all__ = [
    "__version__",
    "CLASSICAL_INTERSECTIONS",
    "CONFIGS",
    "CountTable",
    "CURVE_EUCLIDEAN",
    "CURVE_LAPLACE",
    "CURVE_SYMPLECTIC",
    "CURVES",
    "EUCLIDEAN",
    "EvenLaurentPoly",
    "LAPLACE",
    "SYMPLECTIC",
    "cache_info",
    "census",
    "clear_caches",
    "compute",
    "count",
    "divided_difference",
    "enumerate_splittings",
    "euclidean_matches_leading",
    "golden_laplace",
    "intersection_numbers",
    "intersection_ratio_report",
    "is_stable",
    "kontsevich_ratio",
    "laurent_to_series",
    "perimeter_volume",
    "residue_sum",
    "series_identity",
    "verify_continuous_recursion",
    "verify_eo",
]


def clear_caches() -> None:
    """Empty the engine tables of every configuration, and the lattice memo
    and moment tables."""
    for table in transform._tables.values():
        table.clear()
    lattice._clear()


def cache_info() -> dict:
    """Entries held per engine configuration, and the lattice memo size:
    ``{"engine": {config name: tables}, "lattice": memo entries}``."""
    return {
        "engine": {name: len(table) for name, table in transform._tables.items()},
        "lattice": len(lattice._memo),
    }
