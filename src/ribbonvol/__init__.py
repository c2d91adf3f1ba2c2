"""Exact arithmetic for integral ribbon graphs: weighted counts, their
Laplace-transformed Laurent polynomials, Euclidean and symplectic volume
polynomials, residue-form verification on spectral curves, and the
intersection numbers carried by the volumes.

Everything is computed over the rationals with zero tolerance; numerical
types never enter.
"""

from importlib import import_module

from ._version import __version__

#: public name -> its module, imported on first access (``__getattr__``)
_HOMES = {
    "golden_laplace": "crosscheck",
    "intersection_ratio_report": "crosscheck",
    "perimeter_volume": "crosscheck",
    "series_identity": "crosscheck",
    "verify_continuous_recursion": "crosscheck",
    "CURVES": "eo",
    "residue_sum": "eo",
    "verify_eo": "eo",
    "EvenLaurentPoly": "exactmath",
    "CountTable": "lattice",
    "census": "lattice",
    "count": "lattice",
    "enumerate_splittings": "surface",
    "is_stable": "surface",
    "CONFIGS": "transform",
    "EUCLIDEAN": "transform",
    "LAPLACE": "transform",
    "SYMPLECTIC": "transform",
    "compute": "transform",
    "euclidean_matches_leading": "transform",
    "intersection_numbers": "transform",
    "kontsevich_ratio": "transform",
}

__all__ = ["__version__", "cache_info", "clear_caches", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def clear_caches() -> None:
    """Empty the engine tables of every configuration, and every cached
    lattice table."""
    from . import lattice, transform

    for memo in (*transform._tables.values(), *transform._polys.values()):
        memo.clear()
    lattice._clear()


def cache_info() -> dict:
    """Entries held per engine configuration, and the counts the lattice
    recursion holds: ``{"engine": {config name: tables}, "lattice": counts}``."""
    from . import lattice, transform

    return {
        "engine": {name: len(table) for name, table in transform._tables.items()},
        "lattice": lattice._recursion.cache_info().currsize,
    }
