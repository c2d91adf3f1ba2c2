"""Run the ribbonvol CLI with a span around every call into its modules.

Usage (``PYTHONPATH`` must hold the ``src/`` under test)::

    python perfbench/traced_cli.py SPAN_FILE <ribbonvol arguments...>

After importing the package this replaces every public function and
public method (plus the arithmetic dunders of ``EvenLaurentPoly``) defined
in a ``ribbonvol`` module with a wrapper that records a span.  Modules bind
each other's functions with ``from .x import y``, so the wrapper is
installed in every namespace that holds the function -- patching only the
defining module would miss ``transform.divided_difference``,
``lattice.enumerate_splittings``, ``cli.count`` and the like.

A few calls feed extra counters: fresh ``compute`` tables (terms and
coefficient bit length), ``verify_eo`` trials, ``series_identity`` lattice
points, calls through ``lattice.enumerate_splittings`` (the memo misses
of the lattice recursion), ``census`` cache hits and the bytes ``census``
reads and writes.
Spans stay in memory and are written to SPAN_FILE when the CLI returns.
The standard output is exactly the CLI's.
"""

from __future__ import annotations

import builtins
import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import sys
from pathlib import Path

from spans import SpanLog

#: Dunders worth a span: the ring operations and construction.
DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__eq__")


def _modules():
    import ribbonvol

    mods = {"ribbonvol": ribbonvol}
    for info in pkgutil.iter_modules(ribbonvol.__path__):
        if not info.name.startswith("_"):
            mods[info.name] = importlib.import_module(f"ribbonvol.{info.name}")
    return mods


def _targets(mods):
    """Map each traceable function object to its span name."""
    out = {}
    for short, mod in mods.items():
        for attr, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value) and not attr.startswith("_"):
                out[value] = f"{short}.{attr}"
            elif inspect.isclass(value) and not dataclasses.is_dataclass(value):
                for meth, fn in vars(value).items():
                    if inspect.isfunction(fn) and (not meth.startswith("_") or meth in DUNDERS):
                        out.setdefault(fn, f"{short}.{value.__name__}.{meth}")
    return out


#: (namespace, span name) -> counter bumped on every call through that
#: binding.  Each memo miss of the lattice recursion evaluates the
#: right-hand side, which starts with one ``enumerate_splittings`` call.
CALL_COUNTERS = {("lattice", "surface.enumerate_splittings"): "lattice.rhs_evals"}


def _wrap(log: SpanLog, fn, name: str, counter: str | None, hook):
    name_id = log.name_id(name)
    span_open, span_close, bump = log.open, log.close, log.add

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            bump(counter)
        idx = span_open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span_close(idx)
        if hook is not None:
            hook(idx, args, result)
        return result

    return wrapper


def _hooks(log: SpanLog):
    fresh = set()
    count_id = log.name_id("lattice.count")

    def compute(idx, args, poly):
        config, g, n = args[:3]
        if (config.name, g, n) in fresh:
            return
        fresh.add((config.name, g, n))
        log.add("transform.compute.fresh")
        log.add("transform.terms", len(poly.terms))
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
            default=0,
        )
        log.peak("transform.coeff_bits_max", bits)

    def verify_eo(idx, args, results):
        log.add("eo.trials", len(results))

    def series_identity(idx, args, checked):
        log.add("crosscheck.series_identity.points", checked)

    def census(idx, args, table):
        # a table served from the cache never reaches ``count``
        if count_id not in log.name[idx + 1 :]:
            log.add("lattice.census.cache_hits")

    return {
        "transform.compute": compute,
        "eo.verify_eo": verify_eo,
        "crosscheck.series_identity": series_identity,
        "lattice.census": census,
    }


class _CountingFile:
    """File proxy that adds the characters it moves to a counter."""

    def __init__(self, fh, log: SpanLog):
        self._fh = fh
        self._log = log

    def read(self, *args):
        data = self._fh.read(*args)
        self._log.add("lattice.census.bytes_read", len(data))
        return data

    def write(self, data):
        self._log.add("lattice.census.bytes_written", len(data))
        return self._fh.write(data)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _count_census_io(log: SpanLog) -> None:
    """Count file traffic that happens inside a ``census`` call."""
    census_id = log.name_id("lattice.census")

    def counting(opener):
        def wrapped(*args, **kwargs):
            fh = opener(*args, **kwargs)
            if any(log.name[i] == census_id for i in log.stack):
                return _CountingFile(fh, log)
            return fh

        return wrapped

    builtins.open = counting(builtins.open)
    os.fdopen = counting(os.fdopen)


def install(log: SpanLog) -> None:
    mods = _modules()
    names = _targets(mods)
    hooks = _hooks(log)
    namespaces = list(mods.items())
    namespaces += [
        (short, value)
        for short, mod in mods.items()
        for value in vars(mod).values()
        if inspect.isclass(value) and value.__module__ == mod.__name__
    ]
    for short, ns in namespaces:
        for attr, value in list(vars(ns).items()):
            name = names.get(value) if inspect.isfunction(value) else None
            if name is None:
                continue
            counter = CALL_COUNTERS.get((short, name))
            setattr(ns, attr, _wrap(log, value, name, counter, hooks.get(name)))
    _count_census_io(log)


def main(argv: list[str]) -> int:
    span_file = Path(argv[0])
    log = SpanLog()
    idx = log.open(log.name_id("cli.import"))
    import ribbonvol.cli

    log.close(idx)
    install(log)
    try:
        return ribbonvol.cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        log.dump(span_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
