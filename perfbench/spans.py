"""In-memory spans for the traced run, and the arithmetic on them.

A span is ``(name, start, end, parent)``: ``name`` indexes a name table,
``start``/``end`` are ``time.perf_counter`` readings and ``parent`` is the
index of the enclosing span, or -1.  The traced child (``traced_cli.py``)
keeps them in flat arrays while the CLI runs and writes them in one go at
exit; the benchmark reads them back and turns them into per-name call
counts and self times.  Nothing here imports ``ribbonvol``.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path


class SpanLog:
    """Spans of one process, kept in flat arrays until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def dump(self, path: Path) -> None:
        """Write ``path`` (JSON header) and ``path.bin`` (the four arrays)."""
        header = {"names": self.names, "count": len(self.name), "counters": self.counters}
        with open(str(path) + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        path.write_text(json.dumps(header), encoding="utf-8")


def load(path: Path):
    """Read a dump back as ``(names, (name, parent, start, end), counters)``."""
    header = json.loads(path.read_text(encoding="utf-8"))
    count = header["count"]
    arrays = (array("i"), array("q"), array("d"), array("d"))
    with open(str(path) + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return header["names"], arrays, header["counters"]


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint
    intervals inside it and their durations sum to the part they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for idx, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[idx] - start[idx]
    return out


def aggregate(names, name, parent, start, end) -> dict[str, dict[str, float]]:
    """``{span name: {"calls": n, "self_s": seconds}}``."""
    out = {label: {"calls": 0, "self_s": 0.0} for label in names}
    for name_id, own in zip(name, self_times(parent, start, end)):
        row = out[names[name_id]]
        row["calls"] += 1
        row["self_s"] += own
    return out
