"""Weighted counts of integral ribbon graphs with prescribed boundary.

``count(g, n, p)`` evaluates N_{g,n}(p): the automorphism-weighted number
of connected ribbon graphs of genus g whose n labeled boundary components
have integer perimeters p = (p_1..p_n), every vertex of valence >= 3,
each graph weighted by the number of integer edge-length assignments
realizing the perimeters (divided by |Aut|).

Values are produced by an edge-removal recursion on the complexity
2g - 2 + n.  Writing p_1 for the pivot perimeter and H for the strict
Heaviside step (H(x) = 1 for x > 0, else 0):

    p_1 N_{g,n}(p) =
      1/2 sum_j [ sum_{q=0}^{p_1+p_j} q (p_1+p_j-q) N_{g,n-1}(q, rest)
                + H(p_1-p_j) sum_{q=0}^{p_1-p_j} q (p_1-p_j-q) N_{g,n-1}(q, rest)
                - H(p_j-p_1) sum_{q=0}^{p_j-p_1} q (p_j-p_1-q) N_{g,n-1}(q, rest) ]
    + 1/2 sum_{q_1+q_2 <= p_1} q_1 q_2 (p_1-q_1-q_2)
          [ N_{g-1,n+1}(q_1, q_2, rest)
          + sum over ordered stable splittings N N ]

with base cases

    N_{0,3}(p) = 1 if p_1+p_2+p_3 is even else 0
    N_{1,1}(p) = (p^2 - 4)/48 if p is even else 0.

N vanishes whenever the total perimeter is odd (every ribbon graph edge
is shared by two boundary arcs), which prunes most of the q-sums.  The
memo table is keyed by (g, n, sorted perimeters); since N is symmetric,
any entry may serve as the pivot, and we always rotate the largest one
into the pivot slot (which also kills the third, negatively signed sum).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, Sequence

from ._version import __version__
from .surface import enumerate_splittings, is_stable

_ZERO = Fraction(0)

_memo: dict[tuple, Fraction] = {}


def count(g: int, n: int, p: Sequence[int]) -> Fraction:
    """N_{g,n}(p) for a stable (g, n) and positive integer perimeters."""
    if not is_stable(g, n):
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")
    if len(p) != n:
        raise ValueError(f"expected {n} perimeters, got {len(p)}")
    if not all(isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in p):
        raise ValueError("perimeters must be positive integers")
    return _N(g, n, tuple(sorted(p, reverse=True)))


def _N(g: int, n: int, p: tuple) -> Fraction:
    # p sorted descending, entries >= 1
    if sum(p) % 2:
        return _ZERO
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(p[0] ** 2 - 4, 48)
    key = (g, n, p)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    value = _rhs(g, n, p[0], p[1:]) / p[0]
    _memo[key] = value
    return value


def _sub(g, n, p):
    """Recurse on an unsorted perimeter tuple; 0 on any zero perimeter."""
    if 0 in p:
        return _ZERO
    return _N(g, n, tuple(sorted(p, reverse=True)))


def _rhs(g: int, n: int, p1: int, rest: tuple) -> Fraction:
    """Right-hand side of the recursion (already divided by nothing):
    the two 1/2-weighted sums, for an arbitrary pivot perimeter ``p1``."""
    total = _ZERO
    for idx in range(len(rest)):
        pj = rest[idx]
        others = rest[:idx] + rest[idx + 1 :]
        parity = sum(others) % 2
        s = _ZERO
        for q in range(2 - parity, p1 + pj, 2):
            s += q * (p1 + pj - q) * _sub(g, n - 1, (q,) + others)
        if p1 > pj:
            for q in range(2 - parity, p1 - pj, 2):
                s += q * (p1 - pj - q) * _sub(g, n - 1, (q,) + others)
        elif pj > p1:
            for q in range(2 - parity, pj - p1, 2):
                s -= q * (pj - p1 - q) * _sub(g, n - 1, (q,) + others)
        total += s

    splittings = enumerate_splittings(g, range(len(rest)))
    if g >= 1 or splittings:
        for q1 in range(1, p1 - 1):
            for q2 in range(1, p1 - q1):
                w = q1 * q2 * (p1 - q1 - q2)
                bracket = _ZERO
                if g >= 1:
                    bracket += _sub(g - 1, n + 1, (q1, q2) + rest)
                for sp in splittings:
                    left = _sub(sp.g1, len(sp.part1) + 1, (q1,) + tuple(rest[i] for i in sp.part1))
                    if left:
                        bracket += left * _sub(
                            sp.g2, len(sp.part2) + 1, (q2,) + tuple(rest[i] for i in sp.part2)
                        )
                if bracket:
                    total += w * bracket
    return total / 2


def recursion_rhs(g: int, n: int, p: Sequence[int], pivot: int) -> Fraction:
    """Evaluate the recursion with ``p[pivot]`` as the distinguished
    perimeter and return the implied value of N_{g,n}(p).

    The recursion holds with any entry in the pivot slot; tests compare
    this against ``count`` for every pivot.
    """
    if (g, n) in ((0, 3), (1, 1)):
        raise ValueError("base cases are not produced by the recursion")
    if not is_stable(g, n) or len(p) != n:
        raise ValueError("invalid surface data")
    if sum(p) % 2:
        return _ZERO
    rest = tuple(p[:pivot]) + tuple(p[pivot + 1 :])
    return _rhs(g, n, p[pivot], rest) / p[pivot]


def oracle_n11(p: int) -> Fraction:
    """Independent count for (g, n) = (1, 1): the one-vertex enumeration.

    For perimeter p = 2q the two trivalent-collapse graph shapes
    contribute C(q-1, 2)/6 and (q-1)/4 (automorphism orders 6 and 4).
    Odd perimeters admit no graph.
    """
    if p <= 0:
        raise ValueError("perimeter must be positive")
    if p % 2:
        return _ZERO
    q = p // 2
    return Fraction(comb(q - 1, 2), 6) + Fraction(q - 1, 4)


def oracle_n02(p1: int, p2: int) -> Fraction:
    """The cylinder count N_{0,2}(p1, p2) = delta_{p1 p2} / p1."""
    if p1 <= 0 or p2 <= 0:
        raise ValueError("perimeters must be positive")
    return Fraction(1, p1) if p1 == p2 else _ZERO


# ---------------------------------------------------------------------------
# census tables


class CountTable:
    """All counts for one (g, n) with total perimeter up to ``max_sum``,
    keyed by nondecreasing perimeter tuples."""

    __slots__ = ("g", "n", "max_sum", "entries")

    def __init__(self, g: int, n: int, max_sum: int, entries: Mapping[tuple, Fraction]):
        self.g = g
        self.n = n
        self.max_sum = max_sum
        self.entries = dict(entries)

    def rows(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self.entries.items())

    def csv_text(self) -> str:
        header = ["g", "n"] + [f"p_{j + 1}" for j in range(self.n)] + ["numerator", "denominator"]
        lines = [",".join(header)]
        for p, v in self.rows():
            lines.append(
                ",".join(
                    [str(self.g), str(self.n)]
                    + [str(x) for x in p]
                    + [str(v.numerator), str(v.denominator)]
                )
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "format": "ribbonvol-census",
            "version": __version__,
            "g": self.g,
            "n": self.n,
            "max_sum": self.max_sum,
            "entries": [
                [list(p), f"{v.numerator}/{v.denominator}"] for p, v in self.rows()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "CountTable":
        entries = {tuple(p): Fraction(v) for p, v in doc["entries"]}
        return cls(doc["g"], doc["n"], doc["max_sum"], entries)


def _ascending_vectors(n: int, max_sum: int, floor: int = 1) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(floor, max_sum - (n - 1) + 1):
        for tail in _ascending_vectors(n - 1, max_sum - first, first):
            yield (first,) + tail


def census(g: int, n: int, max_sum: int, cache_dir: str | None = None) -> CountTable:
    """Tabulate N_{g,n} over every perimeter vector with sum <= max_sum.

    When ``cache_dir`` (or the RIBBONVOL_CACHE_DIR environment variable)
    is set, the table is read from / written to a JSON file addressed by
    (g, n, max_sum); files written by a different package version are
    ignored and recomputed.  A ``max_sum`` below ``n`` admits no vector
    and is rejected rather than answered with an empty table.
    """
    if max_sum < n:
        raise ValueError(f"max_sum must be at least n = {n}: every perimeter is positive")
    cache_dir = cache_dir or os.environ.get("RIBBONVOL_CACHE_DIR")
    path = None
    if cache_dir:
        path = os.path.join(cache_dir, f"census-g{g}-n{n}-P{max_sum}.json")
        table = _load_cache(path, g, n, max_sum)
        if table is not None:
            return table
    entries = {p: count(g, n, p) for p in _ascending_vectors(n, max_sum)}
    table = CountTable(g, n, max_sum, entries)
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(table.to_json_dict(), fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
    return table


def _load_cache(path, g, n, max_sum):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if doc.get("format") != "ribbonvol-census" or doc.get("version") != __version__:
        return None
    if (doc.get("g"), doc.get("n"), doc.get("max_sum")) != (g, n, max_sum):
        return None
    return CountTable.from_json_dict(doc)
