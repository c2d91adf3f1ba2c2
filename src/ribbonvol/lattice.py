"""Weighted counts of integral ribbon graphs with prescribed boundary.

``count(g, n, p)`` evaluates N_{g,n}(p): the automorphism-weighted number
of connected ribbon graphs of genus g whose n labeled boundary components
have integer perimeters p = (p_1..p_n), every vertex of valence >= 3,
each graph weighted by the number of integer edge-length assignments
realizing the perimeters (divided by |Aut|).

Values are produced by the edge-removal recursion on the complexity
2g - 2 + n (Norbury, arXiv:0801.4590).  Write p_1 for the pivot
perimeter, rest for the other n - 1, rest_j for rest without p_j, H for
the strict Heaviside step (H(x) = 1 for x > 0, else 0), and

    S_j(P) = sum_{0<q<P} q (P-q) N_{g,n-1}(q, rest_j)
    X(q_1, q_2) = N_{g-1,n+1}(q_1, q_2, rest)
                  + sum over ordered stable splittings of N N.

Then

    p_1 N_{g,n}(p) =
      1/2 sum_j [ S_j(p_1+p_j) + H(p_1-p_j) S_j(p_1-p_j) - H(p_j-p_1) S_j(p_j-p_1) ]
    + 1/2 sum_{q_1+q_2 < p_1} q_1 q_2 (p_1-q_1-q_2) X(q_1, q_2)

with base cases

    N_{0,3}(p) = 1 if p_1+p_2+p_3 is even else 0
    N_{1,1}(p) = (p^2 - 4)/48 if p is even else 0.

Neither sum is looped over per entry; both are read from prefix moments.

* The j-sums.  With M1[m] = sum_{q<m} q N(q, rest_j) and
  M2[m] = sum_{q<m} q^2 N(q, rest_j), S_j(P) = P M1[P] - M2[P].  One
  table per (g, n-1, rest_j) holds M1 and M2, grown to the largest P
  asked for, so each of the three terms is one table read.
* The double sum.  Grouping by s = q_1 + q_2, with the diagonal sums
  D(s) = sum_{q_1+q_2=s} q_1 q_2 X(q_1, q_2), B0[m] = sum_{s<m} D(s)
  and B1[m] = sum_{s<m} s D(s), it is p_1 B0[p_1] - B1[p_1], one table
  per (g, n, rest).  The splittings in X depend only on g and the number
  of spectators, so they are enumerated once per (g, len(rest)), on
  positions of rest.  A splitting and its swap have one convolution, so
  each class of ``surface.swap_classes`` is convolved once and weighed.
* Parity.  N vanishes whenever the total perimeter is odd (every ribbon
  graph edge is shared by two boundary arcs).  So D(s) = 0 whenever
  s + sum(rest) is odd: the genus term then has an odd total, and so
  does one factor of every splitting product.  Those s are skipped
  without evaluating either factor.

Every table holds Python integers: the numerators of its entries and of
both prefix sums over one table denominator.  An entry whose denominator
does not divide it raises it to their lcm and rescales the numerators in
place.  So the regrouped sums equal the direct loops exactly, and a count
becomes a Fraction only once, when it is memoized.  The memo table is
keyed by (g, n, sorted perimeters); since N is symmetric, any entry may
serve as the pivot, and we always rotate the largest one into the pivot
slot (which also kills the third, negatively signed term).
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from itertools import chain
from math import comb, lcm
from operator import itemgetter, mul
from typing import Callable, Mapping, Sequence

from ._version import __version__
from .surface import _check_int, check_stable, enumerate_splittings, perimeter_vectors, swap_classes

_ZERO = Fraction(0)

_memo: dict[tuple, Fraction] = {}
# (g, n, spectators) -> moments of q -> q N_{g,n}(q, spectators)
_columns: dict[tuple, list] = {}
# (g, n, rest) -> moments of s -> D(s)
_diagonals: dict[tuple, list] = {}
# (g, len(rest)) -> the swap classes of splittings of g over the positions of rest
_splittings: dict[tuple, tuple] = {}
# the tables grow by check-then-append: one recursion runs at a time
_lock = threading.Lock()


# A moment table is [term, a, A0, A1, den]: the sequence a(k) = term(k),
# evaluated on demand, and its prefix sums A0[m] = sum_{k<m} a(k) and
# A1[m] = sum_{k<m} k a(k), all three lists held as integer numerators over
# the one denominator den.  term returns (numerator, denominator).


def _moments(term: Callable[[int], tuple[int, int]]) -> list:
    return [term, [], [0], [0], 1]


def _extend(table: list, size: int) -> list[int]:
    """The numerators of a(0) .. a(size - 1), or more, over ``table[4]``.
    A new denominator rescales all three lists in place, so read
    ``table[4]`` after the last extension."""
    term, a = table[0], table[1]
    while len(a) < size:
        num, den = term(len(a))
        if num and table[4] % den:
            scale = lcm(table[4], den) // table[4]
            for lst in table[1:4]:
                lst[:] = [x * scale for x in lst]
            table[4] *= scale
        a.append(num * (table[4] // den))
    return a


def _weighted(table: list, P: int) -> tuple[int, int]:
    """sum_{k<P} (P - k) a(k) = P A0[P] - A1[P], as (numerator, denominator)."""
    a = _extend(table, P)
    a0, a1 = table[2], table[3]
    for k in range(len(a0) - 1, P):
        a0.append(a0[-1] + a[k])
        a1.append(a1[-1] + k * a[k])
    return P * a0[P] - a1[P], table[4]


def _fsum(terms) -> tuple[int, int]:
    """Sum (numerator, denominator) pairs as integers over a running
    common denominator, the lcm of those seen so far."""
    num, den = 0, 1
    for tn, td in terms:
        if den % td:
            m = lcm(den, td)
            num *= m // den
            den = m
        num += tn * (den // td)
    return num, den


def _clear() -> None:
    """Empty the memo, the moment tables and the splittings."""
    with _lock:
        for table in (_memo, _columns, _diagonals, _splittings):
            table.clear()


def _perimeters(g: int, n: int, p: Sequence[int]) -> tuple:
    check_stable(g, n)
    if len(p) != n:
        raise ValueError(f"expected {n} perimeters, got {len(p)}")
    for x in p:
        _check_int("perimeter", x, 1)
    return tuple(p)


def count(g: int, n: int, p: Sequence[int]) -> Fraction:
    """N_{g,n}(p) for a stable (g, n) and positive integer perimeters."""
    key = tuple(sorted(_perimeters(g, n, p), reverse=True))
    with _lock:
        return _N(g, n, key)


def _N(g: int, n: int, p: tuple) -> Fraction:
    # p sorted descending, entries >= 1; a graph has at least 2g - 1 + n
    # edges, each counted twice in sum(p)
    total = sum(p)
    if total % 2 or total < 4 * g - 2 + 2 * n:
        return _ZERO
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(p[0] ** 2 - 4, 48)
    key = (g, n, p)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    num, den = _rhs(g, n, p[0], p[1:])
    _memo[key] = value = Fraction(num, den * p[0])
    return value


def _descending(extra: tuple, spectators: tuple) -> tuple:
    return tuple(sorted(extra + spectators, reverse=True))


def _column(g: int, n: int, spectators: tuple) -> list:
    """Moments of q -> q N_{g,n}(q, spectators), spectators descending."""
    key = (g, n, spectators)
    table = _columns.get(key)
    if table is None:
        parity = sum(spectators) % 2

        def term(q: int) -> tuple[int, int]:
            if q == 0 or q % 2 != parity:
                return 0, 1
            v = _N(g, n, _descending((q,), spectators))
            return q * v.numerator, v.denominator

        table = _columns[key] = _moments(term)
    return table


def _double_sum(g: int, n: int, rest: tuple, splittings) -> list:
    """Moments of the diagonal sums s -> D(s) for (g, n, rest), rest
    descending; ``splittings`` are swap classes on positions of rest."""
    key = (g, n, rest)
    table = _diagonals.get(key)
    if table is not None:
        return table
    parity = sum(rest) % 2
    # (left column, right column, least q_1 with an even left total, orderings)
    pairs = []
    for sp, orderings in splittings:
        left = tuple(rest[i] for i in sp.part1)
        right = tuple(rest[i] for i in sp.part2)
        pairs.append((_column(sp.g1, len(left) + 1, left), _column(sp.g2, len(right) + 1, right),
                      2 - sum(left) % 2, orderings))

    def products(s: int):
        """(numerator, denominator) pairs summing to D(s): one per genus
        term, one per swap class of splittings."""
        if g >= 1:
            # X is symmetric in q_1, q_2: fold q_1 > q_2 onto q_1 < q_2
            for q1 in range(1, s // 2 + 1):
                q2 = s - q1
                v = _N(g - 1, n + 1, _descending((q1, q2), rest))
                if v:
                    w = q1 * q2 if q1 == q2 else 2 * q1 * q2
                    yield w * v.numerator, v.denominator
        for left, right, first, orderings in pairs:
            a = _extend(left, s)
            b = _extend(right, s)
            # sum over q_1 = first, first + 2, .. < s of a[q_1] b[s - q_1]
            conv = sum(map(mul, a[first:s:2], b[s - first : 0 : -2]))
            if conv:
                yield orderings * conv, left[4] * right[4]

    def term(s: int) -> tuple[int, int]:
        if s % 2 != parity:
            return 0, 1
        return _fsum(products(s))

    table = _diagonals[key] = _moments(term)
    return table


def _rhs(g: int, n: int, p1: int, rest: tuple) -> tuple[int, int]:
    """Right-hand side of the recursion, p1 N_{g,n}(p), as (numerator,
    denominator) for an arbitrary pivot perimeter ``p1``; ``rest`` sorted
    descending."""
    shape = (g, len(rest))
    splittings = _splittings.get(shape)
    if splittings is None:
        splittings = _splittings[shape] = swap_classes(enumerate_splittings(g, range(len(rest))))
    terms = []
    for idx, pj in enumerate(rest):
        column = _column(g, n - 1, rest[:idx] + rest[idx + 1 :])
        terms.append(_weighted(column, p1 + pj))
        if p1 > pj:
            terms.append(_weighted(column, p1 - pj))
        elif pj > p1:
            num, den = _weighted(column, pj - p1)
            terms.append((-num, den))
    if g >= 1 or splittings:
        terms.append(_weighted(_double_sum(g, n, rest, splittings), p1))
    num, den = _fsum(terms)
    return num, 2 * den


def recursion_rhs(g: int, n: int, p: Sequence[int], pivot: int) -> Fraction:
    """Evaluate the recursion with ``p[pivot]`` as the distinguished
    perimeter and return the implied value of N_{g,n}(p).

    The recursion holds with any entry in the pivot slot; tests compare
    this against ``count`` for every pivot.
    """
    p = _perimeters(g, n, p)
    if (g, n) in ((0, 3), (1, 1)):
        raise ValueError(f"({g}, {n}) is a base case, not produced by the recursion")
    _check_int("pivot", pivot, 0, n)
    if sum(p) % 2:
        return _ZERO
    rest = tuple(sorted(p[:pivot] + p[pivot + 1 :], reverse=True))
    with _lock:
        num, den = _rhs(g, n, p[pivot], rest)
    return Fraction(num, den * p[pivot])


def oracle_n11(p: int) -> Fraction:
    """Independent count for (g, n) = (1, 1): the one-vertex enumeration.

    For perimeter p = 2q the two trivalent-collapse graph shapes
    contribute C(q-1, 2)/6 and (q-1)/4 (automorphism orders 6 and 4).
    Odd perimeters admit no graph.
    """
    _check_int("p", p, 1)
    if p % 2:
        return _ZERO
    q = p // 2
    return Fraction(comb(q - 1, 2), 6) + Fraction(q - 1, 4)


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
        lines += [
            f"{self.g},{self.n},{','.join(map(str, p))},{v.numerator},{v.denominator}"
            for p, v in self.rows()
        ]
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


def census(g: int, n: int, max_sum: int, cache_dir: str | None = None) -> CountTable:
    """Tabulate N_{g,n} over every perimeter vector with sum <= max_sum.

    When ``cache_dir`` (or the RIBBONVOL_CACHE_DIR environment variable)
    is set, the table is read from / written to a JSON file addressed by
    (g, n, max_sum); a file is used only if the table read from it writes
    back the same document (``_load_cache``), and is otherwise recomputed
    and replaced.  The directory is made before anything is computed; an
    unusable one raises ``OSError`` (``NotADirectoryError`` for a file).
    A ``max_sum`` below ``n`` admits no vector and is rejected rather than
    answered with an empty table.
    """
    check_stable(g, n)
    _check_int("max_sum", max_sum, n)
    cache_dir = cache_dir or os.environ.get("RIBBONVOL_CACHE_DIR")
    path = None
    if cache_dir:
        if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
            raise NotADirectoryError(f"cache directory {cache_dir!r} is not a directory")
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except ValueError as exc:  # a path the OS cannot name, such as one with a NUL byte
            raise OSError(f"cache directory {cache_dir!r}: {exc}") from None
        path = os.path.join(cache_dir, f"census-g{g}-n{n}-P{max_sum}.json")
        table = _load_cache(path, g, n, max_sum)
        if table is not None:
            return table
    entries = {p: count(g, n, p) for p in perimeter_vectors(n, max_sum, ascending=True)}
    table = CountTable(g, n, max_sum, entries)
    if path:
        _write_cache(path, table)
    return table


def _write_cache(path: str, table: CountTable) -> None:
    """Write through a private temporary file, so that concurrent writers
    of one table never share a partial file, then move it into place."""
    import json
    import tempfile

    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # json.dumps without indent is the C encoder; json.dump never is
            fh.write(json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_cache(path, g, n, max_sum):
    """The table in ``path``, or None unless its values, one per vector of the table in order,
    build a table whose ``to_json_dict()`` equals the decoded file and its every number is an
    ``int``: ``==`` alone takes a ``true`` or ``6.0`` where the writer puts ``1`` or ``6``."""
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        vectors = perimeter_vectors(n, max_sum, ascending=True)
        entries = {}
        for p, (_, value) in zip(vectors, doc["entries"], strict=True):
            num, den = value.split("/")
            entries[p] = Fraction(int(num), int(den))
        numbers = chain((doc["g"], doc["n"], doc["max_sum"]), *map(itemgetter(0), doc["entries"]))
    except (OSError, ValueError, TypeError, KeyError, AttributeError, ZeroDivisionError):
        return None
    table = CountTable(g, n, max_sum, entries)
    return table if table.to_json_dict() == doc and set(map(type, numbers)) == {int} else None
