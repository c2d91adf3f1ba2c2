"""Weighted counts of integral ribbon graphs with prescribed boundary.

``count(g, n, p)`` evaluates N_{g,n}(p): the automorphism-weighted number
of connected ribbon graphs of genus g whose n labeled boundary components
have integer perimeters p = (p_1..p_n), every vertex of valence >= 3,
each graph weighted by the number of integer edge-length assignments
realizing the perimeters (divided by |Aut|).

Values are produced by the edge-removal recursion on the complexity
2g - 2 + n (Norbury, arXiv:0801.4590).  Write p_1 for the pivot, the
largest perimeter, rest for the other n - 1, rest_j for rest without p_j,
and

    S_j(P) = sum_{0<q<P} q (P-q) N_{g,n-1}(q, rest_j)
    X(q_1, q_2) = N_{g-1,n+1}(q_1, q_2, rest)
                  + sum over ordered stable splittings of N N.

Then

    p_1 N_{g,n}(p) =
      1/2 sum_j [ S_j(p_1+p_j) + S_j(p_1-p_j) ]
    + 1/2 sum_{q_1+q_2 < p_1} q_1 q_2 (p_1-q_1-q_2) X(q_1, q_2)

(S_j(0) = 0).  At any other pivot the recursion holds with a third term,
-S_j(p_j-p_1) for each p_j > p_1, which the largest never has.  Base cases

    N_{0,3}(p) = 1 if p_1+p_2+p_3 is even else 0
    N_{1,1}(p) = (p^2 - 4)/48 if p is even else 0.

Neither sum is looped over per entry; both are read from prefix moments.

* The j-sums.  With M1[m] = sum_{q<m} q N(q, rest_j) and
  M2[m] = sum_{q<m} q^2 N(q, rest_j), S_j(P) = P M1[P] - M2[P].  One
  table per (g, n-1, rest_j) holds M1 and M2, grown to the largest P
  asked for, so each of the two terms is one table read.
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
becomes a Fraction only once, when it is cached.  Every table is built
once by a private builder under ``functools.cache``; the recursion's is
keyed by (g, n, perimeters sorted descending), so the pivot slot holds
the largest perimeter, and holds no zero total and no base case.

A single count far from the small perimeters is not run up to p.  Write
d = 3g - 3 + n and r_j = 2 - (p_j mod 2).  On the parity class of p, N_{g,n}
is a polynomial of total degree at most d in p_1^2 .. p_n^2 (Norbury,
*Counting lattice points in the moduli space of curves*, arXiv:0801.4590).
The recursion gives its values on the lower set p = 2k + r, sum(k) <= d:
C(d + n, n) points, with perimeter sums at most R = 2d + 2n.  A lower set
with distinct nodes on each axis is unisolvent (Dyn and Floater,
*Multivariate polynomial interpolation on lower sets*, J. Approx. Theory
177 (2014)), so divided differences taken one axis at a time in
x_j = p_j^2 give the Newton coefficients C_k, integer numerators over one
denominator, cached per (g, n, number of odd perimeters).  Then

    N_{g,n}(p) = sum_k C_k prod_j B_j[k_j],
    B_j[m] = prod_{i<m} (p_j^2 - (2i + r_j)^2).

``count`` takes this route for an even sum past R and from nR/2 on
(``_by_class``), and the recursion otherwise.  A ``census`` holds every
grid, so it takes the route for every even sum past R, evaluating each
class polynomial once over all of the class's vectors, and asks ``count``
for those up to R.  It keeps each value as the ``"num/den"`` text of its
cache file, and every census text, cache file included, is filled from
one row template.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from functools import cache, partial
from itertools import chain, repeat
from math import comb, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Sequence

from ._version import __version__
from .surface import _check_int, check_stable, enumerate_splittings, perimeter_vectors, swap_classes

_ZERO = Fraction(0)
_odd = (1).__and__  # x -> x & 1, the parity of a perimeter

# the moment tables grow by check-then-append: one recursion runs at a time
_lock = threading.RLock()  # reentrant: ``census`` calls ``count`` under it


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


def count(g: int, n: int, p: Sequence[int]) -> Fraction:
    """N_{g,n}(p) for a stable (g, n) and positive integer perimeters: off
    the class polynomial of p when ``_by_class`` says so, else by recursion."""
    check_stable(g, n)
    if len(p) != n:
        raise ValueError(f"expected {n} perimeters, got {len(p)}")
    for x in p:
        _check_int("perimeter", x, 1)
    with _lock:
        if _by_class(g, n, sum(p)):
            (num,), den = _class_values(g, n, [p])
            return Fraction(num, den)
        return _N(g, n, tuple(sorted(p, reverse=True)))


def _by_class(g: int, n: int, total: int) -> bool:
    """Whether the class polynomial is the cheaper route to a count of even
    perimeter sum ``total``: past R = 2d + 2n, the largest sum on its grid,
    and from nR/2 on.  The grid's C(d + n, n) points are all of the class up
    to R, while the recursion at one point reaches a thinner slice of them
    the more boundaries there are, so the break-even sum grows with n."""
    if total % 2:
        return False
    big = _grid_bound(g, n)
    return total > big and 2 * total >= n * big


def _grid_bound(g: int, n: int) -> int:
    return 2 * (3 * g - 3 + n) + 2 * n  # R = 2d + 2n, the largest sum on a class grid


def _class_values(g: int, n: int, vectors: list) -> tuple[list[int], int]:
    """N_{g,n} at each of ``vectors``, even sums with one number of odd
    entries, off their parity-class polynomial in the p_j^2 (Newton basis):
    numerators over the table's denominator.  Slot j's base rows stand as
    columns B_j[m] over all the vectors, so each term C_k is one pass."""
    grid, nums, den = _class_table(g, n, sum(map(_odd, vectors[0])))
    d = 3 * g - 3 + n
    # each vector's odd entries first, as in its class table
    slots = zip(*(sorted(p, key=_odd, reverse=True) for p in vectors))
    columns = [list(zip(*map(_base_row, slot, repeat(d)))) for slot in slots]
    total = [0] * len(vectors)
    for k, c in zip(grid, nums):
        term = repeat(c)
        for column, m in zip(columns, k):
            if m:  # B_j[0] = 1
                term = map(mul, term, column[m])
        total = list(map(add, total, term))
    return total, den


@cache
def _base_row(p: int, d: int) -> tuple[int, ...]:
    """B[0..d] for the perimeter p: B[m] = prod_{i<m} (p^2 - (2i + r)^2)."""
    u, r, b = p * p, 2 - p % 2, [1]
    for i in range(d):
        b.append(b[-1] * (u - (2 * i + r) ** 2))
    return tuple(b)


@cache
def _class_table(g: int, n: int, odd: int) -> tuple:
    """Interpolate N_{g,n} on the class of vectors whose first ``odd``
    entries are odd, p = 2k + r with r_j = 1 there and 2 after, from its
    values on the lower set sum(k) <= d by divided differences one axis at
    a time in x_j = p_j^2; kept as nonzero numerators over one denominator."""
    d = 3 * g - 3 + n
    r = (1,) * odd + (2,) * (n - odd)
    # k = v - 1 over the positive vectors v with sum(v) <= d + n
    grid = [tuple(v - 1 for v in vec) for vec in perimeter_vectors(n, d + n)]
    values = [_N(g, n, tuple(sorted((2 * k + rj for k, rj in zip(ks, r)), reverse=True)))
              for ks in grid]
    den = lcm(*(v.denominator for v in values))
    c = [v.numerator * (den // v.denominator) for v in values]
    where = {k: i for i, k in enumerate(grid)}
    for j in range(n):
        x = [(2 * i + r[j]) ** 2 for i in range(d + 1)]
        # a divided difference on nodes x_a .. x_b is a sum of values over
        # subproducts of these, so on integers times their lcm it is an integer
        scale = lcm(*(prod(x[t] - x[s] for s in range(d + 1) if s != t) for t in range(d + 1)))
        c = [v * scale for v in c]
        for k in grid:
            if k[j] == 0:
                line = [where[k[:j] + (m,) + k[j + 1 :]] for m in range(d - sum(k) + 1)]
                for level in range(1, len(line)):
                    for i in range(len(line) - 1, level - 1, -1):
                        c[line[i]] = (c[line[i]] - c[line[i - 1]]) // (x[i] - x[i - level])
        common = gcd(den * scale, *c)
        c = [v // common for v in c]
        den = den * scale // common
    kept = [i for i, v in enumerate(c) if v]
    return [grid[i] for i in kept], [c[i] for i in kept], den


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
    return _recursion(g, n, p)


def _descending(extra: tuple, spectators: tuple) -> tuple:
    return tuple(sorted(extra + spectators, reverse=True))


@cache
def _column(g: int, n: int, spectators: tuple) -> list:
    """Moments of q -> q N_{g,n}(q, spectators), spectators descending."""
    parity = sum(spectators) % 2

    def term(q: int) -> tuple[int, int]:
        if q == 0 or q % 2 != parity:
            return 0, 1
        v = _N(g, n, _descending((q,), spectators))
        return q * v.numerator, v.denominator

    return _moments(term)


@cache
def _splittings(g: int, m: int) -> tuple:
    """The swap classes of the splittings of g over the positions 0 .. m-1
    of the spectators; enumerated through this module's binding."""
    return swap_classes(enumerate_splittings(g, range(m)))


@cache
def _double_sum(g: int, n: int, rest: tuple) -> list:
    """Moments of the diagonal sums s -> D(s) for (g, n, rest), rest
    descending."""
    parity = sum(rest) % 2
    # (left column, right column, least q_1 with an even left total, orderings)
    pairs = []
    for sp, orderings in _splittings(g, len(rest)):
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

    return _moments(term)


@cache
def _recursion(g: int, n: int, p: tuple) -> Fraction:
    """N_{g,n}(p) off the right-hand side p1 N_{g,n}(p) of the recursion:
    p1 = p[0] is the largest perimeter and rest = p[1:] the others, sorted
    descending, so p1 - pj >= 0 and the negatively signed j-term never
    occurs."""
    p1, rest = p[0], p[1:]
    terms = []
    for idx, pj in enumerate(rest):
        column = _column(g, n - 1, rest[:idx] + rest[idx + 1 :])
        terms.append(_weighted(column, p1 + pj))
        terms.append(_weighted(column, p1 - pj))
    if g >= 1 or _splittings(g, len(rest)):
        terms.append(_weighted(_double_sum(g, n, rest), p1))
    num, den = _fsum(terms)
    return Fraction(num, 2 * den * p1)


# the original builders, so that emptying them ignores a name patched over
_BUILDERS = (_recursion, _column, _splittings, _double_sum, _class_table, _base_row)


def _clear() -> None:
    """Empty every cached table: counts, moments, splittings, class
    polynomials and base rows."""
    with _lock:
        for builder in _BUILDERS:
            builder.cache_clear()


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
    """All counts for one (g, n) with total perimeter up to ``max_sum``:
    ``text`` holds one ``(vector, "num/den")`` pair per nondecreasing
    perimeter vector, in vector order, the reduced text that every output
    prints as is.  The text, CSV and JSON outputs and the cache file each
    fill one row template with all of the rows (``_fill``)."""

    __slots__ = ("g", "n", "max_sum", "text")

    def __init__(self, g: int, n: int, max_sum: int, text: list[tuple[tuple, str]]):
        self.g, self.n, self.max_sum, self.text = g, n, max_sum, text

    @property
    def entries(self) -> dict[tuple, Fraction]:
        return dict(self.rows())

    def rows(self) -> list[tuple[tuple, Fraction]]:
        return [(p, Fraction(text)) for p, text in self.text]

    def csv_text(self) -> str:
        header = ["g", "n"] + [f"p_{j + 1}" for j in range(self.n)] + ["numerator", "denominator"]
        rows = self._fill(f"{self.g},{self.n},", ",", ",%s\n")
        return ",".join(header) + "\n" + rows.replace("/", ",")

    def to_json_dict(self) -> dict:
        return {
            "format": "ribbonvol-census",
            "version": __version__,
            "g": self.g,
            "n": self.n,
            "max_sum": self.max_sum,
            "entries": [[list(p), text] for p, text in self.text],
        }

    def _fill(self, start: str, between: str, end: str, sep: str = "", dumps=None) -> str:
        """Every row in vector order: ``start``, the vector's entries joined by
        ``between``, then ``end``, whose ``%s`` is the value text; the rows
        joined by ``sep`` and filled by ``%`` passes over the flattened
        rows.  Given ``dumps``, a JSON encoder with sorted keys, they are the
        entries of ``dumps(self.to_json_dict())`` (``sep`` its item separator)."""
        row = start + between.join(["%d"] * self.n) + end
        # 4096 rows to a pass, so that no flattened tuple grows with the table
        parts = (self.text[i : i + 4096] for i in range(0, len(self.text), 4096))
        rows = sep.join(sep.join([row] * len(part)) % tuple(chain.from_iterable(p + (v,) for p, v in part))
                        for part in parts)
        if dumps is None:
            return rows
        # the document encoded with one placeholder entry, which the rows replace
        doc = CountTable(self.g, self.n, self.max_sum, []).to_json_dict() | {"entries": ["%s"]}
        return dumps(doc).replace('"%s"', rows, 1)


def census(g: int, n: int, max_sum: int, cache_dir: str | None = None) -> CountTable:
    """Tabulate N_{g,n} over every perimeter vector with sum <= max_sum, in
    one pass under one lock: an odd total is 0, an even one up to R = 2d + 2n
    comes from ``count`` (the recursion there) and those past R off their
    class polynomials, one evaluation per class.  Values are kept as
    ``"num/den"`` text; a table read from its cache calls no ``count``.

    When ``cache_dir`` (or the RIBBONVOL_CACHE_DIR environment variable)
    is set, the table is read from / written to a JSON file addressed by
    (g, n, max_sum); a file is used, its text as the rows, only if it is
    field by field the writer's document (``_load_cache``), and is
    otherwise recomputed and replaced.  The directory is made before
    anything is computed; an unusable one raises ``OSError``
    (``NotADirectoryError`` for a file).  A ``max_sum`` below ``n`` admits
    no vector and is rejected rather than answered with an empty table.
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
    big, text, classes = _grid_bound(g, n), [], {}
    with _lock:
        for p in perimeter_vectors(n, max_sum, ascending=True):
            if (total := sum(p)) % 2:
                text.append((p, "0/1"))
            elif total <= big:
                v = count(g, n, p)
                text.append((p, f"{v.numerator}/{v.denominator}"))
            else:  # filled in below, with the rest of its parity class
                classes.setdefault(sum(map(_odd, p)), []).append(len(text))
                text.append(p)
        for rows in classes.values():
            nums, den = _class_values(g, n, [text[i] for i in rows])
            for i, num in zip(rows, nums):
                c = gcd(num, den)
                text[i] = (text[i], f"{num // c}/{den // c}")
    table = CountTable(g, n, max_sum, text)
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
            compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))
            fh.write(table._fill("[[", ",", '],"%s"]', ",", compact))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_cache(path, g, n, max_sum):
    """The table in ``path``, its text as the rows, or None unless the decoded
    file is field by field the writer's: its six keys, one ``[vector, "a/b"]``
    per vector in order, each the reduced ``f"{a}/{b}"`` with b > 0, and every
    number an ``int``, as ``==`` alone takes ``true`` or ``6.0`` for 1 or 6."""
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        head = [doc["format"], doc["version"], doc["g"], doc["n"], doc["max_sum"]]
        if len(doc) != 6 or head != ["ribbonvol-census", __version__, g, n, max_sum]:
            return None
        text = []
        for p, (vector, value) in zip(perimeter_vectors(n, max_sum, ascending=True), doc["entries"], strict=True):
            num, den = map(int, value.split("/"))
            if tuple(vector) != p or den <= 0 or gcd(num, den) != 1 or f"{num}/{den}" != value:
                return None
            text.append((p, value))
        numbers = chain(head[2:], *(vector for vector, _ in doc["entries"]))
    except (OSError, ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None
    return CountTable(g, n, max_sum, text) if set(map(type, numbers)) == {int} else None
