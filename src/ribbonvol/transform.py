"""The Laplace-transformed recursion engine.

One engine, three configurations.  Each configuration produces, for every
stable (g, n), an even Laurent polynomial F_{g,n}(t_1..t_n):

* ``LAPLACE``     -- the Laplace transforms L_{g,n} of the integral
                     ribbon-graph counts (genuine Laurent polynomials,
                     dyadic coefficients);
* ``EUCLIDEAN``   -- the polynomial volumes V^E_{g,n} of the unit-edge
                     moduli (the top-degree part of L_{g,n});
* ``SYMPLECTIC``  -- the volumes V^S_{g,n} for twice the standard
                     symplectic form, proportional to V^E by the constant
                     2^{5g-5+2n}.

For n >= 2 the recursion reads, with u = t^2 and a configuration kernel
kappa(u):

    F_{g,n} = A * sum_{j=2}^{n} d/dt_j [ t_j * D_j ]  +  B * kappa(u_1) *
              [ F_{g-1,n+1}(t_1, t_1, rest)
                + sum over ordered stable splittings F F ]

where D_j is the divided difference of x |-> kappa(x^2) F_{g,n-1}(x, rest_j)
between the slots t_1 and t_j, and the genus term is dropped at g = 0.
Write F(a_1, rest) for the coefficient of u_1^{a_1} u_2^{a_2} .. u_n^{a_n}.
Coefficient by coefficient, both terms are finite sums of lookups into
smaller tables, with no division:

* the j-term is A sum_j (2a_j+1) s sum_e kappa_e F_{g,n-1}(a_1+a_j+1-e, rest_j),
  where s = +1 if a_1, a_j >= 0, -1 if both are negative, and 0
  otherwise: (u_1^k - u_j^k) / (u_1 - u_j) is a sum of u_1^{a_1} u_j^{a_j}
  with a_1 + a_j = k - 1, over nonnegative pairs for k > 0 and negative
  pairs, negated, for k < 0;
* the bracket is B sum_e kappa_e sum_{b+c=a_1-e} [F_{g-1,n+1}(b, c, rest)
  + sum over splittings F(b, rest_I) F(c, rest_J)], by the shapes
  (g_1, |I|, g_2, |J|) of ``surface.enumerate_splittings``, which
  ``surface.splitting_shapes`` lists.

Every F_{g,n} is S_n-symmetric, so a table keeps one row per sorted tail
rest = (a_2 <= .. <= a_n): integer numerators {a_1: numerator} over one
denominator per table.  Each formula scatters the rows of the lower tables
into these rows.  The splitting sum takes each pair of sorted tails once,
times the number of ways to place them in rest's slots, and each shape of
halves once per swap, weighed by ``surface.swap_classes``.  Slot 1 is
singled out, so an orbit with k distinct entries is computed k times, once
per distinct first entry; ``_check_orbits`` raises ``ArithmeticError``
unless the copies agree.  ``compute`` expands only the table asked for,
base tables included, into the full terms of an ``EvenLaurentPoly``: each
row's a_1 followed by every distinct ordering of its tail.
``kontsevich_ratio``, ``euclidean_matches_leading`` and
``intersection_numbers`` never expand: they read one coefficient per
orbit, at its sorted exponent vector, straight from the rows.

Tables are built top-down through one memo per entry of ``CONFIGS``, the
closed set ``compute`` accepts, and never updated once stored; expansions
are memoized apart.  Results are canonical (symmetric, exact), safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import NamedTuple

from .exactmath import EvenLaurentPoly
from .surface import check_stable, splitting_shapes, swap_classes


class RecursionConfig(NamedTuple):
    """One admissible configuration of the engine.

    ``kappa`` is a one-variable even Laurent polynomial in u = t^2;
    ``base_03`` and ``base_11`` seed the recursion at the two minimal
    surface types.
    """

    name: str
    a_factor: Fraction
    b_factor: Fraction
    kappa: EvenLaurentPoly
    base_03: EvenLaurentPoly
    base_11: EvenLaurentPoly


LAPLACE = RecursionConfig(
    name="laplace",
    a_factor=Fraction(-1, 16),
    b_factor=Fraction(-1, 32),
    # (u - 1)^3 / u
    kappa=EvenLaurentPoly(1, {(2,): 1, (1,): -3, (0,): 3, (-1,): -1}),
    # -(1/16) (1 - 1/(u1 u2 u3))
    base_03=EvenLaurentPoly(
        3, {(0, 0, 0): Fraction(-1, 16), (-1, -1, -1): Fraction(1, 16)}
    ),
    # -(1/128) (u - 1)^3 / u^2
    base_11=EvenLaurentPoly(
        1,
        {
            (1,): Fraction(-1, 128),
            (0,): Fraction(3, 128),
            (-1,): Fraction(-3, 128),
            (-2,): Fraction(1, 128),
        },
    ),
)

EUCLIDEAN = RecursionConfig(
    name="euclidean",
    a_factor=Fraction(-1, 16),
    b_factor=Fraction(-1, 32),
    kappa=EvenLaurentPoly(1, {(2,): 1}),
    base_03=EvenLaurentPoly.constant(3, Fraction(-1, 16)),
    base_11=EvenLaurentPoly(1, {(1,): Fraction(-1, 128)}),
)

SYMPLECTIC = RecursionConfig(
    name="symplectic",
    a_factor=Fraction(-1, 4),
    b_factor=Fraction(-1, 4),
    kappa=EvenLaurentPoly(1, {(2,): 1}),
    base_03=EvenLaurentPoly.constant(3, Fraction(-1, 8)),
    base_11=EvenLaurentPoly(1, {(1,): Fraction(-1, 32)}),
)

CONFIGS = {c.name: c for c in (LAPLACE, EUCLIDEAN, SYMPLECTIC)}


class _Table(NamedTuple):
    """F_{g,n} by S_n orbits: ``rows[rest][a_1] / den`` is its coefficient of
    u_1^{a_1} prod_j u_{j+1}^{rest_j}, for each sorted tail ``rest``."""

    den: int
    rows: dict


_tables: dict[str, dict[tuple[int, int], _Table]] = {name: {} for name in CONFIGS}
_polys: dict[str, dict[tuple[int, int], EvenLaurentPoly]] = {name: {} for name in CONFIGS}


def compute(config: RecursionConfig, g: int, n: int) -> EvenLaurentPoly:
    """F_{g,n} for one of ``CONFIGS`` (memoized); any other config raises ``ValueError``."""
    if not isinstance(config, RecursionConfig) or CONFIGS.get(config.name) != config:
        name = getattr(config, "name", config)
        raise ValueError(f"config {name!r} is not LAPLACE, EUCLIDEAN or SYMPLECTIC")
    check_stable(g, n)
    polys = _polys[config.name]
    if (g, n) not in polys:
        polys[(g, n)] = _expand(n, _table(config, g, n))
    return polys[(g, n)]


def _table(config: RecursionConfig, g: int, n: int) -> _Table:
    tables = _tables[config.name]
    table = tables.get((g, n))
    if table is None:
        if (g, n) in ((0, 3), (1, 1)):
            base = config.base_03 if n == 3 else config.base_11
            rows: dict[tuple, dict[int, int]] = {}
            for exps, c in base._num.items():
                rows.setdefault(tuple(sorted(exps[1:])), {})[exps[0]] = c
            table = _Table(base._den, rows)
        else:
            table = _recurse(config, g, n)
        tables[(g, n)] = table
    return table


def _recurse(config: RecursionConfig, g: int, n: int) -> _Table:
    # F_{g,n-1} first: then a type too deep for the interpreter recurses
    # (g, 1), (g-1, 2), (g-1, 1), .. to a RecursionError before any work
    parts = [_j_term(config, g, n)] if n >= 2 else []
    parts.append(_bracket(config, g, n))
    den, out = _sum_rows(parts)
    rows = {}
    for rest, row in out.items():
        row = {a1: c for a1, c in row.items() if c}
        if row:
            rows[rest] = row
    common = gcd(den, *(c for row in rows.values() for c in row.values()))
    if common != 1:
        rows = {rest: {a1: c // common for a1, c in row.items()} for rest, row in rows.items()}
    _check_orbits(g, n, rows)
    return _Table(den // common, rows)


def _sum_rows(parts: list[tuple[Fraction, dict]]) -> tuple[int, dict]:
    """The sum of ``weight * rows`` over ``parts``, as integer rows over the
    least common denominator of the weights."""
    den = lcm(*(weight.denominator for weight, _ in parts))
    out: dict[tuple, dict[int, int]] = {}
    for weight, rows in parts:
        scale = weight.numerator * (den // weight.denominator)
        for rest, row in rows.items():
            acc = out.setdefault(rest, {})
            for a, c in row.items():
                acc[a] = acc.get(a, 0) + scale * c
    return den, out


def _times_kappa(config: RecursionConfig, row: dict[int, int]) -> dict[int, int]:
    """The row's one-variable polynomial times kappa's numerators."""
    out: dict[int, int] = {}
    for (e,), k in config.kappa._num.items():
        for x, c in row.items():
            out[x + e] = out.get(x + e, 0) + k * c
    return out


def _j_term(config: RecursionConfig, g: int, n: int):
    """A sum_j (2a_j+1) s sum_e kappa_e F_{g,n-1}(a_1+a_j+1-e, rest_j), as
    (weight, integer rows): s = +1 when a_1, a_j >= 0 and -1 when both are
    negative, so s (2a_j+1) = |2a_j+1|."""
    prev = _table(config, g, n - 1)
    out: dict[tuple, dict[int, int]] = {}
    for tail, row in prev.rows.items():
        targets = {}
        for k, v in _times_kappa(config, row).items():
            # the j-term's value k = a_1 + a_j + 1 splits into a_1, a_j both
            # nonnegative or both negative
            for aj in range(k) if k > 0 else range(k, 0):
                target = targets.get(aj)
                if target is None:
                    rest = tuple(sorted((*tail, aj)))
                    # every slot of rest holding a_j gives the same term
                    weight = rest.count(aj) * abs(2 * aj + 1)
                    target = targets[aj] = out.setdefault(rest, {}), weight
                acc, weight = target
                acc[k - 1 - aj] = acc.get(k - 1 - aj, 0) + weight * v
    return config.a_factor / (config.kappa._den * prev.den), out


def _bracket(config: RecursionConfig, g: int, n: int):
    """B sum_e kappa_e sum_{b+c=a_1-e} [F_{g-1,n+1}(b, c, rest) + sum over
    splittings F(b, rest_I) F(c, rest_J)], as (weight, integer rows)."""
    parts = []  # (weight, rows of the sum over b + c)
    if g >= 1:
        up = _table(config, g - 1, n + 1)
        rows: dict[tuple, dict[int, int]] = {}
        for tail, row in up.rows.items():
            for i, c in enumerate(tail):
                if i and tail[i - 1] == c:
                    continue
                acc = rows.setdefault(tail[:i] + tail[i + 1 :], {})
                for b, v in row.items():
                    acc[b + c] = acc.get(b + c, 0) + v
        parts.append((Fraction(1, up.den), rows))
    # a splitting and its swap add the same products: each swap class once
    for (g1, k1, g2, k2), weight in swap_classes(splitting_shapes(g, n - 1)):
        left, right = _table(config, g1, k1 + 1), _table(config, g2, k2 + 1)
        rows = {}
        for tail1, row1 in left.rows.items():
            for tail2, row2 in right.rows.items():
                rest = tuple(sorted(tail1 + tail2))
                # the subsets I of rest's slots whose values are tail1
                m = weight * prod(comb(rest.count(v), tail1.count(v)) for v in set(tail1))
                acc = rows.setdefault(rest, {})
                for b, x in row1.items():
                    for c, y in row2.items():
                        acc[b + c] = acc.get(b + c, 0) + m * x * y
        parts.append((Fraction(1, left.den * right.den), rows))
    den, out = _sum_rows(parts)
    return config.b_factor / (config.kappa._den * den), {
        rest: _times_kappa(config, row) for rest, row in out.items()
    }


def _check_orbits(g: int, n: int, rows: dict) -> None:
    """Raise ``ArithmeticError`` unless each S_n orbit's rows agree.  The
    recursion singles out slot 1, so an orbit is computed once per distinct
    first entry; every copy must equal the one whose first entry is least,
    and no copy may be missing."""
    if n == 1:
        return
    copies = 0
    for rest, row in rows.items():
        low, distinct = rest[0], len(set(rest))
        for a1, c in row.items():
            if a1 <= low:
                copies += distinct + (a1 < low)
            elif rows.get(tuple(sorted((*rest[1:], a1))), {}).get(low) != c:
                raise ArithmeticError(f"({g},{n}): the rows of orbit {(a1, *rest)} differ")
    if copies != sum(map(len, rows.values())):
        raise ArithmeticError(f"({g},{n}): an orbit lacks a row")


def _expand(n: int, table: _Table) -> EvenLaurentPoly:
    """The full terms: each row's coefficient at a_1 followed by every
    distinct ordering of its tail."""
    orderings: dict[tuple, list[tuple]] = {(): [()]}

    def distinct_orderings(tail: tuple) -> list[tuple]:
        out = orderings.get(tail)
        if out is None:
            out = orderings[tail] = [
                (v, *rest)
                for i, v in enumerate(tail)
                if i == 0 or tail[i - 1] != v
                for rest in distinct_orderings(tail[:i] + tail[i + 1 :])
            ]
        return out

    terms = {}
    for rest, row in table.rows.items():
        tails = distinct_orderings(rest)
        for a1, c in row.items():
            coeff = Fraction(c, table.den)
            for tail in tails:
                terms[(a1, *tail)] = coeff
    return EvenLaurentPoly(n, terms)


def _orbits(config: RecursionConfig, g: int, n: int) -> dict[tuple, Fraction]:
    """F_{g,n}'s coefficient at one sorted exponent vector (a_1, *rest) per
    S_n orbit, read off the rows without expanding them: ``_check_orbits``
    has proved that the orbit's other orderings carry the same value."""
    check_stable(g, n)
    table = _table(config, g, n)
    return {
        (a1, *rest): Fraction(c, table.den)
        for rest, row in table.rows.items()
        for a1, c in row.items()
        if not rest or a1 <= rest[0]
    }


def kontsevich_ratio(g: int, n: int) -> Fraction:
    """The constant V^S_{g,n} / V^E_{g,n}; raises if the two volume
    polynomials are not exactly proportional."""
    vs, ve = _orbits(SYMPLECTIC, g, n), _orbits(EUCLIDEAN, g, n)
    if vs.keys() != ve.keys():
        raise ArithmeticError(f"({g},{n}): volume polynomials have different support")
    ratios = {vs[e] / ve[e] for e in ve}
    if len(ratios) != 1:
        raise ArithmeticError(f"({g},{n}): volume polynomials are not proportional")
    return ratios.pop()


def euclidean_matches_leading(g: int, n: int) -> bool:
    """Whether V^E_{g,n} equals the top-degree part of L_{g,n} exactly."""
    ve, laplace = _orbits(EUCLIDEAN, g, n), _orbits(LAPLACE, g, n)
    top = max(map(sum, laplace), default=0)
    return ve == {e: c for e, c in laplace.items() if sum(e) == top}


def intersection_numbers(g: int, n: int) -> dict[tuple, Fraction]:
    """Extract <tau_{d_1} ... tau_{d_n}> coefficients from V^S_{g,n}.

    The volume polynomial is read against the ansatz

        V^S = (-1)^n sum_{|d| = 3g-3+n} <tau_d> prod_j (2d_j+1)!! (t_j/2)^{2d_j}

    literally -- no renormalization is applied.  Returns a map keyed by
    the degree vector sorted in decreasing order, one value per S_n orbit;
    the engine's orbit guard has checked that every ordering of each key
    carries the same coefficient, so the map rebuilds V^S exactly.
    """
    vs = _orbits(SYMPLECTIC, g, n)
    target = 3 * g - 3 + n
    for exps in vs:
        if sum(exps) != target or exps[0] < 0:
            raise ArithmeticError(
                f"({g},{n}): unexpected monomial {exps} in the symplectic volume"
            )
    # (-1)^n prod_j 4^{d_j} / (2d_j+1)!!, once per key since sum(d) = target
    scale = (-1) ** n * 4**target
    return {
        exps[::-1]: coeff * Fraction(scale, prod(prod(range(1, 2 * d + 2, 2)) for d in exps))
        for exps, coeff in vs.items()
    }
