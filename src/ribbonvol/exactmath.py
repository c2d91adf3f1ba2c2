"""Exact sparse arithmetic for even Laurent polynomials, and their expansion
in the lattice variables x_j by closed-form edge coefficients.

Everything downstream (graph counts, volume polynomials, residue checks)
works with Laurent polynomials that contain only even powers of each
variable t_j.  Such a polynomial is stored sparsely as a mapping

    exponents (a_1, ..., a_n)  ->  coefficient,

where ``a_j`` is the (possibly negative) exponent of ``u_j = t_j**2``.
The total degree in t of a term is therefore ``2 * sum(a)``.

Canonical form: the coefficients are integer numerators ``_num`` (a dict
keyed by tuples of exactly ``arity`` ints) over one common denominator
``_den``, with ``_den > 0``, no zero numerator and
``gcd(_den, *numerators) == 1`` (so the zero polynomial has ``_den == 1``).
Two polynomials are equal exactly when their arity, ``_den`` and ``_num``
are.  The public constructors check outside input and bring it into this
form.  Every ``EvenLaurentPoly`` operation works on the integers alone --
no gcd per add or multiply, one gcd pass per result -- and stores its
result through the private ``_trusted`` constructor unchecked, after
``_canonical`` has dropped what cancelled and divided out the common
factor.

Immutability is enforced, not a convention: attributes cannot be rebound,
and ``terms`` is a read-only ``types.MappingProxyType`` of exponents to
``Fraction``, built on first access and kept (the polynomial cannot change
under it), so a polynomial shared through a memo table cannot be altered
by a caller and is safe under concurrent readers.

The expansion ``laurent_to_series`` substitutes t_j = (x_j + 1)/(x_j - 1)
into ``p * prod_j (t_j^2 - 1)/2``.  The x^m coefficient of one factor
``t^{2a} (t^2 - 1)/2`` is the finite binomial sum ``edge_coefficient(a, m)``
(a < 0 folds onto -1 - a by t -> 1/t), so that of ``x^m`` in the product is
``sum over terms c * u^a of c * prod_j edge_coefficient(a_j, m_j)``, with no
series arithmetic.  ``_series_numerators`` forms it in integers one slot at a
time, sharing a partial product among the vectors with the same prefix;
``laurent_to_series`` is its ``Fraction`` view, not in the package namespace.

Coefficients are exact -- arbitrary-precision integers inside, reduced
``fractions.Fraction`` values at the API.  Nothing here renders: the
command line writes ``reduced_rows`` as text, JSON or LaTeX.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .surface import _check_int

Exponents = tuple[int, ...]

_INTS = frozenset({int})


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _canonical(arity: int, num: dict, den: int) -> "EvenLaurentPoly":
    """The polynomial ``sum num[e] u^e / den`` (``den > 0``) in canonical
    form: zero numerators dropped, then numerators and ``den`` divided by
    their gcd.  ``num`` must not be used again."""
    if 0 in num.values():
        num = {e: c for e, c in num.items() if c}
    if not num:
        return EvenLaurentPoly._trusted(arity, num, 1)
    common = gcd(den, *num.values())
    if common != 1:
        num = {e: c // common for e, c in num.items()}
        den //= common
    return EvenLaurentPoly._trusted(arity, num, den)


def _substitute_values(poly: "EvenLaurentPoly", values: Mapping[int, object]) -> "EvenLaurentPoly":
    """``poly`` with ``u_var = x**2`` put in for every ``var -> x`` of
    ``values``; the other slots keep their order."""
    keep = [i for i in range(poly.arity) if i not in values]
    den = poly._den
    tables = []  # (var, exponent -> integer factor over the common denominator)
    for var, x in values.items():
        x = _as_fraction(x)
        p, q = x.numerator**2, x.denominator**2
        used = {e[var] for e in poly._num}
        top = max(max(used, default=0), 0)
        bottom = max(-min(used, default=0), 0)
        if p == 0 and bottom:
            raise ZeroDivisionError("negative exponent at a zero coordinate")
        # u^e = (p/q)^e = p^(e + bottom) q^(top - e) / (p^bottom q^top)
        tables.append((var, {e: p ** (e + bottom) * q ** (top - e) for e in used}))
        den *= p**bottom * q**top
    out: dict[Exponents, int] = {}
    get = out.get
    for exps, c in poly._num.items():
        for var, table in tables:
            c *= table[exps[var]]
        key = tuple([exps[i] for i in keep])
        out[key] = get(key, 0) + c
    return _canonical(len(keep), out, den)


class EvenLaurentPoly:
    """A Laurent polynomial in t_1..t_n involving only even powers.

    Parameters
    ----------
    arity:
        Number of variables ``n`` (0 is allowed and means a constant).
    terms:
        Mapping from integer exponent vectors of length ``arity`` (in the
        squared variables ``u_j = t_j**2``) to rational coefficients.
        Zero coefficients are dropped on construction.
    """

    __slots__ = ("arity", "_num", "_den", "_view")

    def __init__(self, arity: int, terms: Mapping[Sequence[int], object] | None = None):
        if hasattr(self, "arity"):  # a second call would rewrite a shared polynomial
            raise AttributeError("EvenLaurentPoly is immutable")
        _check_int("arity", arity, 0)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != arity:
                raise ValueError(f"exponent vector {key} does not match arity {arity}")
            # plain ints only: bool and other int subclasses are refused
            if not _INTS.issuperset(map(type, key)):
                raise ValueError(f"exponents must be integers: {key}")
            coeff = _as_fraction(coeff)
            clean[key] = clean[key] + coeff if key in clean else coeff
        clean = {e: c for e, c in clean.items() if c}
        # reduced fractions over the lcm of their denominators: the numerators
        # and the lcm have no common factor, so the result is canonical
        den = lcm(*(c.denominator for c in clean.values()))
        _fill(self, arity, {e: c.numerator * (den // c.denominator) for e, c in clean.items()}, den)

    @classmethod
    def _trusted(cls, arity: int, num: dict[Exponents, int], den: int) -> "EvenLaurentPoly":
        """Wrap numerators and a denominator that are already canonical (see
        the module docstring), without copying or checking them.  The dict
        must not be used again."""
        poly = object.__new__(cls)
        _fill(poly, arity, num, den)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("EvenLaurentPoly is immutable")

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only view of the exponent-vector -> coefficient mapping."""
        view = self._view
        if view is None:
            # built once: the polynomial cannot change under its view
            den = self._den
            view = MappingProxyType({e: Fraction(c, den) for e, c in self._num.items()})
            object.__setattr__(self, "_view", view)
        return view

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "EvenLaurentPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "EvenLaurentPoly":
        return cls(arity, {(0,) * arity: _as_fraction(value)})

    @classmethod
    def monomial(cls, arity: int, exponents: Sequence[int], coefficient=1) -> "EvenLaurentPoly":
        return cls(arity, {tuple(exponents): _as_fraction(coefficient)})

    @classmethod
    def sum(cls, arity: int, polys: Iterable["EvenLaurentPoly"]) -> "EvenLaurentPoly":
        """The sum of ``polys``, accumulated in one dict."""
        polys = list(polys)
        for poly in polys:
            if poly.arity != arity:
                raise ValueError(f"arity mismatch: {poly.arity} != {arity}")
        den = lcm(*(poly._den for poly in polys))
        out: dict[Exponents, int] = {}
        get = out.get
        for poly in polys:
            scale = den // poly._den
            for exps, c in poly._num.items():
                out[exps] = get(exps, 0) + c * scale
        return _canonical(arity, out, den)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "EvenLaurentPoly") -> "EvenLaurentPoly":
        if not isinstance(other, EvenLaurentPoly):
            return NotImplemented
        return EvenLaurentPoly.sum(self.arity, (self, other))

    def __neg__(self) -> "EvenLaurentPoly":
        negated = {e: -c for e, c in self._num.items()}
        return EvenLaurentPoly._trusted(self.arity, negated, self._den)

    def __sub__(self, other: "EvenLaurentPoly") -> "EvenLaurentPoly":
        return self + (-other) if isinstance(other, EvenLaurentPoly) else NotImplemented

    def __mul__(self, other) -> "EvenLaurentPoly":
        if isinstance(other, EvenLaurentPoly):
            if self.arity != other.arity:
                raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")
            out: dict[Exponents, int] = {}
            get = out.get
            right = other._num.items()
            for e1, c1 in self._num.items():
                for e2, c2 in right:
                    key = tuple(map(add, e1, e2))
                    out[key] = get(key, 0) + c1 * c2
            return _canonical(self.arity, out, self._den * other._den)
        c = _as_fraction(other)
        scale = c.numerator
        return _canonical(
            self.arity, {e: v * scale for e, v in self._num.items()}, self._den * c.denominator
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "EvenLaurentPoly":
        _check_int("power", k, 0)
        out = EvenLaurentPoly.constant(self.arity, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EvenLaurentPoly)
            and self.arity == other.arity
            and self._den == other._den
            and self._num == other._num
        )

    __hash__ = None  # compared by value; not meant as a dict key

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        if not self._num:
            return f"EvenLaurentPoly({self.arity}, 0)"
        bits = [f"{c}*u^{list(e)}" for e, c in self.sorted_terms()]
        return f"EvenLaurentPoly({self.arity}, {' + '.join(bits)})"

    # -- calculus and structure -----------------------------------------

    def diagonal_merge(self) -> "EvenLaurentPoly":
        """Identify variable 1 with variable 0: exponents add, slot 1
        disappears and the slots after it shift down, so the arity drops by
        one.  This is the diagonal F(t, t, ..) of the recursion's bracket."""
        self._check_var(1)
        out: dict[Exponents, int] = {}
        get = out.get
        for exps, c in self._num.items():
            key = (exps[0] + exps[1],) + exps[2:]
            out[key] = get(key, 0) + c
        return _canonical(self.arity - 1, out, self._den)

    def evaluate(self, point: Sequence[object]) -> Fraction:
        """Evaluate at a rational point; nonzero coordinates required
        wherever a negative exponent occurs."""
        if len(point) != self.arity:
            raise ValueError("point length does not match arity")
        value = _substitute_values(self, dict(enumerate(point)))
        return Fraction(value._num.get((), 0), value._den)

    def partial_evaluate(self, assignments: Mapping[int, object]) -> "EvenLaurentPoly":
        """Substitute rational values for a subset of slots.

        Returns a polynomial in the remaining variables; their relative
        order is preserved.
        """
        for var in assignments:
            self._check_var(var)
        return _substitute_values(self, assignments)

    def _check_var(self, var: int) -> None:
        _check_int("variable index", var, 0, self.arity)

    # -- canonical forms --------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms sorted lexicographically by exponent vector, the order
        ``reduced_rows`` gives them in."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def reduced_rows(self) -> list[tuple[Exponents, int, int]]:
        """``(exponents, numerator, denominator)`` per term, each coefficient
        reduced by one gcd, sorted by exponent vector: the rows the command
        line renders as text, JSON or LaTeX."""
        den = self._den
        rows = []
        for exps, c in sorted(self._num.items()):
            common = gcd(c, den)
            rows.append((exps, c // common, den // common))
        return rows


def _fill(poly: EvenLaurentPoly, arity: int, num: dict[Exponents, int], den: int) -> None:
    setattr_ = object.__setattr__
    setattr_(poly, "arity", arity)
    setattr_(poly, "_num", num)
    setattr_(poly, "_den", den)
    setattr_(poly, "_view", None)


class TruncatedSeries(NamedTuple):
    """A multivariate power series kept to total degree <= ``order``, as
    ``laurent_to_series`` returns it: ``terms`` is a read-only view of
    nonnegative exponent vectors to exact rational coefficients."""

    arity: int
    order: int
    terms: Mapping[Exponents, Fraction]

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))


def edge_coefficient(a: int, m: int) -> int:
    """The x^m coefficient of ``t^{2a} (t^2 - 1)/2`` under t = (x+1)/(x-1).

    For a >= 0 the series is 2x (1+x)^{2a} (1-x)^{-(2a+2)}.  It starts at
    x^1, so the coefficient is 0 for m < 1, and otherwise the finite sum

        e(a, m) = 2 sum_i C(2a, i) C(2a + m - i, 2a + 1).

    t -> 1/t is x -> -x and maps t^{2a} (t^2 - 1) to -t^{-2a-2} (t^2 - 1),
    so a < 0 folds onto -1 - a >= 0: e(a, m) = (-1)^{m-1} e(-1 - a, m).
    """
    if m < 1:
        return 0
    if a < 0:
        return (-1) ** (m - 1) * edge_coefficient(-1 - a, m)
    return 2 * sum(
        comb(2 * a, i) * comb(2 * a + m - i, 2 * a + 1) for i in range(min(2 * a, m - 1) + 1)
    )


def _series_numerators(p: EvenLaurentPoly, order: int) -> dict[Exponents, int]:
    """``laurent_to_series(p, order)``'s nonzero coefficients as numerators over
    ``p._den``, keyed in lexicographic order.  A level holds, per prefix m_1..m_k,
    the partial sums of ``c * prod_{i <= k} e(a_i, m_i)`` grouped by the exponents
    still to come, so a product is formed once for all vectors with that prefix."""
    _check_int("order", order, 0)
    if not p.arity:
        return dict(p._num)
    rows = {a: [edge_coefficient(a, m) for m in range(order + 1)] for a in set().union(*p._num)}
    level = [((), 0, p._num)]
    for left in range(p.arity, 1, -1):  # a prefix leaves each later entry at least 1
        nxt = []
        for prefix, total, partial in level:
            split = [(rows[exps[0]], exps[1:], c) for exps, c in partial.items()]
            for m in range(1, order - total - left + 2):
                merged: dict[Exponents, int] = {}
                for row, rest, c in split:
                    merged[rest] = merged.get(rest, 0) + c * row[m]
                nxt.append((prefix + (m,), total + m, merged))
        level = nxt
    out = {}
    for prefix, total, partial in level:  # the last slot: one sum per vector
        split = [(rows[a], c) for (a,), c in partial.items()]
        for m in range(1, order - total + 1):
            if value := sum([c * row[m] for row, c in split]):
                out[prefix + (m,)] = value
    return out


def laurent_to_series(p: EvenLaurentPoly, order: int) -> TruncatedSeries:
    """Expand ``p(t(x)) * prod_j (t_j^2 - 1)/2`` at x = 0 to total degree ``order``,
    where ``t_j = (x_j + 1)/(x_j - 1)``: the ``Fraction`` view of ``_series_numerators``.
    Each factor starts at x_j^1, so only positive m with ``sum(m) <= order`` occur."""
    den = p._den
    terms = {m: Fraction(c, den) for m, c in _series_numerators(p, order).items()}
    return TruncatedSeries(p.arity, order, MappingProxyType(terms))
