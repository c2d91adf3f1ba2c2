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
factor.  The divided-difference guard is written with these operations,
not with dicts of its own.

Immutability is enforced, not a convention: attributes cannot be rebound,
and ``terms`` is a read-only ``types.MappingProxyType`` of exponents to
``Fraction``, built on first access and kept (the polynomial cannot change
under it), so a polynomial shared through a memo table cannot be altered
by a caller and is safe under concurrent readers.

The expansion ``laurent_to_series`` substitutes t_j = (x_j + 1)/(x_j - 1)
into ``p * prod_j (t_j^2 - 1)/2``.  It needs no series arithmetic: the x^m
coefficient of one factor ``t^{2a} (t^2 - 1)/2`` is the finite binomial sum
``edge_coefficient(a, m)``, so the coefficient of ``x^m`` in the product is
``sum over terms c * u^a of c * prod_j edge_coefficient(a_j, m_j)``.

Coefficients are exact -- arbitrary-precision integers inside, reduced
``fractions.Fraction`` values at the API -- and are serialized as exact
``"numerator/denominator"`` strings, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add, getitem, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .surface import _check_int, perimeter_vectors

Exponents = tuple[int, ...]


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
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in key):
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

    def _require_same_shape(self, other: "EvenLaurentPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")

    def __add__(self, other: "EvenLaurentPoly") -> "EvenLaurentPoly":
        self._require_same_shape(other)
        return EvenLaurentPoly.sum(self.arity, (self, other))

    def __neg__(self) -> "EvenLaurentPoly":
        negated = {e: -c for e, c in self._num.items()}
        return EvenLaurentPoly._trusted(self.arity, negated, self._den)

    def __sub__(self, other: "EvenLaurentPoly") -> "EvenLaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "EvenLaurentPoly":
        if isinstance(other, EvenLaurentPoly):
            self._require_same_shape(other)
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

    def t_derivative(self, var: int) -> "EvenLaurentPoly":
        """The even polynomial ``d/dt_var [t_var * self]``: each term
        ``c * u^a`` becomes ``(2 a_var + 1) * c * u^a``."""
        self._check_var(var)
        # no factor 2a + 1 is zero and the exponents stay, so no term drops
        return _canonical(
            self.arity, {e: (2 * e[var] + 1) * c for e, c in self._num.items()}, self._den
        )

    def substitute_slots(self, mapping: Mapping[int, int], new_arity: int) -> "EvenLaurentPoly":
        """Re-embed into ``new_arity`` variables via an injective slot map.

        ``mapping[old_slot] = new_slot`` is total: it names every old slot
        exactly once, and nothing else, or ``ValueError`` is raised.  New
        slots that it does not name get exponent 0.
        """
        if mapping.keys() != set(range(self.arity)):
            raise ValueError(f"slot map keys must be the slots 0..{self.arity - 1}")
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise ValueError("slot map must be injective")
        if any(not 0 <= s < new_arity for s in targets):
            raise ValueError("slot map target out of range")
        # new slot -> old slot, or the index of a 0 appended to the exponents
        source = [self.arity] * new_arity
        for old, new in mapping.items():
            source[new] = old
        pad = (0,) if self.arity in source else ()
        if new_arity > 1:
            pick = itemgetter(*source)
        else:  # itemgetter returns a bare item, not a tuple, for one index

            def pick(padded):
                return tuple(padded[s] for s in source)

        # an injective map keeps distinct terms distinct
        out = {pick(exps + pad): c for exps, c in self._num.items()}
        return EvenLaurentPoly._trusted(new_arity, out, self._den)

    def diagonal_merge(self, keep: int, absorb: int) -> "EvenLaurentPoly":
        """Identify variable ``absorb`` with variable ``keep`` (0-based).

        Exponents add; the absorbed slot disappears and the arity drops
        by one.  Slots after ``absorb`` shift down.
        """
        self._check_var(keep)
        self._check_var(absorb)
        if keep == absorb:
            raise ValueError("cannot merge a slot with itself")
        out: dict[Exponents, int] = {}
        get = out.get
        for exps, c in self._num.items():
            merged = list(exps)
            merged[keep] += merged[absorb]
            del merged[absorb]
            key = tuple(merged)
            out[key] = get(key, 0) + c
        return _canonical(self.arity - 1, out, self._den)

    def leading_part(self) -> "EvenLaurentPoly":
        """Terms of maximal total degree (in t: ``2*sum(a)``)."""
        if not self._num:
            return self
        top = max(map(sum, self._num))
        return _canonical(
            self.arity, {e: c for e, c in self._num.items() if sum(e) == top}, self._den
        )

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
        """Terms sorted lexicographically by exponent vector (the canonical
        order used by every serializer)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_json_dict(self) -> dict:
        return {
            "arity": self.arity,
            "terms": [
                {
                    "exponents": list(e),
                    "coefficient": f"{c.numerator}/{c.denominator}",
                }
                for e, c in self.sorted_terms()
            ],
        }

    def to_latex(self) -> str:
        """Render grouped by total degree, highest first."""
        if not self._num:
            return "0"
        groups: dict[int, list[str]] = {}
        for exps, c in self.sorted_terms():
            mono = "".join(
                f"t_{{{j + 1}}}^{{{2 * e}}}" for j, e in enumerate(exps) if e
            )
            if c.denominator == 1:
                num = str(abs(c.numerator))
            else:
                num = rf"\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
            if mono and num == "1":
                num = ""
            sign = "-" if c < 0 else "+"
            groups.setdefault(sum(exps), []).append(f"{sign} {num}{mono}".strip())
        text = " ".join(" ".join(groups[deg]) for deg in sorted(groups, reverse=True))
        return text[2:] if text.startswith("+ ") else text


def _fill(poly: EvenLaurentPoly, arity: int, num: dict[Exponents, int], den: int) -> None:
    setattr_ = object.__setattr__
    setattr_(poly, "arity", arity)
    setattr_(poly, "_num", num)
    setattr_(poly, "_den", den)
    setattr_(poly, "_view", None)


def divided_difference(f: EvenLaurentPoly, slot_a: int, slot_b: int) -> EvenLaurentPoly:
    """Exact divided difference ``(f - f|_{u_a -> u_b}) / (u_a - u_b)``.

    ``f`` must not involve ``slot_b``; the result is an even Laurent
    polynomial of the same arity using both slots.  Division is performed
    by synthetic expansion per monomial; ``_check_quotient`` then multiplies
    back with the ring operations, and a quotient that does not give
    ``f - f|_{a<->b}`` is an internal arithmetic bug: ``ArithmeticError``.
    """
    f._check_var(slot_a)
    f._check_var(slot_b)
    if slot_a == slot_b:
        raise ValueError("divided difference needs two distinct slots")
    if any(e[slot_b] for e in f._num):
        raise ValueError(f"slot {slot_b} must be free in the input")

    # (u_a^k - u_b^k)/(u_a - u_b) = +sum_{0 <= i < k} u_a^i u_b^{k-1-i}   (k > 0)
    #                             = -sum_{k <= i < 0} u_a^i u_b^{k-1-i}   (k < 0)
    # The exponent sum i + (k-1-i) = k-1 recovers k, so no two output
    # terms meet.
    out: dict[Exponents, int] = {}
    for exps, c in f._num.items():
        k = exps[slot_a]
        if k > 0:
            powers = range(k)
        elif k < 0:
            powers, c = range(k, 0), -c
        else:
            continue
        key = list(exps)
        for i in powers:
            key[slot_a], key[slot_b] = i, k - 1 - i
            out[tuple(key)] = c
    result = _canonical(f.arity, out, f._den)
    _check_quotient(f, result, slot_a, slot_b)
    return result


def _check_quotient(f: EvenLaurentPoly, q: EvenLaurentPoly, slot_a: int, slot_b: int) -> None:
    """Raise ``ArithmeticError`` unless ``(u_a - u_b) q == f - f|_{a<->b}``,
    checked with the ring operations themselves."""
    arity = f.arity
    u_a = EvenLaurentPoly.monomial(arity, [int(i == slot_a) for i in range(arity)])
    u_b = EvenLaurentPoly.monomial(arity, [int(i == slot_b) for i in range(arity)])
    swap = {i: i for i in range(arity)} | {slot_a: slot_b, slot_b: slot_a}
    if (u_a - u_b) * q != f - f.substitute_slots(swap, arity):
        raise ArithmeticError("divided difference left a nonzero remainder")


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

    For a >= 0 the series is 2x (1+x)^{2a} (1-x)^{-(2a+2)}; for a = -b < 0
    it is 2x (x-1)^{2b-2} (1+x)^{-2b}.  Both start at x^1, so the
    coefficient is 0 for m < 1, and otherwise a finite binomial sum:

        a >= 0:      2 sum_i C(2a, i) C(2a + m - i, 2a + 1)
        a = -b < 0:  2 (-1)^{m-1} sum_i C(2b - 2, i) C(2b + m - 2 - i, 2b - 1)
    """
    if m < 1:
        return 0
    if a >= 0:
        return 2 * sum(
            comb(2 * a, i) * comb(2 * a + m - i, 2 * a + 1) for i in range(min(2 * a, m - 1) + 1)
        )
    b = -a
    return 2 * (-1) ** (m - 1) * sum(
        comb(2 * b - 2, i) * comb(2 * b + m - 2 - i, 2 * b - 1)
        for i in range(min(2 * b - 2, m - 1) + 1)
    )


def laurent_to_series(p: EvenLaurentPoly, order: int) -> TruncatedSeries:
    """Expand ``p(t(x)) * prod_j (t_j^2 - 1)/2`` at x = 0, truncated to
    total degree ``order``, where ``t_j = (x_j + 1)/(x_j - 1)``.

    A term ``c * u^a`` contributes ``c * prod_j edge_coefficient(a_j, m_j)``
    to the coefficient of ``x^m``; each factor starts at x_j^1, so only
    positive vectors m with ``sum(m) <= order`` carry a coefficient.
    """
    _check_int("order", order, 0)
    # the numerators share one denominator, so each vector sums integers
    den = p._den
    # per exponent a, the row m -> e(a, m) for m <= order
    exponents = {a for exps in p._num for a in exps}
    rows = {a: [edge_coefficient(a, m) for m in range(order + 1)] for a in exponents}
    weighted = [(c, [rows[a] for a in exps]) for exps, c in p._num.items()]
    out: dict[Exponents, Fraction] = {}
    for m in perimeter_vectors(p.arity, order):
        total = sum(prod(map(getitem, cols, m), start=num) for num, cols in weighted)
        if total:
            out[m] = Fraction(total, den)
    return TruncatedSeries(p.arity, order, MappingProxyType(out))
