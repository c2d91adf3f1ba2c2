import random
from enum import IntEnum
from fractions import Fraction
from math import comb, gcd, prod

import pytest

from ribbonvol.exactmath import (
    EvenLaurentPoly,
    Exponents,
    TruncatedSeries,
    _canonical,
    edge_coefficient,
    laurent_to_series,
)
from ribbonvol.surface import stable_types
from ribbonvol.transform import LAPLACE, compute

F = Fraction


def test_constructor_normalizes():
    p = EvenLaurentPoly(2, {(1, 0): F(1, 2), (0, 1): 0, (2, 2): "3/4"})
    assert p.terms == {(1, 0): F(1, 2), (2, 2): F(3, 4)}
    assert p.arity == 2
    assert EvenLaurentPoly.zero(3).terms == {}
    assert not EvenLaurentPoly.zero(3)
    assert EvenLaurentPoly.constant(1, 5).terms == {(0,): F(5)}


def test_ring_laws():
    rng = random.Random(20240)
    for _ in range(60):
        polys = []
        for _k in range(3):
            terms = {}
            for _t in range(rng.randint(0, 5)):
                key = tuple(rng.randint(-3, 3) for _ in range(2))
                terms[key] = F(rng.randint(-9, 9), rng.randint(1, 9))
            polys.append(EvenLaurentPoly(2, terms))
        a, b, c = polys
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == EvenLaurentPoly.zero(2)
        assert a + EvenLaurentPoly.zero(2) == a


def test_scalar_and_power():
    u = EvenLaurentPoly.monomial(1, (1,))
    one = EvenLaurentPoly.constant(1, 1)
    assert 3 * u == u * 3 == EvenLaurentPoly(1, {(1,): 3})
    assert F(1, 2) * u == EvenLaurentPoly(1, {(1,): F(1, 2)})
    assert (u - one) ** 3 == EvenLaurentPoly(
        1, {(3,): 1, (2,): -3, (1,): 3, (0,): -1}
    )
    assert u**0 == one


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        EvenLaurentPoly.zero(2) + EvenLaurentPoly.zero(3)
    with pytest.raises(ValueError):
        EvenLaurentPoly.zero(2) * EvenLaurentPoly.zero(3)


def test_sums_with_a_non_polynomial_raise_type_error():
    # p + 1 and p - 1 once raised AttributeError from the int's missing arity,
    # while 1 + p and 1 - p raised TypeError
    p = EvenLaurentPoly.constant(1, 1)
    for other in (1, F(1, 2), "1", None):
        for operation in (lambda: p + other, lambda: other + p, lambda: p - other, lambda: other - p):
            with pytest.raises(TypeError):
                operation()


def test_bool_exponents_rejected():
    # True would pass as the int 1 and serialize as JSON true; other int
    # subclasses are refused as well
    with pytest.raises(ValueError, match="integers"):
        EvenLaurentPoly(1, {(True,): 1})
    with pytest.raises(ValueError, match="integers"):
        EvenLaurentPoly.monomial(2, (1, False))
    with pytest.raises(ValueError, match="integers"):
        EvenLaurentPoly(1, {(IntEnum("E", "ONE").ONE,): 1})


def test_immutability():
    p = EvenLaurentPoly.constant(1, 1)
    with pytest.raises(AttributeError):
        p.arity = 2


def test_terms_is_a_read_only_view():
    p = EvenLaurentPoly(2, {(1, 0): F(1, 2), (0, -1): 3})
    with pytest.raises(TypeError):
        p.terms[(5, 5)] = F(1)
    with pytest.raises(TypeError):
        del p.terms[(1, 0)]
    assert p.terms[(0, -1)] == 3
    assert dict(p.terms.items()) == {**p.terms} == {(1, 0): F(1, 2), (0, -1): F(3)}
    assert EvenLaurentPoly(2, p.terms) == p


def test_results_are_canonical():
    # every operation drops what cancels; the trusted results compare
    # equal to the same terms passed through the validating constructor
    p = EvenLaurentPoly(2, {(1, 0): 1, (0, 1): F(-1, 2), (-1, 2): 2})
    q = EvenLaurentPoly(2, {(1, 0): -1, (0, 1): F(1, 2)})
    # u_1 = 0 kills the first term
    at_zero = EvenLaurentPoly(3, {(1, 0, 0): 1, (0, 0, 1): 2}).partial_evaluate({0: 0})
    results = [
        p + q, p - p, -p, p * q, 0 * p, p * F(0), 3 * p,
        p.diagonal_merge(), p.partial_evaluate({1: 1}), at_zero, EvenLaurentPoly.sum(2, [p, q, -p]),
    ]
    for r in results:
        assert all(isinstance(c, Fraction) and c for c in r.terms.values()), r
        _assert_canonical(r)
        assert r == EvenLaurentPoly(r.arity, dict(r.terms))
    assert p - p == EvenLaurentPoly.zero(2) == 0 * p
    assert EvenLaurentPoly.sum(2, [p, q, -p]) == q
    assert at_zero == EvenLaurentPoly(2, {(0, 1): 2})
    with pytest.raises(ValueError):
        EvenLaurentPoly.sum(2, [p, EvenLaurentPoly.zero(3)])


# the integer core against plain Fraction dicts ------------------------------


def _assert_canonical(p):
    # integer numerators over one positive denominator sharing no factor
    assert isinstance(p._den, int) and p._den > 0, p
    assert all(isinstance(c, int) and c for c in p._num.values()), p
    assert all(len(e) == p.arity and all(isinstance(x, int) for x in e) for e in p._num), p
    assert gcd(p._den, *p._num.values()) == 1, p


def _ref_add(*dicts):
    out = {}
    for terms in dicts:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(p, q):
    return _ref_add(
        *({tuple(map(sum, zip(e1, e2))): c1 * c2} for e1, c1 in p.items() for e2, c2 in q.items())
    )


def _ref_map(terms, key, value=lambda e, c: c):
    return _ref_add(*({key(e): value(e, c)} for e, c in terms.items()))


def _ref_divided_difference(terms, a, b):
    out = []
    for e, c in terms.items():
        k = e[a]
        for i in range(k) if k > 0 else range(k, 0):
            key = list(e)
            key[a], key[b] = i, k - 1 - i
            out.append({tuple(key): c if k > 0 else -c})
    return _ref_add(*out)


def _random_terms(rng, arity, free=None):
    # mixed denominators, so that sums and products meet, cancel and reduce
    terms = {}
    for _t in range(rng.randint(0, 6)):
        key = [rng.randint(-3, 3) for _ in range(arity)]
        if free is not None:
            key[free] = 0
        terms[tuple(key)] = F(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6, 9, 12, 16, 27, 35]))
    return terms


def test_integer_core_matches_fraction_dicts():
    rng = random.Random(5150)
    for _ in range(300):
        n = rng.randint(1, 3)
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        x = _random_terms(rng, n)
        y = _random_terms(rng, n)
        z = _random_terms(rng, n)
        p, q, r = (EvenLaurentPoly(n, t) for t in (x, y, z))
        x, y, z = dict(p.terms), dict(q.terms), dict(r.terms)  # duplicates merged
        scalar = F(rng.randint(-6, 6), rng.randint(1, 10))
        var = rng.randrange(n)
        point = {var: F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))}
        cases = [
            (p + q, _ref_add(x, y)),
            (p - q, _ref_add(x, {e: -c for e, c in y.items()})),
            (p * q, _ref_mul(x, y)),
            (p * scalar, {e: c * scalar for e, c in x.items() if c * scalar}),
            (scalar * p, {e: c * scalar for e, c in x.items() if c * scalar}),
            (EvenLaurentPoly.sum(n, [p, q, r, -q]), _ref_add(x, z)),
            (p.partial_evaluate(point), _ref_map(
                x,
                lambda e: e[:var] + e[var + 1 :],
                lambda e, c: c * point[var] ** (2 * e[var]),
            )),
        ]
        if n >= 2:
            cases.append((p.diagonal_merge(), _ref_map(x, lambda e: (e[0] + e[1], *e[2:]))))
            f = EvenLaurentPoly(n, _random_terms(rng, n, free=b))
            cases.append((divided_difference(f, a, b), _ref_divided_difference(dict(f.terms), a, b)))
        for got, want in cases:
            _assert_canonical(got)
            assert dict(got.terms) == want, (got, want)
            assert got == EvenLaurentPoly(got.arity, want)
        assert p.evaluate([F(k + 2, 3) for k in range(n)]) == sum(
            (c * prod(F(k + 2, 3) ** (2 * e[k]) for k in range(n)) for e, c in x.items()), F(0)
        )


def test_diagonal_merge():
    p = EvenLaurentPoly(3, {(1, 2, -1): F(5)})
    assert p.diagonal_merge() == EvenLaurentPoly(2, {(3, -1): F(5)})
    # terms that meet on the diagonal add, and may cancel
    q = EvenLaurentPoly(2, {(1, 0): 2, (0, 1): -2, (2, 0): 1})
    assert q.diagonal_merge() == EvenLaurentPoly(1, {(2,): 1})
    with pytest.raises(ValueError):
        EvenLaurentPoly(1, {(1,): 1}).diagonal_merge()  # one slot has no diagonal


def test_evaluate_squares_its_input():
    p = EvenLaurentPoly(1, {(1,): 1})
    assert p.evaluate((F(3),)) == 9
    assert p.evaluate((-3,)) == 9
    q = EvenLaurentPoly(2, {(1, -1): 1})
    assert q.evaluate((2, 3)) == F(4, 9)
    with pytest.raises(ZeroDivisionError):
        q.evaluate((2, 0))
    for point in [(2,), (2, 3, 4)]:
        with pytest.raises(ValueError, match="point length"):
            q.evaluate(point)


def test_partial_evaluate_keeps_slot_order():
    p = EvenLaurentPoly(3, {(1, 2, 3): 1})
    q = p.partial_evaluate({1: 2})
    assert q == EvenLaurentPoly(2, {(1, 3): 16})
    assert p.partial_evaluate({0: 1, 1: 1, 2: 1}) == EvenLaurentPoly.constant(0, 1)


def test_reduced_rows_round_trip():
    # over the common denominator 8, each coefficient is reduced on its own
    p = EvenLaurentPoly(2, {(1, -2): F(-3, 8), (0, 0): F(2), (-1, 0): F(1, 4)})
    rows = p.reduced_rows()
    assert rows == [((-1, 0), 1, 4), ((0, 0), 2, 1), ((1, -2), -3, 8)]
    assert EvenLaurentPoly(2, {e: F(num, den) for e, num, den in rows}) == p
    assert EvenLaurentPoly.zero(3).reduced_rows() == []


def test_latex():
    p = EvenLaurentPoly(2, {(2, 0): F(5, 128), (1, 1): F(3, 128), (0, 2): F(5, 128)})
    assert (
        p.to_latex()
        == r"\frac{5}{128}t_{2}^{4} + \frac{3}{128}t_{1}^{2}t_{2}^{2} + \frac{5}{128}t_{1}^{4}"
    )
    assert EvenLaurentPoly.zero(1).to_latex() == "0"
    # a unit coefficient prints as its sign alone, except on the constant
    assert EvenLaurentPoly(2, {(1, 0): 1, (0, 1): -1}).to_latex() == "- t_{2}^{2} + t_{1}^{2}"
    assert EvenLaurentPoly(2, {(0, 0): 1, (0, -1): -1}).to_latex() == "1 - t_{2}^{-2}"


# divided differences --------------------------------------------------------
# The package itself never divides: the divided difference and its quotient
# check are kept here as a test of the core's ring operations, and the
# acceptance gate's criterion 10 runs them too.


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
    swapped = {tuple(e[swap[i]] for i in range(arity)): c for e, c in f.terms.items()}
    if (u_a - u_b) * q != f - EvenLaurentPoly(arity, swapped):
        raise ArithmeticError("divided difference left a nonzero remainder")


def test_divided_difference_hand_values():
    inv = EvenLaurentPoly(2, {(-1, 0): 1})
    assert divided_difference(inv, 0, 1) == EvenLaurentPoly(2, {(-1, -1): -1})
    u = EvenLaurentPoly(2, {(1, 0): 1})
    assert divided_difference(u, 0, 1) == EvenLaurentPoly.constant(2, 1)
    u2 = EvenLaurentPoly(2, {(2, 0): 1})
    assert divided_difference(u2, 0, 1) == EvenLaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    const = EvenLaurentPoly.constant(2, 7)
    assert divided_difference(const, 0, 1) == EvenLaurentPoly.zero(2)


def test_divided_difference_requires_free_slot():
    p = EvenLaurentPoly(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        divided_difference(p, 0, 1)
    with pytest.raises(ValueError):
        divided_difference(p, 0, 0)


def test_divided_difference_random_zero_remainder():
    # checked against the public ring ops on every ordered pair of slots,
    # with mixed-sign exponents in the divided slot and the spectator
    rng = random.Random(991)
    for _ in range(1000):
        a, b = rng.sample(range(3), 2)
        terms = {}
        for _t in range(rng.randint(1, 6)):
            key = [rng.randint(-4, 4) for _ in range(3)]
            key[b] = 0
            terms[tuple(key)] = F(rng.randint(-20, 20), rng.randint(1, 12))
        f = EvenLaurentPoly(3, terms)
        d = divided_difference(f, a, b)
        ua = EvenLaurentPoly.monomial(3, [int(i == a) for i in range(3)])
        ub = EvenLaurentPoly.monomial(3, [int(i == b) for i in range(3)])
        swap = {a: b, b: a}
        swapped = EvenLaurentPoly(
            3, {tuple(e[swap.get(i, i)] for i in range(3)): c for e, c in f.terms.items()}
        )
        assert (ua - ub) * d == f - swapped


def test_quotient_check_rejects_wrong_quotients():
    f = EvenLaurentPoly(3, {(2, 0, -1): F(3, 4), (-2, 0, 1): F(-5, 2), (1, 0, 0): 7})
    q = divided_difference(f, 0, 1)
    _check_quotient(f, q, 0, 1)
    exps, coeff = min(q.terms.items())
    wrong = [
        EvenLaurentPoly(3, {**q.terms, exps: coeff + 1}),  # one coefficient off
        EvenLaurentPoly(3, {e: c for e, c in q.terms.items() if e != exps}),  # a term lost
        q + EvenLaurentPoly.monomial(3, (0, 0, -1), F(1, 3)),  # a stray term
        -q,
        EvenLaurentPoly.zero(3),
    ]
    for bad in wrong:
        with pytest.raises(ArithmeticError):
            _check_quotient(f, bad, 0, 1)
    # the right quotient for the wrong pair of slots is rejected too
    with pytest.raises(ArithmeticError):
        _check_quotient(f, q, 1, 0)


# series expansion ------------------------------------------------------------


def test_series_of_constant():
    # a constant expands to 2x + 4x^2 + 6x^3 + ...
    s = laurent_to_series(EvenLaurentPoly.constant(1, 1), 6)
    assert [s.coefficient((k,)) for k in range(1, 7)] == [2, 4, 6, 8, 10, 12]
    assert s.coefficient((0,)) == 0


def test_series_of_inverse_square():
    # t^-2 expands to 2x - 4x^2 + 6x^3 - ...
    s = laurent_to_series(EvenLaurentPoly(1, {(-1,): 1}), 6)
    assert [s.coefficient((k,)) for k in range(1, 7)] == [2, -4, 6, -8, 10, -12]


def test_series_three_variable_spot_coefficient():
    ell03 = EvenLaurentPoly(
        3, {(0, 0, 0): F(-1, 16), (-1, -1, -1): F(1, 16)}
    )
    s = laurent_to_series(ell03, 4)
    assert s.coefficient((2, 1, 1)) == -2
    # every monomial involves every variable
    assert all(0 not in e for e in s.terms)


def _reference_edge_series(a, order):
    """x^0..x^order coefficients of t^{2a} (t^2 - 1)/2, t = (x+1)/(x-1), by
    the head x tail convolution: 2x (x+1)^{2a} / (x-1)^{2a+2} for a >= 0,
    2x (x-1)^{2b-2} / (x+1)^{2b} for a = -b < 0."""
    coeffs = [0] * (order + 1)
    if a >= 0:
        k = 2 * a + 2
        tail = [comb(k - 1 + m, k - 1) for m in range(order + 1)]
        head = [comb(2 * a, i) for i in range(2 * a + 1)]
    else:
        b = -a
        k = 2 * b
        tail = [(-1) ** m * comb(k - 1 + m, k - 1) for m in range(order + 1)]
        head = [(-1) ** (2 * b - 2 - i) * comb(2 * b - 2, i) for i in range(2 * b - 1)]
    for i, h in enumerate(head):
        for m, t in enumerate(tail):
            if i + m + 1 <= order:
                coeffs[i + m + 1] += 2 * h * t
    return coeffs


def _reference_series_terms(p, order):
    """The parent's nested-dict expansion, one variable at a time."""
    acc = {}
    for exps, coeff in p.terms.items():
        partial = {(): coeff}
        for a in exps:
            series = _reference_edge_series(a, order)
            partial = {
                stem + (m,): c * series[m]
                for stem, c in partial.items()
                for m in range(1, order - sum(stem) + 1)
                if series[m]
            }
        for key, c in partial.items():
            acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def test_edge_coefficient_matches_the_convolution():
    order = 30
    for a in range(-8, 9):
        assert [edge_coefficient(a, m) for m in range(order + 1)] == _reference_edge_series(a, order), a
        assert edge_coefficient(a, 0) == 0
        assert edge_coefficient(a, -1) == 0


def test_series_of_every_small_type_matches_the_convolution():
    for g, n in stable_types(3):
        p = compute(LAPLACE, g, n)
        assert laurent_to_series(p, 12).terms == _reference_series_terms(p, 12), (g, n)


def _lex_vectors(n, max_sum):
    """Positive n-vectors with sum <= max_sum, first entry slowest."""
    if n == 0:
        return [()] if max_sum >= 0 else []
    return [
        (first,) + rest
        for first in range(1, max_sum - n + 2)
        for rest in _lex_vectors(n - 1, max_sum - first)
    ]


def _per_vector_series(p, order, vectors=None):
    """The parent's per-vector formula: at each vector m, the sum over terms
    c * u^a of c * prod_j e(a_j, m_j), in integers over one denominator."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    rows = {a: [edge_coefficient(a, m) for m in range(order + 1)] for e in p.terms for a in e}
    weighted = [(c.numerator * (den // c.denominator), [rows[a] for a in e]) for e, c in p.terms.items()]
    out = {}
    for m in _lex_vectors(p.arity, order) if vectors is None else vectors:
        total = sum(prod(row[mj] for row, mj in zip(cols, m)) * c for c, cols in weighted)
        if total:
            out[m] = F(total, den)
    return out


def _check_against_the_per_vector_formula(p, expected, orders):
    for order in orders:
        terms = laurent_to_series(p, order).terms
        assert terms == {m: c for m, c in expected.items() if sum(m) <= order}, order
        assert list(terms) == sorted(terms), order  # lexicographic key order


def test_series_of_every_type_to_complexity_4_matches_the_per_vector_formula():
    # L_{g,n} is symmetric (asserted below), so the per-vector formula is
    # formed at the sorted vectors and read off at every other one; (0,6) has
    # 8,008 vectors at order 16 against 74 sorted ones
    for g, n in stable_types(4):
        p = compute(LAPLACE, g, n)
        assert all(p.terms[tuple(sorted(e))] == c for e, c in p.terms.items()), (g, n)
        sorted_ref = _per_vector_series(p, 16, [m for m in _lex_vectors(n, 16) if list(m) == sorted(m)])
        expected = {m: sorted_ref[s] for m in _lex_vectors(n, 16) if (s := tuple(sorted(m))) in sorted_ref}
        assert len(expected) >= len(sorted_ref) > 0, (g, n)
        _check_against_the_per_vector_formula(p, expected, range(17))  # orders below n included


def test_series_of_unsymmetric_polynomials_matches_the_per_vector_formula():
    # a slot mixed up with another would go unseen on the symmetric L_{g,n}
    rng = random.Random(2055)
    for arity in (0, 1, 2, 3, 4):
        for _ in range(6):
            p = EvenLaurentPoly(arity, _random_terms(rng, arity))
            _check_against_the_per_vector_formula(p, _per_vector_series(p, 10), range(11))
    for arity in (0, 3):  # the zero polynomial
        _check_against_the_per_vector_formula(EvenLaurentPoly.zero(arity), {}, range(6))
    assert _per_vector_series(EvenLaurentPoly.constant(0, F(3, 4)), 5) == {(): F(3, 4)}


def test_series_terms_are_a_read_only_view():
    s = laurent_to_series(EvenLaurentPoly.constant(1, 1), 3)
    assert isinstance(s, TruncatedSeries)
    assert (s.arity, s.order) == (1, 3)
    with pytest.raises(TypeError):
        s.terms[(9,)] = 5
    with pytest.raises(AttributeError):
        s.terms = {}
    assert s.coefficient((9,)) == 0
    assert dict(s.terms) == {(1,): F(2), (2,): F(4), (3,): F(6)}


def test_series_edge_cases():
    with pytest.raises(ValueError):
        laurent_to_series(EvenLaurentPoly.constant(2, 1), -1)
    with pytest.raises(ValueError):
        laurent_to_series(EvenLaurentPoly.zero(0), -1)
    # arity 0: the constant itself, at the empty exponent vector
    assert laurent_to_series(EvenLaurentPoly.constant(0, F(3, 4)), 5).terms == {(): F(3, 4)}
    assert laurent_to_series(EvenLaurentPoly.zero(3), 8).terms == {}
