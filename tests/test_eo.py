from fractions import Fraction
from math import lcm

import pytest

from ribbonvol import cli, eo
from ribbonvol.eo import (
    CURVE_EUCLIDEAN,
    CURVE_LAPLACE,
    CURVE_SYMPLECTIC,
    CURVES,
    check_kernel_identity,
    integrand_terms,
    kernel_identity_defect,
    residue_sum,
    sample_spectators,
    verify_eo,
)
from ribbonvol.exactmath import EvenLaurentPoly
from ribbonvol.surface import is_stable, stable_types
from ribbonvol.transform import LAPLACE, compute
from test_surface import bitmask_splittings

F = Fraction

GRID = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]


def test_kernel_identity_all_curves():
    for curve in CURVES.values():
        assert check_kernel_identity(curve), curve.name
        assert kernel_identity_defect(curve, F(7, 3)) == 0
    # kappa_hat comes from the config, so a curve paired with a foreign
    # engine configuration fails the identity
    assert not check_kernel_identity(CURVE_SYMPLECTIC._replace(config=LAPLACE))


def test_residue_reproduces_one_boundary_torus():
    for curve in CURVES.values():
        got = residue_sum(curve, 1, 1, ())
        assert got == compute(curve.config, 1, 1), curve.name


def test_residue_reproduces_genus_two():
    got = residue_sum(CURVE_LAPLACE, 2, 1, ())
    assert got == compute(CURVE_LAPLACE.config, 2, 1)


def test_pair_weights():
    assert CURVE_LAPLACE.pair_weight == 1
    assert CURVE_EUCLIDEAN.pair_weight == 1
    assert CURVE_SYMPLECTIC.pair_weight == F(1, 2)


def test_integrand_is_odd():
    # omega(-t) = -omega(t): t -> -t maps the piece (B, roots) to
    # (-B, -roots), and the flipped multiset must be the negated one
    def canon(pieces):
        return sorted((tuple(sorted(num.terms.items())), tuple(sorted(poles)))
                      for num, poles in pieces)

    for curve in (CURVE_LAPLACE, CURVE_SYMPLECTIC):
        for (g, n), spect in [((0, 3), (3, -5)), ((1, 2), (7,)), ((2, 1), ()), ((1, 3), (3, -5))]:
            terms = integrand_terms(curve, g, n, tuple(F(v) for v in spect))
            assert all(num.arity == 1 for num in terms.values())
            flipped = [(-num, tuple(-r for r in poles)) for poles, num in terms.items()]
            negated = [(-num, poles) for poles, num in terms.items()]
            assert canon(flipped) == canon(negated), (curve.name, g, n)


def test_integrand_terms_are_keyed_by_pole_set():
    # one entry per distinct sorted pole tuple of the splittings, plus () for
    # the genus term; a two-point half on the +t side has its pole at -a
    a = (F(3), F(-5))
    expected = {()}
    for g1, part1, g2, part2 in bitmask_splittings(1, 2):
        poles = [-sign * a[labels[0]]
                 for gp, labels, sign in ((g1, part1, 1), (g2, part2, -1))
                 if gp == 0 and len(labels) == 1]
        expected.add(tuple(sorted(poles)))
    for curve in CURVES.values():
        terms = integrand_terms(curve, 1, 3, a)
        assert set(terms) == expected, curve.name
        assert all(num.arity == 1 for num in terms.values())


def test_verify_eo_full_grid_small():
    for name in sorted(CURVES):
        for g, n in GRID:
            results = verify_eo(CURVES[name], g, n, trials=2, seed=5)
            assert all(ok for _, ok in results), (name, g, n)


def test_verify_eo_checks_each_distinct_draw_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return residue_sum(*args)

    monkeypatch.setattr(eo, "residue_sum", counted)
    # n = 1 has no spectator, so all six draws are the empty one
    results = verify_eo(CURVE_LAPLACE, 2, 1, trials=6)
    assert results == [((), True)] * 6
    assert len(calls) == 1
    # six distinct draws are six residue sums, one entry each, in draw order
    calls.clear()
    draws = sample_spectators(CURVE_LAPLACE.name, 0, 4, 6, 3)
    assert len(set(draws)) == 6
    results = verify_eo(CURVE_LAPLACE, 0, 4, trials=6, seed=3)
    assert [spect for spect, _ in results] == draws
    assert all(ok for _, ok in results)
    assert len(calls) == 6


def test_a_wrong_series_fails_the_suite(monkeypatch, capsys):
    # a series off by 1 in its constant coefficient must show as a mismatch,
    # in verify_eo and as FAIL rows of the CLI suite, not pass vacuously
    exact = eo._inverse_square_series

    def bumped(roots, top):
        rows, den = exact(roots, top)
        rows[0] += 1
        return rows, den

    for curve in CURVES.values():
        assert all(ok for _, ok in verify_eo(curve, 0, 4, trials=2)), curve.name
    monkeypatch.setattr(eo, "_inverse_square_series", bumped)
    for curve in CURVES.values():
        assert not all(ok for _, ok in verify_eo(curve, 0, 4, trials=2)), curve.name
    assert cli.main(["verify", "--suite", "eo", "--trials", "1"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert all(any(f"[{name}]" in line for line in fails) for name in CURVES)


def test_verify_eo_needs_a_trial():
    # an empty result list would pass ``all`` while checking nothing
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            verify_eo(CURVE_LAPLACE, 1, 2, trials=trials)


def test_spectator_sampling_is_deterministic():
    a = sample_spectators("laplace", 0, 4, 5, 0)
    b = sample_spectators("laplace", 0, 4, 5, 0)
    assert a == b
    c = sample_spectators("laplace", 0, 4, 5, 1)
    assert a != c
    for draw in a:
        assert len({abs(v) for v in draw}) == 3


def test_spectator_validation():
    with pytest.raises(ValueError):
        integrand_terms(CURVE_LAPLACE, 0, 3, (3,))  # wrong count
    with pytest.raises(ValueError):
        integrand_terms(CURVE_LAPLACE, 0, 3, (3, 3))  # equal magnitudes
    with pytest.raises(ValueError):
        integrand_terms(CURVE_LAPLACE, 0, 3, (3, 0))  # zero value
    with pytest.raises(ValueError):
        integrand_terms(CURVE_LAPLACE, 0, 2, ())  # unstable


# an oracle for residue_sum, which takes the residues at t = 0 and t = infinity:
# the integrand on Fraction dicts in t, with the residues at t1, at -t1 and at
# each root taken one by one and summed as rational functions, so nothing is
# paired and no common denominator is used


def _acc(out, e, c):
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    else:
        out.pop(e, None)


def _ladd(a, b):
    out = dict(a)
    for e, c in b.items():
        _acc(out, e, c)
    return out


def _lmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _acc(out, ea + eb, ca * cb)
    return out


def _lscale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def _leval(a, x):
    return sum((c * x**e for e, c in a.items()), F(0))


def _leval_deriv(a, x):
    return sum((e * c * x ** (e - 1) for e, c in a.items()), F(0))


def _from_even(p):
    return {2 * e[0]: c for e, c in p.terms.items()}


def _oracle_terms(curve, g, n, a):
    w = curve.pair_weight
    bracket = []
    if g >= 1:
        if is_stable(g - 1, n + 1):
            q = compute(curve.config, g - 1, n + 1)
            q = q.partial_evaluate({i + 2: a[i] for i in range(n - 1)})
            bracket.append((_lscale(_from_even(q.diagonal_merge()), -1), ()))
        else:
            bracket.append(({-2: -w / 4}, ()))
    for g1, part1, g2, part2 in bitmask_splittings(g, n - 1):
        num = {0: F(-1)}
        poles = []
        for gp, labels, sign in ((g1, part1, 1), (g2, part2, -1)):
            if gp == 0 and len(labels) == 1:
                num = _lscale(num, w)
                poles.append((-sign * a[labels[0]], 2))
            else:
                part = compute(curve.config, gp, len(labels) + 1)
                part = part.partial_evaluate({i + 1: a[j] for i, j in enumerate(labels)})
                num = _lmul(num, _from_even(part))
        bracket.append((num, tuple(sorted(poles))))
    k_num = {e + 1: -c for e, c in _from_even(curve.kappa_hat).items()}
    return [(_lmul(num, k_num), poles) for num, poles in bracket]


def _oracle_divide(num, den):
    nmin, dmin = min(num), min(den)
    rem = {e - nmin: c for e, c in num.items()}
    div = {e - dmin: c for e, c in den.items()}
    dtop = max(div)
    quotient = {}
    while rem:
        rtop = max(rem)
        assert rtop >= dtop, "residue sum did not reduce to a Laurent polynomial"
        c = rem[rtop] / div[dtop]
        quotient[rtop - dtop] = c
        for e, v in div.items():
            _acc(rem, e + rtop - dtop, -c * v)
    return {e + nmin - dmin: c for e, c in quotient.items()}


def _oracle_residue_sum(curve, g, n, spectators):
    total = ({}, {0: F(1)})

    def add(num, den):
        nonlocal total
        (n1, d1) = total
        total = _ladd(_lmul(n1, den), _lmul(num, d1)), _lmul(d1, den)

    for num, poles in _oracle_terms(curve, g, n, [F(v) for v in spectators]):
        if not num:
            continue
        for sign in (1, -1):  # simple pole at t = sign * t1
            den = {1: F(2 * sign)}
            for root, mult in poles:
                for _ in range(mult):
                    den = _lmul(den, {1: F(sign), 0: -root})
            add({e: c if e % 2 == 0 else c * sign for e, c in num.items()}, den)
        for index, (root, _mult) in enumerate(poles):  # double pole at t = root
            q, slope = F(1), F(0)
            for r2, m2 in poles[:index] + poles[index + 1 :]:
                q *= (root - r2) ** m2
                slope += F(m2) / (root - r2)
            r_at = {0: root * root * q, 2: -q}
            r_prime_at = {0: 2 * root * q + root * root * q * slope, 2: -q * slope}
            add(
                _ladd(_lscale(r_at, _leval_deriv(num, root)),
                      _lscale(r_prime_at, -_leval(num, root))),
                _lmul(r_at, r_at),
            )
    num, den = total
    flat = _oracle_divide(_lscale(num, -1), den)
    assert not any(e % 2 for e in flat)
    return EvenLaurentPoly(1, {(e // 2,): c for e, c in flat.items()})


def test_residue_sum_matches_the_separate_residues():
    cases = [(curve, g, n, spect)
             for curve in CURVES.values()
             for g, n in stable_types(4)
             for spect in sample_spectators(curve.name, g, n, 2, 11)]
    # laplace is the curve whose residues at t = 0 and at t = infinity are
    # both nonzero; one draw of each type of complexity 5
    for g, n in [(0, 7), (1, 5), (2, 3), (3, 1)]:
        cases += [(CURVE_LAPLACE, g, n, spect)
                  for spect in sample_spectators(CURVE_LAPLACE.name, g, n, 1, 11)]
    for curve, g, n, spect in cases:
        got = residue_sum(curve, g, n, spect)
        assert got == _oracle_residue_sum(curve, g, n, spect), (curve.name, g, n, spect)


def test_residue_sum_at_non_integer_spectators():
    # every other residue test draws integer spectators, so the series at
    # t = infinity always has d = 1; here both residues carry denominators
    pool = (F(3, 2), F(-5, 7), F(11, 3), F(-2, 9), F(13, 5))
    for curve in CURVES.values():
        for g, n in stable_types(4):
            spect = pool[: n - 1]
            got = residue_sum(curve, g, n, spect)
            assert got == _oracle_residue_sum(curve, g, n, spect), (curve.name, g, n)
            target = compute(curve.config, g, n).partial_evaluate(
                {j + 1: v for j, v in enumerate(spect)})
            assert got == target, (curve.name, g, n)


def test_inverse_square_series_rows_are_scaled_coefficients():
    # row j is [x^2j] prod_c (1 - c x)^-2 over d^(2 top), d the roots' common
    # denominator; the reference multiplies out (1 - c x)^-2 = sum (k+1) c^k x^k
    for roots in ([], [F(3, 2)], [F(-5, 7), F(2, 3)], [F(1, 4), F(-1, 4), F(7)]):
        d = lcm(*(c.denominator for c in roots))
        for top in (-1, 0, 1, 4):
            full = [F(1)] + [F(0)] * (2 * top)
            for c in roots:
                factor = [(k + 1) * c**k for k in range(len(full))]
                full = [sum(full[i] * factor[m - i] for i in range(m + 1))
                        for m in range(len(full))]
            rows, den = eo._inverse_square_series(roots, top)
            if top < 0:
                assert rows == [], roots
            else:
                assert den == d ** (2 * top), (roots, top)
            assert len(rows) == max(top + 1, 0), (roots, top)
            assert all(type(row) is int for row in rows)
            assert [F(row, den) for row in rows] == full[::2][: top + 1], (roots, top)


def test_spectators_must_be_exact_rationals():
    # a float would carry a binary fraction into an exact check; the engine's
    # own evaluation refuses it with the same error
    with pytest.raises(TypeError, match="exact rational, got float"):
        residue_sum(CURVE_LAPLACE, 0, 3, (0.5, 3.0))
    with pytest.raises(TypeError, match="exact rational, got float"):
        compute(LAPLACE, 0, 3).partial_evaluate({1: 0.5, 2: 3.0})
    exact = residue_sum(CURVE_LAPLACE, 0, 3, (F(1, 2), F(3)))
    assert residue_sum(CURVE_LAPLACE, 0, 3, ("1/2", 3)) == exact
    assert exact == compute(LAPLACE, 0, 3).partial_evaluate({1: F(1, 2), 2: F(3)})
