from fractions import Fraction
from math import comb, factorial

import pytest

from ribbonvol import clear_caches, crosscheck, lattice, transform
from ribbonvol.cli import main
from ribbonvol.crosscheck import (
    CLASSICAL_INTERSECTIONS,
    continuous_rhs,
    forward_laplace,
    golden_laplace,
    intersection_ratio_report,
    perimeter_volume,
    sample_chamber_points,
    series_identity,
    verify_continuous_recursion,
)
from ribbonvol.exactmath import EvenLaurentPoly
from ribbonvol.surface import enumerate_splittings, perimeter_vectors, stable_types
from ribbonvol.transform import SYMPLECTIC, compute
from test_transform import _acc, _ref_embed, _ref_mul

F = Fraction

# the 12 types up to complexity 5 that the recursion produces, n = 1 included
RECURSIVE_TYPES = [t for t in stable_types(5) if t not in ((0, 3), (1, 1))]


def test_series_identity_small():
    assert series_identity(0, 3, 8) == 56
    assert series_identity(1, 1, 12) == 12
    assert series_identity(0, 4, 10) == 210
    assert series_identity(1, 2, 10) == 45


def test_series_identity_rejects_a_bound_below_n():
    for g, n, bound in [(0, 4, 3), (0, 3, 2), (1, 1, 0)]:
        with pytest.raises(ValueError):
            series_identity(g, n, bound)


def test_series_identity_higher_genus():
    # not required below, but the same bridge holds at genus two and three
    assert series_identity(2, 1, 10) == 10
    assert series_identity(3, 1, 8) == 8


def _changed_l04(monkeypatch, delta):
    """Make ``crosscheck.compute`` return L(0,4) with ``delta`` added to its
    coefficients; every other table is the engine's."""
    real = crosscheck.compute

    def changed(config, g, n):
        poly = real(config, g, n)
        if (g, n) != (0, 4):
            return poly
        terms = dict(poly.terms)
        for exps, d in delta.items():
            terms[exps] = terms.get(exps, 0) + d
        return EvenLaurentPoly(4, terms)

    monkeypatch.setattr(crosscheck, "compute", changed)


@pytest.mark.parametrize(
    "delta, message",
    [
        # one coefficient, at an unsorted exponent vector: every x^p changes
        (
            {(0, -1, 0, -1): F(1, 128)},
            "(0,4): coefficient of x^(1, 1, 1, 1) is 1/8, expected 0",
        ),
        # u_1 - u_2 changes no x^p with p_1 = p_2, so the first p it changes,
        # (1, 2, 1, 1), is unsorted, and its sorted (1, 1, 1, 2) still agrees
        (
            {(1, 0, 0, 0): F(1, 256), (0, 1, 0, 0): F(-1, 256)},
            "(0,4): coefficient of x^(1, 2, 1, 1) is -1/4, expected 0",
        ),
    ],
)
def test_series_identity_fails_on_a_changed_coefficient(monkeypatch, delta, message):
    _changed_l04(monkeypatch, delta)
    with pytest.raises(ArithmeticError) as info:
        series_identity(0, 4, 10)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "orbit, message",
    [
        ((1, 1, 2, 2), "(0,4): coefficient of x^(1, 1, 2, 2) is 8, expected 12"),
        ((1, 2, 3, 4), "(0,4): coefficient of x^(1, 2, 3, 4) is 168, expected 192"),
        ((2, 2, 2, 2), "(0,4): coefficient of x^(2, 2, 2, 2) is 48, expected 64"),
    ],
)
def test_series_identity_fails_on_a_changed_count(monkeypatch, orbit, message):
    # one orbit's count is off by one: the check asks ``count`` once per
    # sorted p, and that one answer must still be compared
    real = lattice.count

    def changed(g, n, p):
        return real(g, n, p) + (tuple(sorted(p)) == orbit)

    monkeypatch.setattr(lattice, "count", changed)
    with pytest.raises(ArithmeticError) as info:
        series_identity(0, 4, 10)
    assert str(info.value) == message


def test_series_identity_asks_count_once_per_orbit(monkeypatch):
    asked = []
    real = lattice.count

    def recording(g, n, p):
        asked.append(p)
        return real(g, n, p)

    monkeypatch.setattr(lattice, "count", recording)
    assert series_identity(0, 4, 12) == 495  # C(12, 4): every p is compared
    assert sorted(asked) == list(perimeter_vectors(4, 12, ascending=True))


def test_perimeter_volume_smallest():
    assert perimeter_volume(0, 3).terms == {(0, 0, 0): F(1)}
    assert perimeter_volume(1, 1).terms == {(1,): F(1, 24)}
    assert perimeter_volume(1, 2).terms == {
        (2, 0): F(1, 48),
        (0, 2): F(1, 48),
        (1, 1): F(1, 24),
    }
    assert perimeter_volume(0, 4).terms == {
        (1, 0, 0, 0): F(1),
        (0, 1, 0, 0): F(1),
        (0, 0, 1, 0): F(1),
        (0, 0, 0, 1): F(1),
    }


def test_forward_laplace_round_trip():
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (3, 1)]:
        assert forward_laplace(perimeter_volume(g, n)) == compute(SYMPLECTIC, g, n)


def test_the_perimeter_maps_refuse_negative_exponents(monkeypatch):
    # v^S and its inverse map are defined on polynomials only
    with pytest.raises(ValueError, match="not a polynomial"):
        forward_laplace(EvenLaurentPoly(1, {(1,): 1, (-1,): 1}))
    monkeypatch.setattr(crosscheck, "compute", lambda config, g, n: EvenLaurentPoly(n, {(-1,) * n: 1}))
    with pytest.raises(ArithmeticError, match=r"^\(0,3\): negative exponent \(-1, -1, -1\) in V\^S$"):
        perimeter_volume(0, 3)


def test_continuous_recursion_hand_value():
    # both sides at (g, n) = (1, 2), p = (5, 2), worked out by hand:
    # 5 * v(5, 2) = (7^5 + 3^5)/480 + 2 * 5^5/120 = 4205/48
    point = (F(5), F(2))
    lhs = point[0] * perimeter_volume(1, 2).evaluate(point)
    assert lhs == F(4205, 48)
    assert 5 * continuous_rhs(1, 2).evaluate(point) == F(4205, 48)


def test_continuous_rhs_is_the_volume():
    # the identity holds as polynomials, also at n = 1 where the chamber is empty
    assert len(RECURSIVE_TYPES) == 12
    assert {(2, 1), (3, 1)} <= set(RECURSIVE_TYPES)
    for g, n in RECURSIVE_TYPES:
        assert continuous_rhs(g, n) == perimeter_volume(g, n), (g, n)


def _ref_rhs(volume, g, n):
    """``continuous_rhs`` on Fraction dicts, over every ordered splitting,
    with each half's slots given by ``_ref_embed``."""
    out = {}
    for (a, *others), c in (volume(g, n - 1).terms.items() if n > 1 else ()):
        m = 2 * a + 3
        for j in range(1, n):
            for i in range(a + 2):
                exps = [a + 1 - i, *others]
                exps.insert(j, i)
                _acc(out, tuple(exps), 2 * c * comb(m, 2 * i) / ((m - 1) * m))
    kernel = dict(volume(g - 1, n + 1).terms) if g else {}
    for sp in enumerate_splittings(g, range(2, n + 1)):
        left = _ref_embed(volume(sp.g1, len(sp.part1) + 1).terms, [0, *sp.part1], n + 1)
        right = _ref_embed(volume(sp.g2, len(sp.part2) + 1).terms, [1, *sp.part2], n + 1)
        for e, c in _ref_mul(left, right).items():
            _acc(kernel, e, c)
    for (a, b, *rest), c in kernel.items():
        weight = F(factorial(2 * a + 1) * factorial(2 * b + 1), factorial(2 * a + 2 * b + 5))
        _acc(out, (a + b + 2, *rest), 2 * c * weight)
    return out


def test_splitting_product_places_each_half_at_its_slots(monkeypatch):
    # the true volumes are symmetric, so a half's slots could be permuted
    # unseen; v_{0,4} + u_2 + 3 u_3^2 is not, and it is a half of (0,6) and
    # both halves of one (0,7) splitting
    true_volume = crosscheck.perimeter_volume

    def unsymmetric(g, n):
        volume = true_volume(g, n)
        if (g, n) == (0, 4):
            volume = volume + EvenLaurentPoly(4, {(0, 1, 0, 0): 1, (0, 0, 2, 0): 3})
        return volume

    for g, n in [(0, 6), (0, 7)]:
        assert dict(continuous_rhs(g, n).terms) == _ref_rhs(true_volume, g, n), (g, n)
    monkeypatch.setattr(crosscheck, "perimeter_volume", unsymmetric)
    for g, n in [(0, 6), (0, 7)]:
        want = _ref_rhs(unsymmetric, g, n)
        assert want != _ref_rhs(true_volume, g, n), (g, n)
        assert dict(continuous_rhs(g, n).terms) == want, (g, n)


def test_continuous_recursion_sees_a_wrong_kernel(monkeypatch, capsys):
    wrong = SYMPLECTIC._replace(kappa=EvenLaurentPoly(1, {(2,): 1, (1,): 1}))
    clear_caches()
    monkeypatch.setitem(transform.CONFIGS, "symplectic", wrong)
    monkeypatch.setattr(crosscheck, "SYMPLECTIC", wrong)
    try:
        # the engine's orbit guard refuses the unsymmetric tables it makes,
        with pytest.raises(ArithmeticError, match=r"^\(1,2\): the rows of orbit"):
            perimeter_volume(1, 2)
        # and without that guard the integral recursion sees it
        clear_caches()
        monkeypatch.setattr(transform, "_check_orbits", lambda g, n, rows: None)
        differ = [t for t in RECURSIVE_TYPES if continuous_rhs(*t) != perimeter_volume(*t)]
        assert main(["verify", "--suite", "symplectic"]) == 1
        rows = capsys.readouterr().out.splitlines()
    finally:
        clear_caches()
    assert differ == RECURSIVE_TYPES
    failed = [row.split()[2] for row in rows if row.startswith("FAIL")]
    assert failed == ["integral(0,4)", "integral(1,2)"]


def test_continuous_recursion_sees_a_perturbed_lower_volume(monkeypatch):
    true_volume = crosscheck.perimeter_volume

    def bumped(g, n):
        volume = true_volume(g, n)
        if (g, n) == (0, 4):
            volume = volume + EvenLaurentPoly.monomial(4, (1, 0, 0, 0))
        return volume

    monkeypatch.setattr(crosscheck, "perimeter_volume", bumped)
    results = verify_continuous_recursion(0, 5, trials=5, seed=0)
    assert [ok for _, ok in results] == [False] * 5


def test_continuous_recursion_seeded():
    # (0, 4) and (1, 2) have no stable splitting; the other three check the
    # splitting product of the kernel
    for g, n in [(0, 4), (1, 2), (0, 5), (1, 3), (2, 2)]:
        results = verify_continuous_recursion(g, n, trials=5, seed=0)
        assert len(results) == 5
        assert all(ok for _, ok in results), (g, n)


def test_continuous_recursion_other_seeds():
    for seed in (1, 2):
        assert all(ok for _, ok in verify_continuous_recursion(1, 2, 3, seed))


def test_continuous_recursion_needs_a_trial():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            verify_continuous_recursion(1, 2, trials=trials)


def test_continuous_recursion_needs_two_boundaries():
    # the chamber p_1 > p_j has no p_j at n = 1; this used to end in a bare
    # "max() arg is an empty sequence" from the chamber sampler
    for g in (1, 2):
        with pytest.raises(ValueError, match="n >= 2"):
            verify_continuous_recursion(g, 1)


def test_continuous_recursion_rejects_the_base_type():
    # (0, 3) is a base case: it used to fail as "(0, 2) is not stable", raised
    # by a lower table
    with pytest.raises(ValueError, match=r"\(0, 3\) is a base case"):
        verify_continuous_recursion(0, 3)
    for g, n in [(0, 3), (1, 1)]:
        with pytest.raises(ValueError, match=rf"\({g}, {n}\) is a base case"):
            continuous_rhs(g, n)


def test_chamber_points_are_in_the_chamber():
    pts = sample_chamber_points(0, 4, 8, 3)
    assert pts == sample_chamber_points(0, 4, 8, 3)
    for point in pts:
        assert all(point[0] > v > 0 for v in point[1:])


def test_golden_table_is_complete():
    table = golden_laplace()
    assert set(table) == {(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (3, 1)}
    for (g, n), poly in table.items():
        assert poly.arity == n


def test_intersection_report_rows():
    rows = intersection_ratio_report(2, 1)
    assert rows == [((4,), F(1, 144), F(1, 1152), F(8))]
    rows = intersection_ratio_report(1, 1)
    assert rows == [((1,), F(1, 24), F(1, 24), F(1))]
    rows = intersection_ratio_report(0, 3)
    assert rows == [((0, 0, 0), F(1, 8), F(1), F(1, 8))]


def test_intersection_report_outside_table():
    rows = intersection_ratio_report(2, 2)
    assert rows
    for key, literal, classical, ratio in rows:
        assert classical is None and ratio is None
        assert literal > 0


def test_classical_table_values():
    assert CLASSICAL_INTERSECTIONS[(1, 1)] == {(1,): F(1, 24)}
    assert CLASSICAL_INTERSECTIONS[(2, 1)] == {(4,): F(1, 1152)}
