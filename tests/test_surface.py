import re
from itertools import product

import pytest

from ribbonvol.crosscheck import series_identity, verify_continuous_recursion
from ribbonvol.eo import CURVE_LAPLACE, integrand_terms, verify_eo
from ribbonvol.exactmath import EvenLaurentPoly, laurent_to_series
from ribbonvol.lattice import census, count, oracle_n11, recursion_rhs
from ribbonvol.surface import (
    Splitting,
    enumerate_splittings,
    is_stable,
    perimeter_vectors,
    stable_types,
    swap_classes,
)
from ribbonvol.transform import LAPLACE, compute


def test_stability():
    assert not is_stable(0, 1)
    assert not is_stable(0, 2)
    assert is_stable(0, 3)
    assert not is_stable(1, 0)
    assert is_stable(1, 1)
    assert not is_stable(2, 0)  # a closed surface carries no perimeter
    assert is_stable(5, 7)
    for g, n in [(2.5, 1), (0, 4.0), (1.0, 1), (True, 1), (0, True), (False, 3)]:
        assert not is_stable(g, n), (g, n)  # not integers, though stable by value


# every entry point rejects a non-integer (g, n) as its own, not as the
# type of a lower call, and never answers or fails further in
ENTRY_POINTS = {
    "compute": lambda g, n: compute(LAPLACE, g, n),
    "count": lambda g, n: count(g, n, (2, 2, 2, 2)),
    "census": lambda g, n: census(g, n, 12),
    "recursion_rhs": lambda g, n: recursion_rhs(g, n, (2, 2, 2, 2), 0),
    "integrand_terms": lambda g, n: integrand_terms(CURVE_LAPLACE, g, n, (3, 5, 7)),
    "verify_eo": lambda g, n: verify_eo(CURVE_LAPLACE, g, n),
    "series_identity": lambda g, n: series_identity(g, n, 12),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("g, n", [(2.5, 1), (0, 4.0), (True, 1), (1, True)])
def test_entry_points_reject_non_integer_types(entry, g, n):
    with pytest.raises(ValueError, match=re.escape(f"({g}, {n}) is not stable")):
        ENTRY_POINTS[entry](g, n)


# every other integer argument goes through one check in ``surface``: a
# float, a bool and an out-of-range int each raise a ValueError that names
# the argument.  census(0, 4, 12.0) and its kin once raised a TypeError from
# ``range``, oracle_n11(True) and trials=True once answered silently, and
# perimeter_vectors(-1, 5) once recursed until RecursionError
_POLY = EvenLaurentPoly(2, {(1, 0): 1})
INT_ARGUMENTS = {
    "enumerate_splittings": ("g", lambda v: enumerate_splittings(v, ()), (1.0, True, -1)),
    "count": ("perimeter", lambda v: count(0, 3, (2, v, 2)), (2.0, True, 0)),
    "recursion_rhs": ("pivot", lambda v: recursion_rhs(0, 4, (4, 2, 2, 2), v), (0.0, True, 4)),
    "oracle_n11": ("p", oracle_n11, (6.0, True, 0)),
    "census": ("max_sum", lambda v: census(0, 4, v), (12.0, True, 3)),
    "series_identity": ("max_sum", lambda v: series_identity(0, 4, v), (12.0, True, 3)),
    "verify_continuous_recursion": (
        "trials", lambda v: verify_continuous_recursion(0, 4, trials=v), (2.5, True, 0)
    ),
    "verify_eo": ("trials", lambda v: verify_eo(CURVE_LAPLACE, 0, 4, trials=v), (2.5, True, 0)),
    "EvenLaurentPoly": ("arity", EvenLaurentPoly, (1.0, True, -1)),
    "__pow__": ("power", lambda v: _POLY**v, (2.0, True, -1)),
    "_check_var": ("variable index", _POLY.t_derivative, (1.0, True, 2)),
    "laurent_to_series": ("order", lambda v: laurent_to_series(_POLY, v), (4.0, True, -1)),
    "perimeter_vectors": ("n", lambda v: perimeter_vectors(v, 5), (1.0, True, -1)),
}


@pytest.mark.parametrize(
    "site, value", [(site, v) for site, (_, _, bad) in INT_ARGUMENTS.items() for v in bad]
)
def test_integer_arguments_are_checked_in_one_place(site, value):
    name, call, _ = INT_ARGUMENTS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be .* an int, got {value!r}$"):
        call(value)


def test_negative_genus_or_boundary_count_is_not_stable():
    # 2g - 2 + n alone is positive for all of these
    assert not is_stable(-1, 5)
    assert not is_stable(-2, 9)
    assert not is_stable(2, -1)
    assert not is_stable(3, -3)


def test_stable_types_in_complexity_then_genus_order():
    for bound in range(-1, 9):
        every = [
            (g, n)
            for g in range(bound + 1)
            for n in range(1, bound + 3)
            if is_stable(g, n) and 2 * g - 2 + n <= bound
        ]
        assert stable_types(bound) == sorted(every, key=lambda t: (2 * t[0] - 2 + t[1], t[0]))
    assert stable_types(2) == [(0, 3), (1, 1), (0, 4), (1, 2)]


def test_no_splittings_for_small_types():
    assert enumerate_splittings(0, (2, 3)) == []
    assert enumerate_splittings(1, ()) == []
    assert enumerate_splittings(0, (1, 2, 3)) == []


def test_genus_two_closed_splitting():
    found = enumerate_splittings(2, ())
    assert found == [Splitting(1, (), 1, ())]


def _swap(sp):
    return Splitting(sp.g2, sp.part2, sp.g1, sp.part1)


def test_ordered_pairs_both_ways():
    found = enumerate_splittings(1, ("a", "b"))
    # (0,{a,b})+(1,{}) in both orders, (1,{a})+(0,{b}) is unstable on the right
    assert Splitting(0, ("a", "b"), 1, ()) in found
    assert Splitting(1, (), 0, ("a", "b")) in found
    assert len(found) == 2
    for sp in found:
        assert _swap(sp) in found


def test_larger_enumeration_is_symmetric():
    found = enumerate_splittings(2, (0, 1))
    assert len(found) % 2 == 0 or any(sp == _swap(sp) for sp in found)
    for sp in found:
        assert _swap(sp) in found
        assert sp.g1 + sp.g2 == 2
        assert sorted(sp.part1 + sp.part2) == [0, 1]
        assert is_stable(sp.g1, len(sp.part1) + 1)
        assert is_stable(sp.g2, len(sp.part2) + 1)


def bitmask_splittings(g, m):
    """Every ordered ((g1, I), (g2, J)) over g and {0..m-1} whose halves are
    each stable with their new slot, or a two-point half (genus 0, one
    label); a brute-force oracle for ``enumerate_splittings(.., pairs=True)``."""

    def ok(gp, size):
        return (gp == 0 and size == 1) or is_stable(gp, size + 1)

    for g1 in range(g + 1):
        for mask in range(2**m):
            part1 = tuple(i for i in range(m) if mask >> i & 1)
            part2 = tuple(i for i in range(m) if not mask >> i & 1)
            if ok(g1, len(part1)) and ok(g - g1, len(part2)):
                yield g1, part1, g - g1, part2


def test_splittings_equal_the_bitmask_oracle():
    for g in range(4):
        for m in range(6):
            oracle = set(bitmask_splittings(g, m))
            with_pairs = enumerate_splittings(g, range(m), pairs=True)
            assert len(with_pairs) == len(oracle) and set(with_pairs) == oracle, (g, m)
            stable = {sp for sp in oracle
                      if is_stable(sp[0], len(sp[1]) + 1) and is_stable(sp[2], len(sp[3]) + 1)}
            assert set(enumerate_splittings(g, range(m))) == stable, (g, m)


def test_parts_keep_the_order_of_the_labels():
    labels = ("c", "a", "d", "b")
    for sp in enumerate_splittings(2, labels, pairs=True):
        for part in (sp.part1, sp.part2):
            assert list(part) == sorted(part, key=labels.index)


def test_swap_classes_pick_one_splitting_per_swap_orbit():
    for g in range(5):
        for m in range(5):
            for pairs in (False, True):
                ordered = enumerate_splittings(g, range(m), pairs=pairs)
                classes = swap_classes(ordered)
                orbits = {frozenset((sp, _swap(sp))) for sp in ordered}
                assert len(classes) == len(orbits)
                assert {frozenset((sp, _swap(sp))) for sp, _ in classes} == orbits
                for sp, orderings in classes:
                    assert orderings == (1 if sp == _swap(sp) else 2)
                assert sum(orderings for _, orderings in classes) == len(ordered)


def test_validation():
    with pytest.raises(ValueError):
        enumerate_splittings(-1, ())
    with pytest.raises(ValueError):
        enumerate_splittings(1, ("a", "a"))


def test_perimeter_vectors_in_lexicographic_order():
    # n = 0 has the one empty vector, whose sum 0 exceeds a negative bound
    for n in range(5):
        for max_sum in range(-3, 10):
            every = [p for p in product(range(1, max_sum + 1), repeat=n) if sum(p) <= max_sum]
            assert list(perimeter_vectors(n, max_sum)) == every
            ascending = [p for p in every if list(p) == sorted(p)]
            assert list(perimeter_vectors(n, max_sum, ascending=True)) == ascending
