from itertools import product

import pytest

from ribbonvol.surface import (
    Splitting,
    enumerate_splittings,
    is_stable,
    perimeter_vectors,
    stable_types,
)


def test_stability():
    assert not is_stable(0, 1)
    assert not is_stable(0, 2)
    assert is_stable(0, 3)
    assert not is_stable(1, 0)
    assert is_stable(1, 1)
    assert not is_stable(2, 0)  # a closed surface carries no perimeter
    assert is_stable(5, 7)


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
