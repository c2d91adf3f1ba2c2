from itertools import product

import pytest

from ribbonvol.surface import (
    Splitting,
    SurfaceType,
    enumerate_splittings,
    is_stable,
    perimeter_vectors,
)


def test_stability():
    assert not is_stable(0, 1)
    assert not is_stable(0, 2)
    assert is_stable(0, 3)
    assert not is_stable(1, 0)
    assert is_stable(1, 1)
    assert is_stable(2, 0)
    assert is_stable(5, 7)


def test_surface_type():
    s = SurfaceType(1, 2)
    assert s.complexity == 2
    assert s.is_stable()
    assert not SurfaceType(0, 2).is_stable()


def test_no_splittings_for_small_types():
    assert enumerate_splittings(0, (2, 3)) == []
    assert enumerate_splittings(1, ()) == []
    assert enumerate_splittings(0, (1, 2, 3)) == []


def test_genus_two_closed_splitting():
    found = enumerate_splittings(2, ())
    assert found == [Splitting(1, (), 1, ())]


def test_ordered_pairs_both_ways():
    found = enumerate_splittings(1, ("a", "b"))
    # (0,{a,b})+(1,{}) in both orders, (1,{a})+(0,{b}) is unstable on the right
    assert Splitting(0, ("a", "b"), 1, ()) in found
    assert Splitting(1, (), 0, ("a", "b")) in found
    assert len(found) == 2
    for sp in found:
        assert sp.swapped() in found


def test_larger_enumeration_is_symmetric():
    found = enumerate_splittings(2, (0, 1))
    assert len(found) % 2 == 0 or any(sp == sp.swapped() for sp in found)
    for sp in found:
        assert sp.swapped() in found
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
    for n in range(1, 5):
        for max_sum in range(10):
            every = [p for p in product(range(1, max_sum + 1), repeat=n) if sum(p) <= max_sum]
            assert list(perimeter_vectors(n, max_sum)) == every
            ascending = [p for p in every if list(p) == sorted(p)]
            assert list(perimeter_vectors(n, max_sum, ascending=True)) == ascending
