import json
import random
from fractions import Fraction

import pytest

from ribbonvol.lattice import (
    CountTable,
    census,
    count,
    oracle_n02,
    oracle_n11,
    recursion_rhs,
)

F = Fraction


def test_base_cases():
    assert count(0, 3, (2, 3, 5)) == 1
    assert count(0, 3, (1, 1, 1)) == 0  # odd total
    assert count(1, 1, (6,)) == F(2, 3)
    assert count(1, 1, (2,)) == 0
    assert count(1, 1, (4,)) == F(1, 4)


def test_one_vertex_oracle():
    assert oracle_n11(2) == 0
    assert oracle_n11(4) == F(1, 4)
    assert oracle_n11(12) == F(35, 12)
    assert oracle_n11(7) == 0
    with pytest.raises(ValueError):
        oracle_n11(0)


def test_cylinder_oracle():
    assert oracle_n02(3, 3) == F(1, 3)
    assert oracle_n02(2, 5) == 0
    assert oracle_n02(1, 1) == 1


def test_counts_match_one_vertex_oracle():
    for p in range(2, 42, 2):
        assert count(1, 1, (p,)) == oracle_n11(p)


def test_first_four_holed_sphere_values():
    assert count(0, 4, (1, 1, 1, 1)) == 0
    assert count(0, 4, (1, 1, 2, 2)) == 2
    assert count(0, 4, (1, 1, 1, 3)) == 2
    assert count(0, 4, (2, 2, 2, 2)) == 3


def test_parity_vanishing():
    rng = random.Random(7)
    for _ in range(40):
        g = rng.randint(0, 2)
        n = rng.randint(1, 4)
        if 2 * g - 2 + n <= 0:
            continue
        p = [rng.randint(1, 8) for _ in range(n)]
        if sum(p) % 2 == 0:
            p[0] += 1
        assert count(g, n, p) == 0


def test_symmetry():
    rng = random.Random(8)
    for _ in range(25):
        p = [rng.randint(1, 7) for _ in range(4)]
        value = count(0, 4, p)
        rng.shuffle(p)
        assert count(0, 4, p) == value
    assert count(1, 2, (3, 5)) == count(1, 2, (5, 3))


def test_pivot_independence():
    for p in [(2, 3, 5, 6), (4, 4, 4, 4), (1, 2, 3, 4)]:
        values = {recursion_rhs(0, 4, p, pivot) for pivot in range(4)}
        assert values == {count(0, 4, p)}
    for p in [(6, 2), (3, 7), (8, 8)]:
        values = {recursion_rhs(1, 2, p, pivot) for pivot in range(2)}
        assert values == {count(1, 2, p)}


def test_recursion_rhs_rejects_base_cases():
    with pytest.raises(ValueError):
        recursion_rhs(1, 1, (4,), 0)
    with pytest.raises(ValueError):
        recursion_rhs(0, 3, (1, 1, 2), 0)


def test_validation():
    with pytest.raises(ValueError):
        count(0, 2, (1, 1))
    with pytest.raises(ValueError):
        count(0, 3, (1, 2))
    with pytest.raises(ValueError):
        count(0, 3, (1, 2, 0))
    with pytest.raises(ValueError):
        count(0, 3, (1, 2, -3))


def test_bool_perimeters_and_empty_census_are_rejected():
    with pytest.raises(ValueError):
        count(1, 1, (True,))
    with pytest.raises(ValueError):
        count(0, 3, (2, False, 2))
    for bound in (-3, 0, 2):
        with pytest.raises(ValueError):
            census(0, 3, bound)


def test_higher_genus_spot_values():
    # genus two needs perimeter at least 8; the first nonzero counts
    assert all(count(2, 1, (p,)) == 0 for p in (2, 4, 6))
    assert count(2, 1, (8,)) == F(21, 8)
    assert count(2, 1, (10,)) == F(273, 10)


def test_census_rows_and_csv():
    table = census(0, 3, 6)
    assert table.entries[(2, 2, 2)] == 1
    assert all(list(p) == sorted(p) for p, _ in table.rows())
    text = table.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "g,n,p_1,p_2,p_3,numerator,denominator"
    assert "0,3,2,2,2,1,1" in lines


def test_census_cache_round_trip(tmp_path):
    first = census(1, 1, 10, cache_dir=str(tmp_path))
    files = list(tmp_path.glob("census-*.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert doc["format"] == "ribbonvol-census"
    second = census(1, 1, 10, cache_dir=str(tmp_path))
    assert first.entries == second.entries
    rebuilt = CountTable.from_json_dict(doc)
    assert rebuilt.entries == first.entries


def test_census_cache_ignores_foreign_files(tmp_path):
    target = tmp_path / "census-g1-n1-P6.json"
    target.write_text(json.dumps({"format": "something-else"}))
    table = census(1, 1, 6, cache_dir=str(tmp_path))
    assert table.entries[(6,)] == F(2, 3)


def test_census_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RIBBONVOL_CACHE_DIR", str(tmp_path))
    census(0, 3, 5)
    assert list(tmp_path.glob("census-g0-n3-P5.json"))
