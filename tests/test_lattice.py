import functools
import json
import os
import random
import sys
import threading
from fractions import Fraction

import pytest

from ribbonvol import __version__, cache_info, clear_caches, lattice
from ribbonvol.exactmath import laurent_to_series
from ribbonvol.lattice import census, count, oracle_n11
from ribbonvol.surface import enumerate_splittings, perimeter_vectors, stable_types
from ribbonvol.transform import LAPLACE, compute

F = Fraction


# ---------------------------------------------------------------------------
# the recursion summed by its direct loops: O(p) per j-sum and O(p^2) over
# (q1, q2), the reference for the prefix-moment form in the package


@functools.lru_cache(maxsize=None)
def _direct(g, n, p):
    # p sorted descending
    if 0 in p or sum(p) % 2:
        return F(0)
    if (g, n) == (0, 3):
        return F(1)
    if (g, n) == (1, 1):
        return F(p[0] ** 2 - 4, 48)
    return _direct_rhs(g, n, p[0], p[1:]) / p[0]


def _direct_count(g, n, p):
    return _direct(g, n, tuple(sorted(p, reverse=True)))


def _direct_pivot(g, n, p, pivot):
    # the recursion with p[pivot] as the pivot: every pivot gives N_{g,n}(p)
    if sum(p) % 2:
        return F(0)
    rest = tuple(sorted(p[:pivot] + p[pivot + 1 :], reverse=True))
    return _direct_rhs(g, n, p[pivot], rest) / p[pivot]


def _direct_rhs(g, n, p1, rest):
    total = F(0)
    for idx in range(len(rest)):
        pj = rest[idx]
        others = rest[:idx] + rest[idx + 1 :]
        parity = sum(others) % 2
        s = F(0)
        for q in range(2 - parity, p1 + pj, 2):
            s += q * (p1 + pj - q) * _direct_count(g, n - 1, (q,) + others)
        if p1 > pj:
            for q in range(2 - parity, p1 - pj, 2):
                s += q * (p1 - pj - q) * _direct_count(g, n - 1, (q,) + others)
        elif pj > p1:
            for q in range(2 - parity, pj - p1, 2):
                s -= q * (pj - p1 - q) * _direct_count(g, n - 1, (q,) + others)
        total += s

    splittings = enumerate_splittings(g, range(len(rest)))
    if g >= 1 or splittings:
        for q1 in range(1, p1 - 1):
            for q2 in range(1, p1 - q1):
                w = q1 * q2 * (p1 - q1 - q2)
                bracket = F(0)
                if g >= 1:
                    bracket += _direct_count(g - 1, n + 1, (q1, q2) + rest)
                for sp in splittings:
                    part1 = tuple(rest[i] for i in sp.part1)
                    left = _direct_count(sp.g1, len(part1) + 1, (q1,) + part1)
                    if left:
                        part2 = tuple(rest[i] for i in sp.part2)
                        bracket += left * _direct_count(sp.g2, len(part2) + 1, (q2,) + part2)
                if bracket:
                    total += w * bracket
    return total / 2


def _by_recursion(g, n, p):
    # the package's recursion alone, whatever route ``count`` would take: the
    # oracle the class polynomials are interpolated from and checked against
    with lattice._lock:
        return lattice._N(g, n, tuple(sorted(p, reverse=True)))


@pytest.mark.parametrize(
    "g,n", [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1), (2, 2), (3, 1), (1, 4), (0, 6)]
)
def test_moment_sums_equal_the_direct_loops(g, n):
    # (2, 2) and (3, 1) rescale their tables up to a denominator of 480; the
    # direct loops of the wider (1, 4) and (0, 6) are kept fast at sums <= 12
    max_sum = 12 if (g, n) in ((1, 4), (0, 6)) else 16
    for p in perimeter_vectors(n, max_sum, ascending=True):
        expected = _direct_count(g, n, p)
        assert count(g, n, p) == expected, p
        if (g, n) not in ((0, 3), (1, 1)):
            # the direct loops at every pivot, the negatively signed j-term included
            assert {_direct_pivot(g, n, p, pivot) for pivot in range(n)} == {expected}, p


def test_moment_tables_answer_the_same_in_either_order():
    clear_caches()
    cold = count(2, 2, (6, 4))
    assert cold == _direct_count(2, 2, (6, 4))
    clear_caches()
    _by_recursion(2, 2, (20, 20))
    assert count(2, 2, (6, 4)) == cold
    # the same after every (3, 2) table has been grown, and rescaled, well past
    # what (16, 12) reads
    clear_caches()
    cold = _by_recursion(3, 2, (16, 12))
    clear_caches()
    _by_recursion(3, 2, (28, 24))
    assert _by_recursion(3, 2, (16, 12)) == cold


def test_deep_values_at_rescaled_tables():
    # computed by summing every moment as a Fraction; each is past its class
    # grid, so ``count`` reads it off the class polynomial
    clear_caches()
    for g, n, p, value in [
        (4, 1, (24,), F(6770614565, 12)),
        (3, 2, (16, 12), F(1187977707, 4)),
        (2, 3, (12, 10, 10), 28023716),
        (3, 1, (28,), F(2112453915, 14)),
    ]:
        assert _by_recursion(g, n, p) == count(g, n, p) == value


# ---------------------------------------------------------------------------
# counts off the class polynomials: on each parity class, N_{g,n} is a
# polynomial of degree d = 3g - 3 + n in p_1^2 .. p_n^2, interpolated from
# the recursion on the lower set p = 2k + r, sum(k) <= d, whose largest
# perimeter sum is R = 2d + 2n


@pytest.mark.parametrize("g,n", stable_types(5))
def test_class_polynomials_equal_the_recursion_past_their_grids(g, n):
    # the class evaluator called directly, whatever ``count`` would choose:
    # once per parity class, on all of its vectors past R in both orders
    bound = lattice._grid_bound(g, n)
    clear_caches()
    classes = {}
    for p in perimeter_vectors(n, bound + 12, ascending=True):
        if sum(p) > bound and sum(p) % 2 == 0:
            classes.setdefault(sum(x % 2 for x in p), []).extend([p, p[::-1]])
    assert classes
    for vectors in classes.values():
        nums, den = lattice._class_values(g, n, vectors)
        assert [F(num, den) for num in nums] == [_by_recursion(g, n, p) for p in vectors], vectors


@pytest.mark.parametrize("g, p", [(4, 60), (5, 80)])
def test_single_counts_equal_the_series_bridge(g, p):
    # the coefficient of x^p in L_{g,1}(t(x)) (t^2 - 1)/2 is -p N_{g,1}(p);
    # a cold recursion takes seconds for (4, 60) and a minute for (5, 80)
    clear_caches()
    series = laurent_to_series(compute(LAPLACE, g, 1), p)
    assert count(g, 1, (p,)) == F(series.coefficient((p,)), -p)


def test_the_class_route_reads_its_grid(monkeypatch):
    # one grid value off by one moves the answer: the route is not vacuous
    point, p = (3, 2, (9, 7)), (41, 39)
    real = lattice._N
    clear_caches()
    honest = count(3, 2, p)
    assert lattice._by_class(3, 2, sum(p)) and sum(point[2]) <= lattice._grid_bound(3, 2)

    def off_by_one(g, n, q):
        value = real(g, n, q)
        return value + 1 if (g, n, q) == point else value

    monkeypatch.setattr(lattice, "_N", off_by_one)
    clear_caches()
    try:
        assert count(3, 2, p) != honest
    finally:
        monkeypatch.undo()
        clear_caches()
    assert count(3, 2, p) == honest


def test_the_recursion_cache_holds_no_zero_total_and_no_base_case(monkeypatch):
    # the sizes of the hand-kept memo these caches replaced, which skipped both
    clear_caches()
    count(2, 2, (22, 18))
    assert cache_info()["lattice"] == 60
    census(1, 4, 20)
    assert cache_info()["lattice"] == 228
    _by_recursion(3, 2, (16, 12))
    assert cache_info()["lattice"] == 1021
    # emptied through the builders themselves, whatever the module names now hold
    monkeypatch.setattr(lattice, "_N", None)
    monkeypatch.setattr(lattice, "_class_table", None)
    clear_caches()
    assert cache_info()["lattice"] == 0


@pytest.mark.parametrize(
    "g, n, total, routed",
    [(0, 3, 9, False), (0, 3, 10, True), (1, 1, 4, False), (1, 1, 6, True),
     (2, 1, 11, False), (2, 1, 10, False), (2, 1, 12, True), (3, 2, 22, True), (2, 3, 26, False), (2, 3, 28, True),
     (0, 4, 18, False), (0, 4, 20, True), (1, 4, 30, False), (1, 4, 32, True),
     (0, 9, 134, False), (0, 9, 136, True)],
)
def test_the_route_depends_on_the_type_and_the_total(g, n, total, routed):
    # past R = 2(3g - 3 + n) + 2n and from nR/2 on: R = 6 for (0, 3), 4 for
    # (1, 1), 10 for (2, 1) and (0, 4), 20 for (3, 2), 18 for (2, 3), 16 for
    # (1, 4) and 30 for (0, 9)
    assert lattice._by_class(g, n, total) is routed


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


@pytest.mark.parametrize("g,n", stable_types(5))
def test_counts_vanish_below_twice_the_fewest_edges(g, n):
    # a ribbon graph has at least 2g - 1 + n edges, each counted twice in
    # sum(p); the direct loops know nothing of this bound
    bound = 4 * g - 2 + 2 * n
    on_bound = set()
    for p in perimeter_vectors(n, bound, ascending=True):
        expected = _direct_count(g, n, p)
        assert count(g, n, p) == expected, p
        if sum(p) < bound:
            assert expected == 0, p
            if (g, n) not in ((0, 3), (1, 1)):
                assert {_direct_pivot(g, n, p, pivot) for pivot in range(n)} == {0}, p
        elif sum(p) == bound:
            on_bound.add(expected)
    assert on_bound - {0}, "the bound is not reached"


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
        values = {_direct_pivot(0, 4, p, pivot) for pivot in range(4)}
        assert values == {count(0, 4, p)}
    for p in [(6, 2), (3, 7), (8, 8)]:
        values = {_direct_pivot(1, 2, p, pivot) for pivot in range(2)}
        assert values == {count(1, 2, p)}


@pytest.mark.parametrize("g, n, p, shapes", [(3, 1, (28,), 6), (2, 2, (23, 17), 5)])
def test_splittings_are_enumerated_once_per_shape(monkeypatch, g, n, p, shapes):
    calls = []

    def counted(genus, labels):
        calls.append((genus, len(labels)))
        return enumerate_splittings(genus, labels)

    monkeypatch.setattr(lattice, "enumerate_splittings", counted)
    for _ in range(2):  # and again once the caches are emptied
        clear_caches()
        calls.clear()
        count(g, n, p)
        assert len(calls) == len(set(calls)) == shapes


def test_validation():
    with pytest.raises(ValueError):
        count(0, 2, (1, 1))
    with pytest.raises(ValueError):
        count(0, 3, (1, 2))
    with pytest.raises(ValueError):
        count(0, 3, (1, 2, 0))
    with pytest.raises(ValueError):
        count(0, 3, (1, 2, -3))



def test_negative_genus_is_rejected():
    # 2g - 2 + n = 1 here, but there is no surface of genus -1
    with pytest.raises(ValueError, match="not stable"):
        count(-1, 5, (1, 2, 2, 2, 2))
    with pytest.raises(ValueError, match="not stable"):
        census(-1, 5, 5)

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


@pytest.mark.parametrize("g,n", stable_types(5))
def test_census_past_its_grids_equals_the_recursion(g, n):
    # R + 8 takes every parity class past its grid, and also the even totals
    # from R to nR/2 that a single count leaves to the recursion
    bound = lattice._grid_bound(g, n) + 8
    clear_caches()
    table = census(g, n, bound)
    expected = {p: _by_recursion(g, n, p) for p in perimeter_vectors(n, bound, ascending=True)}
    assert table.entries == expected and list(table.entries) == list(expected)
    # each row is the reduced text of its count, in vector order
    assert table.text == [(p, f"{v.numerator}/{v.denominator}") for p, v in expected.items()]
    assert table.rows() == sorted(table.rows())


def _no_counting(*args):
    raise AssertionError("a warm census read computed a count")


def _forbid_counting(patch):
    # a census counts through ``count``, the recursion and the class tables alone
    for name in ("count", "_N", "_class_table"):
        patch.setattr(lattice, name, _no_counting)


def test_census_asks_count_up_to_its_grid_bound_and_only_when_computing(tmp_path, monkeypatch):
    # a table computed calls ``count`` for each even total up to R and reads
    # the rest off the classes; a table read from its cache calls none
    # (perfbench's tracer scores a census with no ``count`` inside as a hit)
    asked, real = [], lattice.count
    monkeypatch.setattr(lattice, "count", lambda g, n, p: asked.append(p) or real(g, n, p))
    cold = census(0, 4, 16, cache_dir=str(tmp_path))
    bound = lattice._grid_bound(0, 4)
    assert asked == [p for p in perimeter_vectors(4, 16, ascending=True) if sum(p) <= bound and sum(p) % 2 == 0]
    asked.clear()
    assert census(0, 4, 16, cache_dir=str(tmp_path)).entries == cold.entries and asked == []


def test_census_cache_round_trip(tmp_path, monkeypatch):
    # one line of compact JSON, for a table past its grids at each n
    for g, n in [(2, 1), (1, 2), (1, 3), (0, 4), (0, 5), (0, 6)]:
        bound = lattice._grid_bound(g, n) + 6
        table = census(g, n, bound, cache_dir=str(tmp_path / "each"))
        written = (tmp_path / "each" / f"census-g{g}-n{n}-P{bound}.json").read_text()
        assert written == json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":")), (g, n)
    first = census(1, 1, 10, cache_dir=str(tmp_path))
    files = list(tmp_path.glob("census-*.json"))
    assert len(files) == 1
    written = files[0].read_text()
    assert written == json.dumps(first.to_json_dict(), sort_keys=True, separators=(",", ":"))
    doc = json.loads(written)
    assert doc["format"] == "ribbonvol-census"
    indented = json.dumps(doc, indent=0, sort_keys=True)  # the layout of earlier releases
    # the warm read is the file alone: no count is computed, nothing is rewritten
    _forbid_counting(monkeypatch)
    for text in (indented, written):
        files[0].write_text(text)
        second = census(1, 1, 10, cache_dir=str(tmp_path))
        assert first.entries == second.entries
        assert files[0].read_text() == text


def test_census_cache_written_from_fractions_loads_as_a_hit(tmp_path, monkeypatch):
    # the compact document as written when every row was formatted from its
    # Fraction, here the recursion's, sorted by vector
    values = {p: _by_recursion(0, 4, p) for p in perimeter_vectors(4, 14, ascending=True)}
    doc = {
        "format": "ribbonvol-census", "version": __version__, "g": 0, "n": 4, "max_sum": 14,
        "entries": [[list(p), f"{v.numerator}/{v.denominator}"] for p, v in sorted(values.items())],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    target = tmp_path / "census-g0-n4-P14.json"
    target.write_text(text)
    _forbid_counting(monkeypatch)
    table = census(0, 4, 14, cache_dir=str(tmp_path))
    assert table.to_json_dict() == doc and table.entries == values
    assert target.read_text() == text


def test_census_cache_ignores_foreign_files(tmp_path):
    target = tmp_path / "census-g1-n1-P6.json"
    target.write_text(json.dumps({"format": "something-else"}))
    table = census(1, 1, 6, cache_dir=str(tmp_path))
    assert table.entries[(6,)] == F(2, 3)


def test_census_cache_with_wrong_keys_or_values_is_recomputed(tmp_path):
    expected = census(1, 1, 4).entries
    target = tmp_path / "census-g1-n1-P4.json"
    census(1, 1, 4, cache_dir=str(tmp_path))
    good = json.loads(target.read_text())
    bad_docs = [
        {**good, "entries": [[[2], "1/2"]]},  # keys other than the table's vectors
        {**good, "entries": [[p, "oops"] for p, _ in good["entries"]]},  # not a Fraction
        {**good, "entries": [[p, "1/0"] for p, _ in good["entries"]]},
        {**good, "entries": [[p, 0.25] for p, _ in good["entries"]]},  # not exact text
        {**good, "entries": [[p, None] for p, _ in good["entries"]]},
        {**good, "entries": [[p, "1/2/3"] for p, _ in good["entries"]]},
        {**good, "entries": good["entries"][::-1]},
        {**good, "entries": good["entries"] + good["entries"][-1:]},
        {**good, "entries": good["entries"][:-1]},  # a correct prefix of the table
        {**good, "entries": []},
        {**good, "entries": None},
        [good],
        {**good, "entries": good["entries"][:-1] + [[[4]]]},  # an entry of one item
        {**good, "entries": good["entries"][:-1] + [[[4], "1/4", "1/4"]]},  # and of three
        {**good, "entries": good["entries"][:-1] + [["4", "1/4"]]},  # a vector spelled as a string
    ]
    for doc in bad_docs:
        target.write_text(json.dumps(doc))
        assert census(1, 1, 4, cache_dir=str(tmp_path)).entries == expected, doc
        # the recomputed table replaced the bad file
        assert json.loads(target.read_text()) == good


def test_census_cache_in_a_form_the_writer_never_produces_is_recomputed(tmp_path):
    # each of these documents holds the right numbers, but not as written
    expected = census(1, 1, 6).entries
    target = tmp_path / "census-g1-n1-P6.json"
    census(1, 1, 6, cache_dir=str(tmp_path))
    good = json.loads(target.read_text())
    assert good["entries"][-1] == [[6], "2/3"]

    def last_value(text):
        return {**good, "entries": good["entries"][:-1] + [[[6], text]]}

    bad_docs = [
        last_value("4/6"),
        last_value("  4/6 "),
        last_value(" 2/3"),
        last_value("+2/3"),
        {**good, "entries": [[p, "0"] if v == "0/1" else [p, v] for p, v in good["entries"]]},
        {**good, "entries": [[p, "-0/1"] if v == "0/1" else [p, v] for p, v in good["entries"]]},
        {**good, "entries": [[p, "0/2"] if v == "0/1" else [p, v] for p, v in good["entries"]]},
        {**good, "note": "an extra top-level key"},
        last_value("-2/-3"),  # both signs moved
        last_value("2/0_3"),  # int() reads the underscore
        last_value("\u0662/3"),  # and the Arabic-Indic digit two
    ]
    for doc in bad_docs:
        target.write_text(json.dumps(doc))
        assert census(1, 1, 6, cache_dir=str(tmp_path)).entries == expected, doc
        assert json.loads(target.read_text()) == good, doc


def test_census_cache_with_numbers_that_are_not_ints_is_recomputed(tmp_path):
    # each of these compares == to the written document, as false == 0,
    # 6.0 == 6 and true == 1, but the writer never spells a number so
    expected = census(0, 3, 6).entries
    target = tmp_path / "census-g0-n3-P6.json"
    census(0, 3, 6, cache_dir=str(tmp_path))
    good = json.loads(target.read_text())
    assert good["g"] == 0 and good["max_sum"] == 6 and [1, 1, 2] in (p for p, _ in good["entries"])

    def vector_as(spelled):
        return {**good, "entries": [[spelled if p == [1, 1, 2] else p, v] for p, v in good["entries"]]}

    spellings = {
        '"g":false': {**good, "g": False},
        '"max_sum":6.0': {**good, "max_sum": 6.0},
        "[1.0,1,2]": vector_as([1.0, 1, 2]),
        "[true,1,2]": vector_as([True, 1, 2]),
    }
    for spelling, doc in spellings.items():
        assert doc == good
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert spelling in text
        target.write_text(text)
        assert census(0, 3, 6, cache_dir=str(tmp_path)).entries == expected, spelling
        assert target.read_text() != text, spelling  # a miss: recomputed and rewritten
        assert json.loads(target.read_text()) == good


def test_census_cache_dir_that_is_a_file_is_rejected(tmp_path):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    with pytest.raises(NotADirectoryError):
        census(1, 1, 4, cache_dir=str(path))


def test_census_cache_dir_that_cannot_be_named_fails_before_counting(monkeypatch):
    def no_counting(*args):
        raise AssertionError("a count was computed for an unusable cache directory")

    monkeypatch.setattr(lattice, "_N", no_counting)
    monkeypatch.setattr(lattice, "_class_table", no_counting)
    with pytest.raises(OSError, match="embedded null byte"):
        census(0, 4, 12, cache_dir="bad\0path")


def _failed_move(src, dst):
    raise OSError("the move into place failed")


def test_census_cache_write_that_cannot_be_moved_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "replace", _failed_move)
    with pytest.raises(OSError, match="the move into place failed"):
        census(0, 3, 6, cache_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []


def _run_threads(target, workers):
    errors = []

    def run():
        try:
            target()
        except Exception as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_concurrent_counts_agree():
    points = [(2, 2, (12, 10)), (1, 3, (10, 8, 6)), (0, 5, (6, 5, 4, 3, 2))]
    expected = {point: _direct_count(*point) for point in points}
    results = []

    def work():
        results.append({point: count(*point) for point in points})

    clear_caches()
    assert _run_threads(work, workers=8) == []
    assert results == [expected] * 8


def test_concurrent_census_writers_share_no_file(tmp_path, monkeypatch):
    expected = census(1, 2, 16).entries
    target = tmp_path / "census-g1-n2-P16.json"
    # the memo is warm, so the writers reach the file together
    for _ in range(8):
        assert _run_threads(lambda: census(1, 2, 16, cache_dir=str(tmp_path)), workers=8) == []
        # nothing left behind but the table, and the table loads as written
        assert os.listdir(tmp_path) == [target.name]
        with monkeypatch.context() as patch:
            _forbid_counting(patch)
            assert census(1, 2, 16, cache_dir=str(tmp_path)).entries == expected
        target.unlink()


def test_census_reads_no_environment(tmp_path, monkeypatch):
    # the command line resolves RIBBONVOL_CACHE_DIR; a caller in process that
    # names no cache_dir gets no cache, whatever its shell holds
    monkeypatch.setenv("RIBBONVOL_CACHE_DIR", str(tmp_path))
    census(0, 3, 5)
    census(0, 4, 12)
    assert list(tmp_path.iterdir()) == []
