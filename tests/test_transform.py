import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial, prod

import pytest

from ribbonvol import cache_info, clear_caches, transform
from ribbonvol.cli import main
from ribbonvol.crosscheck import golden_laplace
from ribbonvol.exactmath import EvenLaurentPoly
from ribbonvol.lattice import count
from ribbonvol.surface import enumerate_splittings, is_stable, stable_types
from ribbonvol.transform import (
    CONFIGS,
    EUCLIDEAN,
    LAPLACE,
    SYMPLECTIC,
    compute,
    euclidean_matches_leading,
    intersection_numbers,
    kontsevich_ratio,
)

F = Fraction

STABLE_TO_LEVEL_5 = stable_types(5)


def test_base_cases_verbatim():
    assert compute(LAPLACE, 0, 3).terms == {
        (0, 0, 0): F(-1, 16),
        (-1, -1, -1): F(1, 16),
    }
    assert compute(LAPLACE, 1, 1).terms == {
        (1,): F(-1, 128),
        (0,): F(3, 128),
        (-1,): F(-3, 128),
        (-2,): F(1, 128),
    }
    assert compute(SYMPLECTIC, 0, 3).terms == {(0, 0, 0): F(-1, 8)}
    assert compute(SYMPLECTIC, 1, 1).terms == {(1,): F(-1, 32)}
    assert compute(EUCLIDEAN, 0, 3).terms == {(0, 0, 0): F(-1, 16)}
    assert compute(EUCLIDEAN, 1, 1).terms == {(1,): F(-1, 128)}


@pytest.mark.parametrize("config", [LAPLACE, EUCLIDEAN, SYMPLECTIC], ids=lambda c: c.name)
def test_base_tables_expand_to_their_seeds(config):
    # a base table is stored as rows, like any other, and expanded on request
    for _ in range(2):  # cold, then after emptying the caches
        clear_caches()
        polys = compute(config, 0, 3), compute(config, 1, 1)
        assert polys == (config.base_03, config.base_11)
        assert compute(config, 0, 3) is polys[0] and compute(config, 1, 1) is polys[1]
    clear_caches()


def test_matches_golden_closed_forms():
    for (g, n), expected in sorted(golden_laplace().items()):
        assert compute(LAPLACE, g, n) == expected, (g, n)


def test_golden_spot_coefficients():
    # a handful of raw coefficients, typed out separately from the
    # closed-form constructions
    p04 = compute(LAPLACE, 0, 4)
    assert p04.terms[(1, 0, 0, 0)] == F(3, 256)
    assert p04.terms[(0, 0, 0, 0)] == F(-9, 256)
    assert p04.terms[(-1, -1, 0, 0)] == F(-1, 256)
    assert p04.terms[(-1, -1, -1, -1)] == F(-9, 256)
    assert p04.terms[(-2, -1, -1, -1)] == F(3, 256)

    p12 = compute(LAPLACE, 1, 2)
    assert p12.terms[(2, 0)] == F(5, 2048)
    assert p12.terms[(1, 1)] == F(3, 2048)
    assert p12.terms[(0, 0)] == F(27, 2048)
    assert p12.terms[(-1, -1)] == F(27, 2048)
    assert p12.terms[(-3, -1)] == F(5, 2048)

    p21 = compute(LAPLACE, 2, 1)
    assert p21.terms[(4,)] == F(-105, 2**19)
    assert p21.terms[(-5,)] == F(105, 2**19)
    assert p21.terms[(-2,)] == F(-441, 2**17)

    p31 = compute(LAPLACE, 3, 1)
    assert p31.terms[(7,)] == F(-11 * 2275, 2**30)
    assert p31.terms[(-8,)] == F(11 * 2275, 2**30)


def test_unstable_input_rejected():
    with pytest.raises(ValueError):
        compute(LAPLACE, 0, 2)
    with pytest.raises(ValueError):
        compute(SYMPLECTIC, 0, 0)
    # rejected by the entry check itself, not by a recursive call below it
    for config in (LAPLACE, SYMPLECTIC):
        with pytest.raises(ValueError, match=r"\(-1, 5\) is not stable"):
            compute(config, -1, 5)


# the recursion on plain Fraction dicts, summed over every b and every
# ordered splitting: the reference for the engine's orbit reuse


def _acc(out, key, c):
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _acc(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return out


def _ref_embed(terms, slots, n):
    # old slot i moves to slots[i]; the other new slots get exponent 0
    out = {}
    for e, c in terms.items():
        key = [0] * n
        for old, x in enumerate(e):
            key[slots[old]] = x
        out[tuple(key)] = c
    return out


def _ref_recurse(config, g, n, tables):
    kappa0 = _ref_embed(dict(config.kappa.terms), [0], n)
    out = {}
    if n >= 2:
        for b in range(1, n):
            slots = [0] + [s for s in range(1, n) if s != b]
            f = _ref_mul(_ref_embed(tables[(g, n - 1)], slots, n), kappa0)
            for e, c in f.items():
                k = e[0]
                for i in range(k) if k > 0 else range(k, 0):
                    key = list(e)
                    key[0], key[b] = i, k - 1 - i
                    # h + 2 u_b dh/du_b keeps each exponent and scales by 1 + 2 e_b
                    _acc(out, tuple(key), config.a_factor * (c if k > 0 else -c) * (1 + 2 * key[b]))
    bracket = {}
    if g >= 1:
        for e, c in tables[(g - 1, n + 1)].items():
            _acc(bracket, (e[0] + e[1],) + e[2:], c)
    for sp in enumerate_splittings(g, range(1, n)):
        left = _ref_embed(tables[(sp.g1, len(sp.part1) + 1)], [0] + sorted(sp.part1), n)
        right = _ref_embed(tables[(sp.g2, len(sp.part2) + 1)], [0] + sorted(sp.part2), n)
        for e, c in _ref_mul(left, right).items():
            _acc(bracket, e, c)
    for e, c in _ref_mul(kappa0, bracket).items():
        _acc(out, e, config.b_factor * c)
    return out


def test_engine_matches_the_full_recursion_on_fraction_dicts():
    # the LAPLACE reference takes about 12 s more at complexity 6
    for config, top in ((LAPLACE, 5), (EUCLIDEAN, 6), (SYMPLECTIC, 6)):
        tables = {(0, 3): dict(config.base_03.terms), (1, 1): dict(config.base_11.terms)}
        for g, n in stable_types(top):
            if (g, n) not in tables:
                tables[(g, n)] = _ref_recurse(config, g, n, tables)
            assert compute(config, g, n).terms == tables[(g, n)], (config.name, g, n)


def test_symmetry_under_slot_permutations():
    rng = random.Random(31)
    for g, n in [(0, 4), (1, 2), (1, 3), (0, 5)]:
        for config in (LAPLACE, EUCLIDEAN, SYMPLECTIC):
            poly = compute(config, g, n)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = EvenLaurentPoly(
                n,
                {
                    tuple(exps[perm[i]] for i in range(n)): c
                    for exps, c in poly.terms.items()
                },
            )
            assert permuted == poly, (config.name, g, n, perm)


def test_inversion_symmetry():
    # t_j -> 1/t_j times prod t_j^2 gives (-1)^n times the polynomial back;
    # on exponent vectors that is a_j -> -1 - a_j, for every table up to
    # complexity 6
    for g, n in stable_types(6):
        poly = compute(LAPLACE, g, n)
        flipped = EvenLaurentPoly(
            n,
            {
                tuple(-1 - a for a in exps): (-1) ** n * c
                for exps, c in poly.terms.items()
            },
        )
        assert flipped == poly, (g, n)


def test_laplace_coefficients_are_dyadic():
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (0, 5), (3, 1)]:
        for exps, c in compute(LAPLACE, g, n).terms.items():
            d = c.denominator
            assert d & (d - 1) == 0, (g, n, exps, c)


def test_volume_ratio_small_values():
    assert kontsevich_ratio(0, 3) == 2
    assert kontsevich_ratio(1, 1) == 4
    assert kontsevich_ratio(2, 1) == 128


def test_volume_ratio_is_the_advertised_power():
    for g, n in STABLE_TO_LEVEL_5:
        assert kontsevich_ratio(g, n) == F(2) ** (5 * g - 5 + 2 * n), (g, n)


def test_euclidean_is_leading_part():
    for g, n in STABLE_TO_LEVEL_5:
        assert euclidean_matches_leading(g, n), (g, n)


def test_volumes_are_homogeneous_polynomials():
    for g, n in STABLE_TO_LEVEL_5:
        for config in (EUCLIDEAN, SYMPLECTIC):
            poly = compute(config, g, n)
            assert min(map(sum, poly.terms)) == max(map(sum, poly.terms)) == 3 * g - 3 + n
            assert all(min(e) >= 0 for e in poly.terms)


def test_determinism():
    # recomputation through a fresh engine path yields identical dicts
    a = compute(LAPLACE, 1, 3)
    b = compute(LAPLACE, 1, 3)
    assert a is b  # memoized
    assert a.sorted_terms() == sorted(a.terms.items())


def test_intersection_numbers_literal_values():
    assert intersection_numbers(1, 1) == {(1,): F(1, 24)}
    assert intersection_numbers(0, 3) == {(0, 0, 0): F(1, 8)}
    assert intersection_numbers(2, 1) == {(4,): F(1, 144)}
    assert intersection_numbers(1, 2) == {(2, 0): F(1, 24), (1, 1): F(1, 24)}
    assert intersection_numbers(0, 4) == {(1, 0, 0, 0): F(1, 8)}


def test_intersection_keys_are_sorted_degree_vectors():
    for g, n in [(1, 3), (0, 5), (2, 2)]:
        table = intersection_numbers(g, n)
        for key in table:
            assert key == tuple(sorted(key, reverse=True))
            assert sum(key) == 3 * g - 3 + n
        # every ordering of a key must be realized in the volume itself
        vs = compute(SYMPLECTIC, g, n)
        for key in table:
            for exps in set(permutations(key)):
                assert exps in vs.terms


def test_string_and_dilaton_equations():
    # <tau_0 prod tau_(d_i)>_g = sum_j <.. tau_(d_j - 1) ..>_g and
    # <tau_1 prod_(i<n) tau_(d_i)>_(g,n) = (2g - 3 + n) <prod tau_(d_i)>_(g,n-1),
    # wherever (g, n - 1) is stable; a missing key is 0
    def key(degrees):
        return tuple(sorted(degrees, reverse=True))

    relations = 0
    for g, n in STABLE_TO_LEVEL_5:
        if not is_stable(g, n - 1):
            continue
        big, small = intersection_numbers(g, n), intersection_numbers(g, n - 1)
        top = 3 * g - 3 + n
        for rest in combinations_with_replacement(range(top + 1), n - 1):
            if sum(rest) == top:
                want = sum(small.get(key(rest[:j] + (d - 1,) + rest[j + 1 :]), 0)
                           for j, d in enumerate(rest) if d)
                assert big.get(key((0, *rest)), 0) == want, ("string", g, n, rest)
            elif sum(rest) == top - 1:
                want = (2 * g - 3 + n) * small.get(key(rest), 0)
                assert big.get(key((1, *rest)), 0) == want, ("dilaton", g, n, rest)
            else:
                continue
            relations += 1
    assert relations == 51


def test_memo_tables_cannot_be_altered_through_a_result():
    poly = compute(LAPLACE, 1, 1)
    with pytest.raises(TypeError):
        poly.terms[(5,)] = 1
    with pytest.raises(AttributeError):
        poly.arity = 2
    # re-running __init__ on the shared base case would corrupt every later table
    with pytest.raises(AttributeError, match="immutable"):
        poly.__init__(1, {(0,): 5})
    assert compute(LAPLACE, 1, 1) == golden_laplace()[(1, 1)]
    clear_caches()
    assert compute(LAPLACE, 1, 2) == golden_laplace()[(1, 2)]


def test_compute_takes_only_the_registered_configurations():
    clear_caches()
    foreign = [
        LAPLACE._replace(a_factor=F(1)),  # same name, other recursion
        SYMPLECTIC._replace(name="mine"),  # same recursion, unknown name
        EUCLIDEAN._replace(base_11=LAPLACE.base_11),
        "laplace",  # a name, not a configuration
        tuple(LAPLACE),  # the same fields, not a RecursionConfig
    ]
    for config in foreign:
        with pytest.raises(ValueError, match="is not LAPLACE, EUCLIDEAN or SYMPLECTIC"):
            compute(config, 1, 2)
    # nothing was stored under the shared names, and the shared tables answer
    assert cache_info()["engine"] == {name: 0 for name in CONFIGS}
    assert compute(LAPLACE, 1, 2) == golden_laplace()[(1, 2)]


def test_cache_control():
    clear_caches()
    info = cache_info()
    assert info == {"engine": {name: 0 for name in CONFIGS}, "lattice": 0}
    compute(SYMPLECTIC, 1, 2)
    count(1, 2, (4, 6))
    info = cache_info()
    assert info["engine"]["symplectic"] == 3  # (1,2) from (1,1) and (0,3)
    assert info["engine"]["laplace"] == 0
    assert info["lattice"] > 0
    clear_caches()
    assert cache_info() == {"engine": {name: 0 for name in CONFIGS}, "lattice": 0}


@pytest.mark.parametrize("lower, upper", [((0, 4), (0, 5)), ((1, 2), (1, 3))])
def test_a_corrupted_lower_table_fails_the_orbit_guard(lower, upper):
    # one stored numerator of F_{g,n-1}, one more than it should be, breaks
    # the symmetry of F_{g,n}: its copies of some orbit disagree
    clear_caches()
    compute(LAPLACE, *lower)
    rows = transform._tables["laplace"][lower].rows
    stored = [(rest, a1) for rest, row in rows.items() for a1 in row]
    try:
        for rest, a1 in stored:
            clear_caches()
            compute(LAPLACE, *lower)
            transform._tables["laplace"][lower].rows[rest][a1] += 1
            error = rf"^\({upper[0]},{upper[1]}\): the rows of orbit"
            with pytest.raises(ArithmeticError, match=error):
                compute(LAPLACE, *upper)
    finally:
        clear_caches()
    assert len(stored) > 1


def test_an_orbit_without_a_row_fails_the_orbit_guard():
    # a copy of L(0,4)'s rows less one entry that is not its orbit's
    # representative (a_1 > rest[0]): every remaining copy agrees, one is missing
    clear_caches()
    compute(LAPLACE, 0, 4)
    rows = {rest: dict(row) for rest, row in transform._tables["laplace"][(0, 4)].rows.items()}
    transform._check_orbits(0, 4, rows)
    rest, a1 = next((rest, a1) for rest, row in rows.items() for a1 in row if a1 > rest[0])
    del rows[rest][a1]
    with pytest.raises(ArithmeticError, match=r"^\(0,4\): an orbit lacks a row$"):
        transform._check_orbits(0, 4, rows)


def _add_one_to_a_lower_table():
    # one stored numerator of V^S_{1,2}, one more than it should be: V^S_{1,3},
    # built from it, fails the orbit guard
    clear_caches()
    compute(SYMPLECTIC, 1, 2)
    rows = transform._tables["symplectic"][(1, 2)].rows
    rest = min(rows)
    rows[rest][min(rows[rest])] += 1


def test_a_fired_volume_guard_fails_the_command_line(capsys):
    try:
        _add_one_to_a_lower_table()
        assert main(["intersect", "1", "3"]) == 1
        captured = capsys.readouterr()
        _add_one_to_a_lower_table()
        assert main(["verify", "--suite", "ratio", "--level", "3"]) == 1
        rows = capsys.readouterr().out.splitlines()
    finally:
        clear_caches()
    assert captured.out == ""
    assert captured.err.startswith("error: (1,3): the rows of orbit ")
    assert captured.err.endswith(" differ\n")
    assert captured.err.count("\n") == 1
    failed = {row.split()[2]: row for row in rows if row.startswith("FAIL")}
    assert "the rows of orbit" in failed["VS/VE(1,3)"]
    assert rows[-1] == f"{len(failed)} check(s) failed"


# the volume guards, fired by altering both stored copies of V^S_{1,2}'s
# (0, 2) orbit after the build: its rows (2,) at a_1 = 0 and (0,) at a_1 = 2
def _drop(rows, rest, a1):
    del rows[rest][a1]


def _raise(rows, rest, a1):
    rows[rest][a1] += 1


@pytest.mark.parametrize(
    "change, error", [(_drop, "different support"), (_raise, "not proportional")]
)
def test_the_volume_guards_fire(change, error):
    clear_caches()
    try:
        compute(SYMPLECTIC, 1, 2)
        rows = transform._tables["symplectic"][(1, 2)].rows
        change(rows, (2,), 0)
        change(rows, (0,), 2)
        with pytest.raises(ArithmeticError, match=rf"^\(1,2\): volume polynomials .*{error}"):
            kontsevich_ratio(1, 2)
    finally:
        clear_caches()


@pytest.mark.parametrize(
    "rest, a1",
    [((1,), 0), ((3,), -1)],
    ids=["wrong total degree", "negative exponent"],
)
def test_an_unexpected_monomial_fails_the_extraction(rest, a1):
    clear_caches()
    try:
        compute(SYMPLECTIC, 1, 2)
        transform._tables["symplectic"][(1, 2)].rows.setdefault(rest, {})[a1] = 1
        monomial = re.escape(str((a1, *rest)))
        with pytest.raises(ArithmeticError, match=rf"^\(1,2\): unexpected monomial {monomial} in"):
            intersection_numbers(1, 2)
    finally:
        clear_caches()


# the consumers read one coefficient per orbit off the engine's rows; these
# references read the expanded terms instead, every ordering included
def _reference_ratio(g, n):
    vs, ve = compute(SYMPLECTIC, g, n).terms, compute(EUCLIDEAN, g, n).terms
    assert set(vs) == set(ve)
    ratios = {vs[e] / ve[e] for e in ve}
    assert len(ratios) == 1
    return ratios.pop()


def _reference_leading(g, n):
    laplace = compute(LAPLACE, g, n).terms
    top = max(map(sum, laplace))
    return dict(compute(EUCLIDEAN, g, n).terms) == {
        e: c for e, c in laplace.items() if sum(e) == top
    }


def _reference_intersections(g, n):
    groups = {}
    for exps, coeff in compute(SYMPLECTIC, g, n).terms.items():
        groups.setdefault(tuple(sorted(exps, reverse=True)), []).append(coeff)
    out = {}
    for key, coeffs in groups.items():
        # every ordering of the key is a term, each with the same coefficient
        assert len(coeffs) == factorial(n) // prod(factorial(key.count(d)) for d in set(key))
        assert coeffs.count(coeffs[0]) == len(coeffs)
        out[key] = coeffs[0] * (-1) ** n * prod(
            F(4**d, prod(range(1, 2 * d + 2, 2))) for d in key
        )
    return out


def test_the_consumers_equal_references_on_the_expanded_terms():
    for g, n in stable_types(6):
        assert kontsevich_ratio(g, n) == _reference_ratio(g, n), (g, n)
        assert euclidean_matches_leading(g, n) is _reference_leading(g, n) is True, (g, n)
        assert intersection_numbers(g, n) == _reference_intersections(g, n), (g, n)
