import random
from fractions import Fraction
from itertools import permutations

import pytest

from ribbonvol import cache_info, clear_caches, transform
from ribbonvol.cli import main
from ribbonvol.crosscheck import golden_laplace
from ribbonvol.exactmath import EvenLaurentPoly
from ribbonvol.lattice import count
from ribbonvol.surface import enumerate_splittings, stable_types
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
    for config in (LAPLACE, EUCLIDEAN, SYMPLECTIC):
        tables = {(0, 3): dict(config.base_03.terms), (1, 1): dict(config.base_11.terms)}
        for g, n in STABLE_TO_LEVEL_5:
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
            assert poly.leading_part() == poly
            assert max(map(sum, poly.terms)) == 3 * g - 3 + n
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


# the two volume guards, fired by serving an altered V^S_{1,2} to every
# caller of ``transform.compute``, the engine's own recursion included: the
# tables built from it, such as (1,3) and (2,1), stay memoized, so the
# caches are emptied before and after each case
def _alter_vs12(monkeypatch, change):
    real = transform.compute

    def altered(config, g, n):
        poly = real(config, g, n)
        if config is not SYMPLECTIC or (g, n) != (1, 2):
            return poly
        terms = dict(poly.terms)
        change(terms)
        return EvenLaurentPoly(2, terms)

    clear_caches()
    monkeypatch.setattr(transform, "compute", altered)


def _drop(terms):
    del terms[(0, 2)]


def _raise(terms):
    terms[(0, 2)] += 1


@pytest.mark.parametrize(
    "change, intersection_error, ratio_error",
    [
        (_drop, "intersection-number round trip failed", "different support"),
        (_raise, "extraction differs across orderings", "not proportional"),
    ],
)
def test_the_volume_guards_fire(monkeypatch, change, intersection_error, ratio_error):
    _alter_vs12(monkeypatch, change)
    try:
        with pytest.raises(ArithmeticError, match=intersection_error):
            intersection_numbers(1, 2)
        with pytest.raises(ArithmeticError, match=ratio_error):
            kontsevich_ratio(1, 2)
    finally:
        clear_caches()


def test_a_fired_volume_guard_fails_the_command_line(monkeypatch, capsys):
    _alter_vs12(monkeypatch, _drop)
    try:
        assert main(["intersect", "1", "2"]) == 1
        captured = capsys.readouterr()
        assert main(["verify", "--suite", "ratio", "--level", "3"]) == 1
        rows = capsys.readouterr().out.splitlines()
    finally:
        clear_caches()
    assert captured.out == ""
    assert captured.err == "error: (1,2): intersection-number round trip failed\n"
    failed = [row.split()[2] for row in rows if row.startswith("FAIL")]
    assert "VS/VE(1,2)" in failed
    assert rows[-1] == f"{len(failed)} check(s) failed"
