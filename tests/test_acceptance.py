"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every comparison is == on Fractions or term dicts -- there is no tolerance
anywhere.  Each test prints a single PASS line when its criterion holds;
a failed assert (or a blown time budget) fails the criterion.
"""

import random
import time
from fractions import Fraction

from ribbonvol import clear_caches
from ribbonvol.crosscheck import (
    forward_laplace,
    golden_laplace,
    intersection_ratio_report,
    perimeter_volume,
    series_identity,
    verify_continuous_recursion,
)
from ribbonvol.eo import CURVES, sample_spectators, verify_eo
from ribbonvol.exactmath import EvenLaurentPoly
from ribbonvol.lattice import census, count, oracle_n11
from ribbonvol.surface import stable_types
from ribbonvol.transform import (
    EUCLIDEAN,
    LAPLACE,
    SYMPLECTIC,
    compute,
    euclidean_matches_leading,
    intersection_numbers,
    kontsevich_ratio,
)
from test_exactmath import divided_difference

F = Fraction

GOLDEN_TYPES = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (3, 1)]
LEVEL_5 = stable_types(5)
SERIES_TYPES = [(0, 3), (1, 1), (0, 4), (1, 2)]
EO_TYPES = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]


def _report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_01_golden_transforms():
    clear_caches()
    expected = golden_laplace()
    start = time.monotonic()
    for g, n in GOLDEN_TYPES:
        assert compute(LAPLACE, g, n) == expected[(g, n)], (g, n)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(f"01 golden-transforms: PASS ({elapsed:.2f}s for 6 surface types)")


def test_criterion_02_volume_ratio():
    clear_caches()
    start = time.monotonic()
    for g, n in LEVEL_5:
        assert kontsevich_ratio(g, n) == F(2) ** (5 * g - 5 + 2 * n), (g, n)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _report(f"02 volume-ratio: PASS ({len(LEVEL_5)} types, {elapsed:.2f}s)")


def test_criterion_03_euclidean_is_leading_part():
    for g, n in LEVEL_5:
        assert euclidean_matches_leading(g, n), (g, n)
    _report(f"03 euclidean-leading: PASS ({len(LEVEL_5)} types)")


def test_criterion_04_series_identity():
    clear_caches()
    start = time.monotonic()
    points = 0
    for g, n in SERIES_TYPES:
        points += series_identity(g, n, 16)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    _report(f"04 series-identity: PASS ({points} lattice points, {elapsed:.2f}s)")


def test_criterion_05_residue_verification():
    for name in sorted(CURVES):
        for g, n in EO_TYPES:
            results = verify_eo(CURVES[name], g, n, trials=5, seed=0)
            assert len(results) == 5
            for spect, ok in results:
                assert ok, (name, g, n, spect)
    _report("05 residue-verification: PASS (3 curves x 5 types x 5 trials)")


def test_criterion_06_continuous_recursion():
    for g, n in [(0, 4), (1, 2)]:
        results = verify_continuous_recursion(g, n, trials=5, seed=0)
        assert len(results) == 5
        for point, ok in results:
            assert ok, (g, n, point)
    _report("06 continuous-recursion: PASS (2 types x 5 chamber points)")


def test_criterion_07_one_boundary_torus_counts():
    assert count(1, 1, (2,)) == 0
    assert count(1, 1, (4,)) == F(1, 4)
    for p in range(2, 101, 2):
        assert count(1, 1, (p,)) == oracle_n11(p), p
    _report("07 torus-counts: PASS (even perimeters through 100)")


def test_criterion_08_perimeter_volumes():
    assert perimeter_volume(0, 3) == EvenLaurentPoly.constant(3, 1)
    assert perimeter_volume(1, 1) == EvenLaurentPoly(1, {(1,): F(1, 24)})
    for g, n in GOLDEN_TYPES:
        assert forward_laplace(perimeter_volume(g, n)) == compute(SYMPLECTIC, g, n)
    _report("08 perimeter-volumes: PASS (round trip over 6 types)")


def test_criterion_09_intersection_numbers():
    assert intersection_numbers(1, 1) == {(1,): F(1, 24)}
    lines = []
    for g, n in [(0, 3), (2, 1)]:
        for key, literal, classical, ratio in intersection_ratio_report(g, n):
            lines.append(f"({g},{n}) tau{key}: literal={literal} "
                         f"classical={classical} ratio={ratio}")
    assert len(lines) == 2
    _report("09 intersection-numbers: PASS | " + " | ".join(lines))


def test_criterion_10_property_suites():
    # symmetry of every computed polynomial under seeded permutations
    rng = random.Random(1015)
    for g, n in [(0, 4), (1, 2), (1, 3), (0, 5), (2, 2)]:
        for config in (LAPLACE, EUCLIDEAN, SYMPLECTIC):
            poly = compute(config, g, n)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = EvenLaurentPoly(
                n,
                {
                    tuple(e[perm[i]] for i in range(n)): c
                    for e, c in poly.terms.items()
                },
            )
            assert permuted == poly, (config.name, g, n)

    # parity vanishing of the counts
    for _ in range(150):
        g = rng.randint(0, 2)
        n = rng.randint(1, 4)
        if 2 * g - 2 + n <= 0:
            continue
        p = [rng.randint(1, 10) for _ in range(n)]
        if sum(p) % 2 == 0:
            p[rng.randrange(n)] += 1
        assert count(g, n, p) == 0

    # inversion symmetry of the Laplace transforms
    for g, n in GOLDEN_TYPES:
        poly = compute(LAPLACE, g, n)
        flipped = EvenLaurentPoly(
            n,
            {
                tuple(-1 - a for a in e): (-1) ** n * c
                for e, c in poly.terms.items()
            },
        )
        assert flipped == poly, (g, n)

    # 1000 seeded divided differences, each re-multiplied exactly inside
    rng2 = random.Random(77)
    for _ in range(1000):
        terms = {}
        for _t in range(rng2.randint(1, 5)):
            terms[(rng2.randint(-4, 4), 0)] = F(
                rng2.randint(-15, 15), rng2.randint(1, 10)
            )
        divided_difference(EvenLaurentPoly(2, terms), 0, 1)

    # determinism: repeated draws, repeated censuses, repeated verifies
    assert sample_spectators("laplace", 1, 2, 5, 3) == sample_spectators(
        "laplace", 1, 2, 5, 3
    )
    assert census(0, 4, 8).entries == census(0, 4, 8).entries
    assert verify_eo(CURVES["symplectic"], 1, 2, 2, 11) == verify_eo(
        CURVES["symplectic"], 1, 2, 2, 11
    )
    assert compute(LAPLACE, 1, 3).sorted_terms() == compute(LAPLACE, 1, 3).sorted_terms()

    _report("10 property-suites: PASS (symmetry, parity, inversion, "
            "1000 divided differences, determinism)")
