"""Cross-checks tying the three pillars of the package together.

* ``series_identity`` -- the generating-function bridge between lattice
  counting and the Laplace-transformed polynomials: expanding
  L_{g,n}(t(x)) prod (t_j^2 - 1)/2 at x_j = 0 must produce
  (-1)^n (prod p_j) N_{g,n}(p) as the coefficient of prod x_j^{p_j}.

* ``perimeter_volume`` / ``forward_laplace`` -- the exact monomial-wise
  correspondence between the symplectic volume polynomial V^S(t) and its
  perimeter-side counterpart v^S(p):

      c * prod t_j^{2 a_j}   <-->   c * (-1)^n prod 2^{2a_j + 1}/(2a_j + 1)! * prod p_j^{2 a_j}

* ``verify_continuous_recursion`` -- v^S satisfies an integral recursion;
  in the chamber p_1 > p_j (all j >= 2) it reads

      p_1 v_{g,n}(p) = sum_j [ I(p_1 + p_j) + I(p_1 - p_j) ]
                       + 2 Int_{q_1 + q_2 <= p_1} q_1 q_2 (p_1 - q_1 - q_2)
                           [ v_{g-1,n+1}(q_1, q_2, rest) + sum v v ] dq_1 dq_2

  with I(L) = Int_0^L q (L - q) v_{g,n-1}(q, rest minus p_j) dq and the
  splitting sum over ordered stable splittings; the simplex weight is
  symmetric, so each ``surface.swap_classes`` class is integrated once
  and weighed.  All integrals are done exactly: Int_0^L q(L-q) q^{2a} dq
  = L^{2a+3} / ((2a+2)(2a+3)) and the simplex integral of
  q_1^{2a+1} q_2^{2b+1} (p_1 - q_1 - q_2) is
  p_1^{2a+2b+5} (2a+1)! (2b+1)! / (2a+2b+5)!.

* ``intersection_ratio_report`` -- literal intersection numbers read off
  V^S next to the classical normalization, with their quotient.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from .exactmath import EvenLaurentPoly, laurent_to_series
from .surface import _check_int, check_stable, enumerate_splittings, perimeter_vectors, swap_classes
from .transform import LAPLACE, SYMPLECTIC, compute, intersection_numbers


def series_identity(g: int, n: int, max_sum: int) -> int:
    """Check the coefficient identity for every positive p with sum <= max_sum;
    returns the number of lattice points checked, raises on any mismatch.
    A bound below n admits no lattice point and is rejected with
    ``ValueError`` rather than passed vacuously."""
    from .lattice import count  # here: no other check needs the lattice recursion

    _check_int("max_sum", max_sum, n)
    series = laurent_to_series(compute(LAPLACE, g, n), max_sum)
    sign = (-1) ** n
    checked = 0
    for p in perimeter_vectors(n, max_sum):
        expected = sign * prod(p) * count(g, n, p)
        got = series.coefficient(p)
        if got != expected:
            raise ArithmeticError(
                f"({g},{n}): coefficient of x^{p} is {got}, expected {expected}"
            )
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# perimeter-side volumes


def _monomial_factor(exps: tuple[int, ...]) -> Fraction:
    out = Fraction((-1) ** len(exps))
    for a in exps:
        out *= Fraction(2 ** (2 * a + 1), factorial(2 * a + 1))
    return out


def perimeter_volume(g: int, n: int) -> EvenLaurentPoly:
    """v^S_{g,n}(p_1..p_n): the symplectic volume in perimeter variables
    (an even polynomial; exponents are of u_j = p_j^2)."""
    vs = compute(SYMPLECTIC, g, n)
    terms = {}
    for exps, coeff in vs.terms.items():
        if any(a < 0 for a in exps):
            raise ArithmeticError(f"({g},{n}): negative exponent {exps} in V^S")
        terms[exps] = coeff * _monomial_factor(exps)
    return EvenLaurentPoly(n, terms)


def forward_laplace(volume: EvenLaurentPoly) -> EvenLaurentPoly:
    """Inverse of ``perimeter_volume``'s monomial map: rebuild V^S from v^S."""
    terms = {}
    for exps, coeff in volume.terms.items():
        if any(a < 0 for a in exps):
            raise ValueError(f"not a polynomial: exponent {exps}")
        terms[exps] = coeff / _monomial_factor(exps)
    return EvenLaurentPoly(volume.arity, terms)


# ---------------------------------------------------------------------------
# continuous recursion


def _edge_integral(poly: EvenLaurentPoly, bound: Fraction) -> Fraction:
    # Int_0^bound q (bound - q) poly(q) dq for a one-variable even polynomial
    total = Fraction(0)
    for (a,), coeff in poly.terms.items():
        total += coeff * bound ** (2 * a + 3) / ((2 * a + 2) * (2 * a + 3))
    return total


def _simplex_integral(kernel: EvenLaurentPoly, bound: Fraction) -> Fraction:
    # Int over q_1, q_2 >= 0, q_1 + q_2 <= bound of q_1 q_2 (bound - q_1 - q_2) kernel
    total = Fraction(0)
    for (a, b), coeff in kernel.terms.items():
        weight = Fraction(
            factorial(2 * a + 1) * factorial(2 * b + 1), factorial(2 * a + 2 * b + 5)
        )
        total += coeff * weight * bound ** (2 * a + 2 * b + 5)
    return total


def _check_recursive(g: int, n: int) -> None:
    # the chamber needs a p_1 above other perimeters; (0, 3) is a base case
    check_stable(g, n)
    if n < 2:
        raise ValueError("need n >= 2 perimeter values")
    if (g, n) == (0, 3):
        raise ValueError("(0, 3) is a base case, not produced by the recursion")


def continuous_rhs(g: int, n: int, point: Sequence[Fraction]) -> Fraction:
    """Right-hand side of the integral recursion at a chamber point
    (requires p_1 > p_j > 0 for every j >= 2)."""
    _check_recursive(g, n)
    p = [Fraction(v) for v in point]
    if len(p) != n:
        raise ValueError(f"expected {n} perimeter values, got {len(p)}")
    p1, rest = p[0], p[1:]
    if any(v <= 0 for v in p) or any(p1 <= v for v in rest):
        raise ValueError("chamber condition p_1 > p_j > 0 violated")

    total = Fraction(0)
    for j, pj in enumerate(rest):
        others = rest[:j] + rest[j + 1 :]
        edge = perimeter_volume(g, n - 1).partial_evaluate(
            {i + 1: others[i] for i in range(len(others))}
        )
        total += _edge_integral(edge, p1 + pj) + _edge_integral(edge, p1 - pj)

    kernel = EvenLaurentPoly.zero(2)
    if g >= 1:
        kernel = kernel + perimeter_volume(g - 1, n + 1).partial_evaluate(
            {i + 2: rest[i] for i in range(len(rest))}
        )
    for sp, orderings in swap_classes(enumerate_splittings(g, range(len(rest)))):
        halves = []
        for slot, (gp, labels) in enumerate(((sp.g1, sp.part1), (sp.g2, sp.part2))):
            part = perimeter_volume(gp, len(labels) + 1).partial_evaluate(
                {i + 1: rest[j] for i, j in enumerate(labels)}
            )
            halves.append(part.substitute_slots({0: slot}, 2))
        kernel = kernel + orderings * (halves[0] * halves[1])
    if kernel:
        total += 2 * _simplex_integral(kernel, p1)
    return total


def sample_chamber_points(g: int, n: int, trials: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Deterministic rational chamber points with p_1 strictly dominant."""
    rng = random.Random(f"chamber:{g}:{n}:{seed}")
    points = []
    for _ in range(trials):
        rest = [
            Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(n - 1)
        ]
        p1 = max(rest) + Fraction(rng.randint(1, 8), rng.choice((1, 2)))
        points.append((p1, *rest))
    return points


def verify_continuous_recursion(
    g: int, n: int, trials: int = 5, seed: int = 0
) -> list[tuple[tuple[Fraction, ...], bool]]:
    """Compare p_1 v_{g,n}(p) against the integral recursion at seeded
    chamber points; returns one (point, matched) entry per trial, and raises
    ``ValueError`` for ``trials < 1``, which would check nothing, n < 2 or (0, 3)."""
    _check_int("trials", trials, 1)
    _check_recursive(g, n)
    volume = perimeter_volume(g, n)
    results = []
    for point in sample_chamber_points(g, n, trials, seed):
        lhs = point[0] * volume.evaluate(point)
        results.append((point, lhs == continuous_rhs(g, n, point)))
    return results


# ---------------------------------------------------------------------------
# golden reference polynomials


def golden_laplace() -> dict[tuple[int, int], EvenLaurentPoly]:
    """Closed forms of the six smallest Laplace-transformed polynomials,
    built directly from arithmetic on monomials (independent of the
    recursion engine)."""
    out: dict[tuple[int, int], EvenLaurentPoly] = {}
    mono = EvenLaurentPoly.monomial

    out[(0, 3)] = EvenLaurentPoly(
        3, {(0, 0, 0): Fraction(-1, 16), (-1, -1, -1): Fraction(1, 16)}
    )

    u = mono(1, (1,))
    inv = mono(1, (-1,))
    one1 = EvenLaurentPoly.constant(1, 1)
    cube = (u - one1) ** 3
    out[(1, 1)] = Fraction(-1, 128) * (cube * inv * inv)

    u4 = [mono(4, tuple(1 if i == j else 0 for i in range(4))) for j in range(4)]
    i4 = [mono(4, tuple(-1 if i == j else 0 for i in range(4))) for j in range(4)]
    sum_u = u4[0] + u4[1] + u4[2] + u4[3]
    sum_i = i4[0] + i4[1] + i4[2] + i4[3]
    pair_i = EvenLaurentPoly.zero(4)
    for a in range(4):
        for b in range(a + 1, 4):
            pair_i = pair_i + i4[a] * i4[b]
    prod_i = i4[0] * i4[1] * i4[2] * i4[3]
    nine = EvenLaurentPoly.constant(4, 9)
    out[(0, 4)] = Fraction(1, 256) * (
        3 * sum_u - nine - pair_i - 9 * prod_i + 3 * (prod_i * sum_i)
    )

    a, b = mono(2, (1, 0)), mono(2, (0, 1))
    ia, ib = mono(2, (-1, 0)), mono(2, (0, -1))
    c2 = EvenLaurentPoly.constant(2, 27)
    out[(1, 2)] = Fraction(1, 2**11) * (
        5 * (a * a + b * b)
        + 3 * (a * b)
        - 18 * (a + b)
        + c2
        - 4 * (ia + ib)
        + 27 * (ia * ib)
        - 18 * (ia * ib * (ia + ib))
        + 3 * (ia * ia * ib * ib)
        + 5 * (ia * ib * (ia * ia + ib * ib))
    )

    out[(2, 1)] = Fraction(-21, 2**19) * (
        (u - one1) ** 7 * inv**4 * (5 * u + EvenLaurentPoly.constant(1, 6) + 5 * inv)
    )

    out[(3, 1)] = Fraction(-11, 2**30) * (
        (u - one1) ** 11
        * inv**6
        * (
            2275 * (u * u)
            + 4004 * u
            + EvenLaurentPoly.constant(1, 4722)
            + 4004 * inv
            + 2275 * (inv * inv)
        )
    )
    return out


# ---------------------------------------------------------------------------
# intersection-number reporting

CLASSICAL_INTERSECTIONS: dict[tuple[int, int], dict[tuple, Fraction]] = {
    (0, 3): {(0, 0, 0): Fraction(1)},
    (1, 1): {(1,): Fraction(1, 24)},
    (0, 4): {(1, 0, 0, 0): Fraction(1)},
    (1, 2): {(2, 0): Fraction(1, 24), (1, 1): Fraction(1, 24)},
    (2, 1): {(4,): Fraction(1, 1152)},
}


def intersection_ratio_report(g: int, n: int):
    """Rows (degrees, literal, classical, literal/classical); the classical
    column is None outside the tabulated range."""
    literal = intersection_numbers(g, n)
    table = CLASSICAL_INTERSECTIONS.get((g, n))
    rows = []
    for key in sorted(literal):
        classical = table.get(key) if table else None
        ratio = literal[key] / classical if classical else None
        rows.append((key, literal[key], classical, ratio))
    return rows
