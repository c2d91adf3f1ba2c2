"""Cross-checks tying the three pillars of the package together.

* ``series_identity`` -- the generating-function bridge between lattice
  counting and the Laplace-transformed polynomials: expanding
  L_{g,n}(t(x)) prod (t_j^2 - 1)/2 at x_j = 0 must produce
  (-1)^n (prod p_j) N_{g,n}(p) as the coefficient of prod x_j^{p_j}.

* ``perimeter_volume`` / ``forward_laplace`` -- the exact monomial-wise
  correspondence between the symplectic volume polynomial V^S(t) and its
  perimeter-side counterpart v^S(p):

      c * prod t_j^{2 a_j}   <-->   c * (-1)^n prod 2^{2a_j + 1}/(2a_j + 1)! * prod p_j^{2 a_j}

* ``continuous_rhs`` / ``verify_continuous_recursion`` -- v^S satisfies an
  integral recursion; in the chamber p_1 > p_j (all j >= 2) it reads

      p_1 v_{g,n}(p) = sum_j [ I(p_1 + p_j) + I(p_1 - p_j) ]
                       + 2 Int_{q_1 + q_2 <= p_1} q_1 q_2 (p_1 - q_1 - q_2)
                           [ v_{g-1,n+1}(q_1, q_2, rest) + sum v v ] dq_1 dq_2

  with I(L) = Int_0^L q (L - q) v_{g,n-1}(q, rest minus p_j) dq and the
  splitting sum over ordered stable splittings (the simplex weight is
  symmetric, so each ``surface.swap_classes`` class is integrated once and
  weighed).  The kernel in (q_1, q_2, p_2..p_n) multiplies each splitting's
  halves term by term in integers, each half placed at its slots: its first
  at q_1 or q_2, its tail at its part's places.  Every integral is a
  polynomial, so the identity holds as polynomials in u_j = p_j^2.  For a
  term c q^{2a} of v_{g,n-1}, with
  m = 2a + 3, I(L) = c L^m / ((m - 1) m) and the binomial expansion keeps
  the odd powers of p_1:

      I(p_1 + p_j) + I(p_1 - p_j) = 2c / ((m - 1) m) sum_i C(m, 2i) p_1^{m-2i} p_j^{2i};

  the simplex integral of q_1^{2a+1} q_2^{2b+1} (p_1 - q_1 - q_2) is
  p_1^{2a+2b+5} (2a+1)! (2b+1)! / (2a+2b+5)!.  ``continuous_rhs`` builds
  the right-hand side over p_1 once; the check evaluates it and v_{g,n}
  at seeded chamber points.

* ``intersection_ratio_report`` -- literal intersection numbers read off
  V^S next to the classical normalization, with their quotient.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, prod

from .exactmath import EvenLaurentPoly, _canonical, _series_numerators
from .surface import _check_int, check_stable, enumerate_splittings, perimeter_vectors, swap_classes
from .transform import LAPLACE, SYMPLECTIC, compute, intersection_numbers


def series_identity(g: int, n: int, max_sum: int) -> int:
    """Check the coefficient identity for every positive p with sum <= max_sum;
    returns the number of lattice points checked, raises on any mismatch.
    A bound below n admits no lattice point and is rejected with
    ``ValueError`` rather than passed vacuously.  Each p is compared in
    integers, with the numerators of ``_series_numerators``; N and prod p_j
    are symmetric, so ``count`` is asked once per sorted p, and the check
    covers both of its routes: the recursion and the class polynomials."""
    # imported here, since no other check needs the lattice layer
    from .lattice import count

    _check_int("max_sum", max_sum, n)
    poly = compute(LAPLACE, g, n)
    numerators, den, sign = _series_numerators(poly, max_sum), poly._den, (-1) ** n
    orbits = {}  # sorted p -> (N's denominator, (-1)^n prod p * N's numerator * den)
    checked = 0
    for p in perimeter_vectors(n, max_sum):
        if (key := tuple(sorted(p))) not in orbits:
            value = count(g, n, key)
            orbits[key] = value.denominator, sign * prod(key) * value.numerator * den
        scale, expected = orbits[key]
        if (got := numerators.get(p, 0)) * scale != expected:
            raise ArithmeticError(f"({g},{n}): coefficient of x^{p} is {Fraction(got, den)}, "
                                  f"expected {Fraction(expected, scale * den)}")
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


def continuous_rhs(g: int, n: int) -> EvenLaurentPoly:
    """Right-hand side of the integral recursion divided by p_1, as a
    polynomial in u_j = p_j^2 built from the lower ``perimeter_volume``s;
    the recursion holds exactly when it equals ``perimeter_volume(g, n)``.
    The base types (0, 3) and (1, 1) raise ``ValueError``."""
    check_stable(g, n)
    if (g, n) in ((0, 3), (1, 1)):
        raise ValueError(f"({g}, {n}) is a base case, not produced by the recursion")
    out: dict[tuple[int, ...], Fraction] = {}

    def add(exps, value):
        out[exps] = out.get(exps, 0) + value

    # the edge terms I(p_1 + p_j) + I(p_1 - p_j), term by term of v_{g,n-1}
    edge = perimeter_volume(g, n - 1).terms if n > 1 else {}
    for (a, *others), c in edge.items():
        m = 2 * a + 3
        for j in range(1, n):
            for i in range(a + 2):
                exps = [a + 1 - i, *others]
                exps.insert(j, i)
                add(tuple(exps), 2 * c * comb(m, 2 * i) / ((m - 1) * m))

    # the simplex terms, from the kernel in (q_1, q_2, p_2..p_n)
    kernel = [perimeter_volume(g - 1, n + 1)] if g else []
    for sp, orderings in swap_classes(enumerate_splittings(g, range(n - 1))):
        left = perimeter_volume(sp.g1, len(sp.part1) + 1)
        right = perimeter_volume(sp.g2, len(sp.part2) + 1)
        # entry j of rest is entry place[j] of the two tails laid end to end;
        # distinct pairs of terms land on distinct keys
        place = [(sp.part1 + sp.part2).index(j) for j in range(n - 1)]
        num: dict[tuple[int, ...], int] = {}
        for (a, *tail1), c1 in left._num.items():
            for (b, *tail2), c2 in right._num.items():
                tails = tail1 + tail2
                num[(a, b, *[tails[i] for i in place])] = orderings * c1 * c2
        kernel.append(_canonical(n + 1, num, left._den * right._den))
    for (a, b, *rest), c in EvenLaurentPoly.sum(n + 1, kernel).terms.items():
        weight = Fraction(
            factorial(2 * a + 1) * factorial(2 * b + 1), factorial(2 * a + 2 * b + 5)
        )
        add((a + b + 2, *rest), 2 * c * weight)
    return EvenLaurentPoly(n, out)


def sample_chamber_points(g: int, n: int, trials: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Deterministic rational chamber points with p_1 strictly dominant."""
    _check_int("trials", trials, 1)
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
    """Compare v_{g,n}(p) against the integral recursion's right-hand side
    over p_1 at seeded chamber points; returns one (point, matched) entry
    per trial, and raises ``ValueError`` for ``trials < 1``, which would
    check nothing, n < 2, which has no chamber point, or (0, 3)."""
    _check_int("trials", trials, 1)
    check_stable(g, n)
    if n < 2:
        raise ValueError("need n >= 2 perimeter values")
    rhs = continuous_rhs(g, n)
    volume = perimeter_volume(g, n)
    return [
        (point, volume.evaluate(point) == rhs.evaluate(point))
        for point in sample_chamber_points(g, n, trials, seed)
    ]


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
