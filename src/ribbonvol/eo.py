"""Residue-form verification of the recursion on three spectral curves.

Each configuration of the recursion engine has a spectral-curve avatar: a
rational parametrization x(t), y(t) with deck involution s(t) = -t, and an
even kernel factor kappa_hat(t) for which

    (y(t) - y(s(t))) * x'(t) * kappa_hat(t) = -1        (identically in t).

A ``SpectralCurveSpec`` stores y, x' (x enters only through it), the pair
weight w (below) and its engine ``config``.  Its ``name`` and
``kappa_hat`` are derived from ``config``: the configuration's name, and
kappa_hat(u) = -B * kappa(u) from its bracket factor B and kernel kappa.
So the identity above checks the curve against the engine configuration
it is paired with.

With K(t, t1) = -t * kappa_hat(t) / (t^2 - t1^2), the polynomial
F_{g,n}(t1, a2, .., an) -- spectator variables frozen at rational values
a_j -- equals minus the sum of residues of

    omega(t) = K(t, t1) * bracket(t)

over the finite punctures t = +-t1 (simple) and t = +-a_j (double);
t = 0 and t = infinity are excluded.  The bracket collects every ordered
splitting of (g, {2..n}) (``enumerate_splittings`` with ``pairs``) into
two halves carried at arguments +t and -t, where a half is either a
stable F itself or the two-point pair

    P(z, a) = w / (z + a)^2

with a curve-dependent weight w, plus the diagonal F_{g-1,n+1}(t, t, ..)
(which degenerates to -w/(4 t^2) for (g, n) = (1, 1)).  Each ordered
product enters with sign -1, the pullback of ds along the involution.

The whole computation is exact and even in t1, so it is done in
``EvenLaurentPoly`` of u = t1^2 alone.  Residues are linear in the
numerator, so ``integrand_terms`` sums the pieces that share a pole set
before any residue is taken.  omega is a rational function of t, so by the
residue theorem the sum above is also the sum of its residues at t = 0 and
t = infinity, the ramification points of x, where s(t) = -t is fixed.
``residue_sum`` takes those: each is read off a power series, so no pole
at +-t1 or +-a_j is visited and no polynomial is divided.
``verify_eo`` compares the result against the recursion engine's output at
seeded random spectator values, and checks a repeated draw once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod
from typing import Callable, NamedTuple, Sequence

from .exactmath import EvenLaurentPoly
from .surface import _check_int, check_stable, enumerate_splittings
from .transform import EUCLIDEAN, LAPLACE, SYMPLECTIC, RecursionConfig, compute


class SpectralCurveSpec(NamedTuple):
    y: Callable[[Fraction], Fraction]
    x_prime: Callable[[Fraction], Fraction]
    pair_weight: Fraction
    config: RecursionConfig

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def kappa_hat(self) -> EvenLaurentPoly:
        """-B * kappa(u) of the engine configuration, arity 1 in u = t^2."""
        return (-self.config.b_factor) * self.config.kappa


CURVE_LAPLACE = SpectralCurveSpec(
    y=lambda t: (t + 1) / (t - 1),
    x_prime=lambda t: Fraction(-8, 1) * t / (t * t - 1) ** 2,  # x = 2 + 4/(t^2 - 1)
    pair_weight=Fraction(1),
    config=LAPLACE,
)

CURVE_EUCLIDEAN = SpectralCurveSpec(
    y=lambda t: 1 + Fraction(2, 1) / t,
    x_prime=lambda t: Fraction(-8, 1) / t**3,  # x = 2 + 4/t^2
    pair_weight=Fraction(1),
    config=EUCLIDEAN,
)

CURVE_SYMPLECTIC = SpectralCurveSpec(
    y=lambda t: Fraction(1, 1) / t,
    x_prime=lambda t: Fraction(-2, 1) / t**3,  # x = 1/t^2
    pair_weight=Fraction(1, 2),
    config=SYMPLECTIC,
)

CURVES = {c.name: c for c in (CURVE_LAPLACE, CURVE_EUCLIDEAN, CURVE_SYMPLECTIC)}

_SPECTATOR_POOL = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def kernel_identity_defect(curve: SpectralCurveSpec, t: Fraction) -> Fraction:
    """(y(t) - y(-t)) x'(t) kappa_hat(t) + 1; zero iff the identity holds at t."""
    k = curve.kappa_hat.evaluate((t,))
    return (curve.y(t) - curve.y(-t)) * curve.x_prime(t) * k + 1


def check_kernel_identity(curve: SpectralCurveSpec) -> bool:
    """Check the kernel identity at sample points past the degree of the
    rational functions involved (t = 0, +-1 excluded as poles)."""
    return all(kernel_identity_defect(curve, Fraction(t)) == 0 for t in range(2, 15))


# ---------------------------------------------------------------------------
# integrand assembly


def integrand_terms(curve: SpectralCurveSpec, g: int, n: int,
                    spectators: Sequence[Fraction]) -> dict[tuple[Fraction, ...], EvenLaurentPoly]:
    """omega(t) for F_{g,n}(t1, spectators) as {R: B_R}, summed per pole set:
    omega = sum_R t B_R(t^2) / ((t^2 - t1^2) prod_(r in R) (t - r)^2), R sorted.
    B_R is in u = t^2 and may carry negative powers (t = 0 is not on the
    contour).  Every root comes from a pair part, so its pole is double."""
    check_stable(g, n)
    a = [Fraction(v) for v in spectators]
    if len(a) != n - 1:
        raise ValueError(f"expected {n - 1} spectator values, got {len(a)}")
    if any(v == 0 for v in a) or len({abs(v) for v in a}) != len(a):
        raise ValueError("spectator values must be nonzero with distinct magnitudes")
    w = curve.pair_weight

    # the kernel's numerator is -t kappa_hat(t), less the factor t every piece
    # keeps; its sign cancels the sign -1 of every bracket product
    kappa_hat = curve.kappa_hat
    pieces: dict[tuple[Fraction, ...], list[EvenLaurentPoly]] = {}
    if (g, n) == (1, 1):  # F_{0,2} is the pair kernel at the diagonal
        pieces[()] = [EvenLaurentPoly.monomial(1, (-1,), w / 4) * kappa_hat]
    elif g >= 1:
        q = compute(curve.config, g - 1, n + 1)
        q = q.partial_evaluate({i + 2: a[i] for i in range(n - 1)})
        pieces[()] = [q.diagonal_merge(0, 1) * kappa_hat]
    for g1, part1, g2, part2 in enumerate_splittings(g, range(n - 1), pairs=True):
        num, scale, poles = kappa_hat, Fraction(1), []
        for gp, labels, sign in ((g1, part1, 1), (g2, part2, -1)):
            if gp == 0 and len(labels) == 1:
                scale *= w
                poles.append(-sign * a[labels[0]])
            else:
                part = compute(curve.config, gp, len(labels) + 1)
                num = num * part.partial_evaluate({i + 1: a[j] for i, j in enumerate(labels)})
        pieces.setdefault(tuple(sorted(poles)), []).append(num * scale)
    return {poles: EvenLaurentPoly.sum(1, nums) for poles, nums in pieces.items()}


# ---------------------------------------------------------------------------
# residue extraction


def _inverse_square_series(roots: Sequence[Fraction], top: int) -> list[Fraction]:
    """[x^(2j)] prod_(c in roots) (1 - c x)^-2 for j = 0..top (none if top < 0)."""
    # in integers: the x^m coefficient times d^m, d the roots' common denominator
    d = lcm(*(c.denominator for c in roots))
    coeffs = [1] + [0] * (2 * top)
    for c in roots:
        step = c.numerator * (d // c.denominator)
        for _ in range(2):  # times (1 - c x)^-1: a running sum
            for m in range(1, len(coeffs)):
                coeffs[m] += step * coeffs[m - 1]
    return [Fraction(c, d ** (2 * j)) for j, c in enumerate(coeffs[: 2 * top + 1 : 2])]


def residue_sum(curve: SpectralCurveSpec, g: int, n: int,
                spectators: Sequence[Fraction]) -> EvenLaurentPoly:
    """Minus the residues of omega(t) over t = +-t1 and t = +-a_j, as an
    even Laurent polynomial in the live variable.

    omega is rational in t, so this is the sum of its residues at t = 0 and
    t = infinity, and those are read off power series.  ``integrand_terms``
    sums the pieces of a pole set R to one B(u), u = t1^2.  The residue at
    t = 0 is the part with negative powers of u of -B(u) prod_r r^-2 P_0(u),
    P_0(u) = sum_j [x^2j] prod_r (1 - x/r)^-2 u^j; the residue at t = infinity
    is the part with the other powers of -B(u) u^-|R| P_inf(1/u),
    P_inf(v) = sum_j [x^2j] prod_r (1 - r x)^-2 v^j.  Both are linear in B,
    so each product is summed over R before its part is kept.
    """
    at_zero, at_infinity = [], []
    for poles, num in integrand_terms(curve, g, n, spectators).items():
        (low,), (high,) = min(num.terms), max(num.terms)
        scale = Fraction(-1) / prod(r * r for r in poles)
        series = _inverse_square_series([1 / r for r in poles], -1 - low)
        at_zero.append(num * EvenLaurentPoly(1, {(j,): scale * c for j, c in enumerate(series)}))
        series = _inverse_square_series(poles, high - len(poles))
        at_infinity.append(num * EvenLaurentPoly(1, {(-len(poles) - j,): -c
                                                     for j, c in enumerate(series)}))
    zero, infinity = EvenLaurentPoly.sum(1, at_zero), EvenLaurentPoly.sum(1, at_infinity)
    return EvenLaurentPoly(1, {**{e: c for e, c in zero.terms.items() if e[0] < 0},
                               **{e: c for e, c in infinity.terms.items() if e[0] >= 0}})


def sample_spectators(curve_name: str, g: int, n: int, trials: int,
                      seed: int) -> list[tuple[Fraction, ...]]:
    """Deterministic spectator draws: distinct odd primes with random signs."""
    rng = random.Random(f"{curve_name}:{g}:{n}:{seed}")
    draws = []
    for _ in range(trials):
        primes = rng.sample(_SPECTATOR_POOL, n - 1)
        draws.append(tuple(Fraction(p * rng.choice((1, -1))) for p in primes))
    return draws


def verify_eo(curve: SpectralCurveSpec, g: int, n: int, trials: int = 5,
              seed: int = 0) -> list[tuple[tuple[Fraction, ...], bool]]:
    """Compare residue extraction against the recursion engine at seeded
    spectator values; returns one (spectators, matched) entry per trial, and
    raises ``ValueError`` for ``trials < 1``, which would check nothing."""
    _check_int("trials", trials, 1)
    reference = compute(curve.config, g, n)
    draws = sample_spectators(curve.name, g, n, trials, seed)
    verdicts = {}  # a repeated draw is checked once
    for spect in draws:
        if spect not in verdicts:
            target = reference.partial_evaluate({j + 1: spect[j] for j in range(n - 1)})
            verdicts[spect] = residue_sum(curve, g, n, spect) == target
    return [(spect, verdicts[spect]) for spect in draws]
