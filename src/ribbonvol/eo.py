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
way of splitting (g, {2..n}) into two halves carried at arguments +t and
-t, where a half is either a stable F itself or the two-point pair

    P(z, a) = w / (z + a)^2

with a curve-dependent weight w, plus the diagonal F_{g-1,n+1}(t, t, ..)
(which degenerates to -w/(4 t^2) for (g, n) = (1, 1)).  Each ordered
product enters with sign -1, the pullback of ds along the involution.

The whole computation is exact and even in t1, so it is done in
``EvenLaurentPoly`` of u = t1^2 alone.  Residues are linear in the
numerator, so ``integrand_terms`` sums the pieces that share a pole set
before any residue is taken.  The residues at t1 and -t1 are added in
closed form, which cancels their odd parts, and every residue is brought
over the one common denominator D(u) = prod_j (a_j^2 - u)^2.  The sum must
divide by D to an even Laurent polynomial, or an ArithmeticError is
raised: that long division, on the public operations of ``EvenLaurentPoly``
alone, is the check that the residues pair up.  ``verify_eo`` compares the
quotient against the recursion engine's output at seeded random spectator
values, and checks a repeated draw once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod
from typing import Callable, NamedTuple, Sequence

from .exactmath import EvenLaurentPoly
from .surface import is_stable
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


def _extended_splittings(g: int, m: int):
    """Ordered pairs ((g1, I), (g2, J)) partitioning g and {0..m-1} where each
    half is stable or a two-point part (g_i = 0 with exactly one label)."""

    def ok(gp: int, size: int) -> bool:
        return (gp == 0 and size == 1) or is_stable(gp, size + 1)

    for g1 in range(g + 1):
        for mask in range(2**m):
            part1 = tuple(i for i in range(m) if mask >> i & 1)
            part2 = tuple(i for i in range(m) if not mask >> i & 1)
            if ok(g1, len(part1)) and ok(g - g1, len(part2)):
                yield g1, part1, g - g1, part2


def integrand_terms(curve: SpectralCurveSpec, g: int, n: int,
                    spectators: Sequence[Fraction]) -> dict[tuple[Fraction, ...], EvenLaurentPoly]:
    """omega(t) for F_{g,n}(t1, spectators) as {R: B_R}, summed per pole set:
    omega = sum_R t B_R(t^2) / ((t^2 - t1^2) prod_(r in R) (t - r)^2), R sorted.
    B_R is in u = t^2 and may carry negative powers (t = 0 is not on the
    contour).  Every root comes from a pair part, so its pole is double."""
    if not is_stable(g, n):
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")
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
    if g >= 1:
        if is_stable(g - 1, n + 1):
            q = compute(curve.config, g - 1, n + 1)
            q = q.partial_evaluate({i + 2: a[i] for i in range(n - 1)})
            pieces[()] = [q.diagonal_merge(0, 1) * kappa_hat]
        else:  # (g-1, n+1) == (0, 2): the pair kernel at the diagonal
            pieces[()] = [EvenLaurentPoly.monomial(1, (-1,), w / 4) * kappa_hat]
    for g1, part1, g2, part2 in _extended_splittings(g, n - 1):
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


def _laurent_divide(num: EvenLaurentPoly, den: EvenLaurentPoly) -> EvenLaurentPoly:
    """Exact long division of one-variable even Laurent polynomials; raises
    if the quotient is not itself a Laurent polynomial."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    (dtop,), lead = max(den.terms.items())
    # a Laurent quotient has no term below min(num) - min(den)
    (nmin,), (dmin,) = min(num.terms, default=(0,)), min(den.terms)
    per_top = EvenLaurentPoly.monomial(1, (-dtop,), 1 / lead)
    steps = []
    while num:
        step = num.leading_part() * per_top
        if step.max_total_degree() < nmin - dmin:
            raise ArithmeticError("residue sum did not reduce to a Laurent polynomial")
        steps.append(step)
        num = num - step * den
    return EvenLaurentPoly.sum(1, steps)


def _double_pole(num: EvenLaurentPoly, r: Fraction,
                 poles: tuple[Fraction, ...]) -> tuple[Fraction, Fraction]:
    """(c0, c1) with (c0 + c1 u) / (r^2 - u)^2 the residue at the double pole
    t = r of N(t) / ((t^2 - u) Q(t)), where N(t) = t num(t^2) and Q(t) is the
    product of (t - s)^2 over the other roots s of ``poles``."""
    # the residue is ((N'(r) - N(r) Q'(r)/Q(r)) (r^2 - u) - 2 r N(r)) / (Q(r) (r^2 - u)^2)
    q, slope = Fraction(1), Fraction(0)
    for s in poles:
        if s != r:
            q *= (r - s) ** 2
            slope += 2 / (r - s)
    n_r = r * num.evaluate((r,))
    # N'(t) = [(1 + 2u d/du) num](t^2)
    outer = (num.t_derivative(0).evaluate((r,)) - n_r * slope) / q
    return outer * r * r - 2 * r * n_r / q, -outer


def residue_sum(curve: SpectralCurveSpec, g: int, n: int,
                spectators: Sequence[Fraction]) -> EvenLaurentPoly:
    """Minus the residues of omega(t) over t = +-t1 and t = +-a_j, as an
    even Laurent polynomial in the live variable.

    Everything is a polynomial in u = t1^2.  ``integrand_terms`` sums the
    pieces of a pole set R to one B(u).  Its paired simple poles at +-t1 give
    B(u) E_R(u) / prod_(r in R) (r^2 - u)^2, with E_R(t1^2) the even part of
    prod_r (t1 + r)^2, and its double poles give two scalars per r^2.  The
    numerators over the same factors of D(u) = prod_j (a_j^2 - u)^2 are summed,
    each sum is multiplied by the factors it lacks, and the total by 1/D once.
    """
    groups: dict[frozenset, list[EvenLaurentPoly]] = {}  # factors of D present -> numerators
    doubles: dict[Fraction, tuple[Fraction, Fraction]] = {}  # r^2 -> (c0, c1)
    for poles, num in integrand_terms(curve, g, n, spectators).items():
        coeffs = [Fraction(1)]  # of prod_r (t1 + r)^2, lowest power of t1 first
        for r in poles:
            for _ in range(2):
                coeffs = [r * c + below for c, below in zip(coeffs + [0], [0] + coeffs)]
        even = EvenLaurentPoly(1, {(k,): c for k, c in enumerate(coeffs[::2])})
        groups.setdefault(frozenset(r * r for r in poles), []).append(num * even)
        for r in poles:
            c0, c1 = _double_pole(num, r, poles)
            b0, b1 = doubles.get(r * r, (0, 0))
            doubles[r * r] = (b0 + c0, b1 + c1)
    for square, (c0, c1) in doubles.items():
        groups.setdefault(frozenset((square,)), []).append(EvenLaurentPoly(1, {(0,): c0, (1,): c1}))
    # one factor (a^2 - u)^2 of D per spectator
    factors = {s: EvenLaurentPoly(1, {(0,): s * s, (1,): -2 * s, (2,): 1})
               for s in (Fraction(a) ** 2 for a in spectators)}
    parts = []
    for present, nums in groups.items():
        part = EvenLaurentPoly.sum(1, nums)
        for square, factor in factors.items():
            if square not in present:
                part = part * factor
        parts.append(part)
    d = prod(factors.values(), start=EvenLaurentPoly.constant(1, 1))
    return _laurent_divide(-EvenLaurentPoly.sum(1, parts), d)


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
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    reference = compute(curve.config, g, n)
    draws = sample_spectators(curve.name, g, n, trials, seed)
    verdicts = {}  # a repeated draw is checked once
    for spect in draws:
        if spect not in verdicts:
            target = reference.partial_evaluate({j + 1: spect[j] for j in range(n - 1)})
            verdicts[spect] = residue_sum(curve, g, n, spect) == target
    return [(spect, verdicts[spect]) for spect in draws]
