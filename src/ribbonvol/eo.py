"""Residue-form verification of the recursion on three spectral curves.

Each configuration of the recursion engine has a spectral-curve avatar: a
rational parametrization x(t), y(t) with deck involution s(t) = -t, and an
even kernel factor kappa_hat(t) tied to the engine by

    (y(t) - y(s(t))) * x'(t) * kappa_hat(t) = -1        (identically in t).

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

The whole computation is exact: residues are accumulated as rational
functions of t1 with Fraction coefficients and the final quotient must
divide out to an even Laurent polynomial, or an ArithmeticError is
raised.  ``verify_eo`` compares that polynomial against the recursion
engine's output at seeded random spectator values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exactmath import EvenLaurentPoly, _accumulate
from .surface import is_stable
from .transform import EUCLIDEAN, LAPLACE, SYMPLECTIC, RecursionConfig, compute

Laurent = dict[int, Fraction]  # one-variable, exponents of t (or t1)


@dataclass(frozen=True)
class SpectralCurveSpec:
    name: str
    x: Callable[[Fraction], Fraction]
    y: Callable[[Fraction], Fraction]
    x_prime: Callable[[Fraction], Fraction]
    kappa_hat: EvenLaurentPoly  # arity 1, in u = t^2
    pair_weight: Fraction
    config: RecursionConfig


CURVE_LAPLACE = SpectralCurveSpec(
    name="laplace",
    x=lambda t: 2 + Fraction(4, 1) / (t * t - 1),
    y=lambda t: (t + 1) / (t - 1),
    x_prime=lambda t: Fraction(-8, 1) * t / (t * t - 1) ** 2,
    kappa_hat=(-LAPLACE.b_factor) * LAPLACE.kappa,
    pair_weight=Fraction(1),
    config=LAPLACE,
)

CURVE_EUCLIDEAN = SpectralCurveSpec(
    name="euclidean",
    x=lambda t: 2 + Fraction(4, 1) / (t * t),
    y=lambda t: 1 + Fraction(2, 1) / t,
    x_prime=lambda t: Fraction(-8, 1) / t**3,
    kappa_hat=(-EUCLIDEAN.b_factor) * EUCLIDEAN.kappa,
    pair_weight=Fraction(1),
    config=EUCLIDEAN,
)

CURVE_SYMPLECTIC = SpectralCurveSpec(
    name="symplectic",
    x=lambda t: Fraction(1, 1) / (t * t),
    y=lambda t: Fraction(1, 1) / t,
    x_prime=lambda t: Fraction(-2, 1) / t**3,
    kappa_hat=(-SYMPLECTIC.b_factor) * SYMPLECTIC.kappa,
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
# one-variable Laurent helpers (plain dicts, exponent -> Fraction)


def _ladd(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        _accumulate(out, e, c)
    return out


def _lmul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _accumulate(out, ea + eb, ca * cb)
    return out


def _lscale(a: Laurent, c) -> Laurent:
    return {e: v * c for e, v in a.items()} if c else {}


def _leval(a: Laurent, x: Fraction) -> Fraction:
    return sum((c * x**e for e, c in a.items()), Fraction(0))


def _leval_deriv(a: Laurent, x: Fraction) -> Fraction:
    return sum((e * c * x ** (e - 1) for e, c in a.items()), Fraction(0))


def _from_even(p: EvenLaurentPoly) -> Laurent:
    if p.arity != 1:
        raise ValueError("expected a one-variable polynomial")
    return {2 * e[0]: c for e, c in p.terms.items()}


# ---------------------------------------------------------------------------
# integrand assembly


@dataclass
class Term:
    """One additive piece of omega: num(t) / ((t^2 - t1^2) * prod (t - root)^mult).

    ``num`` may carry negative powers of t (t = 0 is not on the contour).
    """

    num: Laurent
    poles: tuple[tuple[Fraction, int], ...]


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


def _stable_part(config: RecursionConfig, gp: int, labels: tuple[int, ...],
                 values: Sequence[Fraction]) -> Laurent:
    poly = compute(config, gp, len(labels) + 1)
    poly = poly.partial_evaluate({i + 1: values[j] for i, j in enumerate(labels)})
    return _from_even(poly)


def integrand_terms(curve: SpectralCurveSpec, g: int, n: int,
                    spectators: Sequence[Fraction]) -> list[Term]:
    """The additive pieces of omega(t) for F_{g,n}(t1, spectators)."""
    if not is_stable(g, n):
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")
    a = [Fraction(v) for v in spectators]
    if len(a) != n - 1:
        raise ValueError(f"expected {n - 1} spectator values, got {len(a)}")
    if any(v == 0 for v in a) or len({abs(v) for v in a}) != len(a):
        raise ValueError("spectator values must be nonzero with distinct magnitudes")
    w = curve.pair_weight

    bracket: list[tuple[Laurent, tuple[tuple[Fraction, int], ...]]] = []
    if g >= 1:
        if is_stable(g - 1, n + 1):
            q = compute(curve.config, g - 1, n + 1)
            q = q.partial_evaluate({i + 2: a[i] for i in range(n - 1)})
            bracket.append((_lscale(_from_even(q.diagonal_merge(0, 1)), -1), ()))
        else:  # (g-1, n+1) == (0, 2): the pair kernel at the diagonal
            bracket.append(({-2: -w / 4}, ()))
    for g1, part1, g2, part2 in _extended_splittings(g, n - 1):
        num: Laurent = {0: Fraction(-1)}
        poles: list[tuple[Fraction, int]] = []
        for gp, labels, sign in ((g1, part1, 1), (g2, part2, -1)):
            if gp == 0 and len(labels) == 1:
                num = _lscale(num, w)
                poles.append((-sign * a[labels[0]], 2))
            else:
                num = _lmul(num, _stable_part(curve.config, gp, labels, a))
        bracket.append((num, tuple(sorted(poles))))

    k_num = {e + 1: -c for e, c in _from_even(curve.kappa_hat).items()}
    return [Term(num=_lmul(num, k_num), poles=poles) for num, poles in bracket]


# ---------------------------------------------------------------------------
# residue extraction


def _rat_add(a: tuple[Laurent, Laurent], b: tuple[Laurent, Laurent]):
    (n1, d1), (n2, d2) = a, b
    return _ladd(_lmul(n1, d2), _lmul(n2, d1)), _lmul(d1, d2)


def _kernel_residue(term: Term, sign: int) -> tuple[Laurent, Laurent]:
    # simple pole at t = sign * t1
    num = {e: c if e % 2 == 0 else c * sign for e, c in term.num.items()}
    den: Laurent = {1: Fraction(2 * sign)}
    for root, mult in term.poles:
        factor = {1: Fraction(sign), 0: -root}
        for _ in range(mult):
            den = _lmul(den, factor)
    return num, den


def _numeric_residue(term: Term, index: int) -> tuple[Laurent, Laurent]:
    root, mult = term.poles[index]
    others = term.poles[:index] + term.poles[index + 1 :]
    q = Fraction(1)
    slope = Fraction(0)  # Q'(root)/Q(root)
    for r2, m2 in others:
        q *= (root - r2) ** m2
        slope += Fraction(m2, 1) / (root - r2)
    # R(t) = (t^2 - t1^2) * prod_(others) (t - r2)^m2, as a poly in t1 at t = root
    r_at = {0: root * root * q, 2: -q}
    if mult == 1:
        return {0: _leval(term.num, root)}, r_at
    if mult == 2:
        qp = q * slope
        r_prime_at = {0: 2 * root * q + root * root * qp, 2: -qp}
        nr = _leval(term.num, root)
        npr = _leval_deriv(term.num, root)
        num = _ladd(_lscale(r_at, npr), _lscale(r_prime_at, -nr))
        return num, _lmul(r_at, r_at)
    raise ArithmeticError(f"pole of order {mult} is not supported")


def _laurent_divide(num: Laurent, den: Laurent) -> Laurent:
    """Exact division of one-variable Laurent polynomials; raises if the
    quotient is not itself a Laurent polynomial."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return {}
    nmin, dmin = min(num), min(den)
    rem = {e - nmin: c for e, c in num.items()}
    div = {e - dmin: c for e, c in den.items()}
    dtop = max(div)
    lead = div[dtop]
    quotient: Laurent = {}
    while rem:
        rtop = max(rem)
        if rtop < dtop:
            raise ArithmeticError("residue sum did not reduce to a Laurent polynomial")
        c = rem[rtop] / lead
        quotient[rtop - dtop] = c
        for e, v in div.items():
            _accumulate(rem, e + rtop - dtop, -c * v)
    shift = nmin - dmin
    return {e + shift: c for e, c in quotient.items()}


def residue_sum(curve: SpectralCurveSpec, g: int, n: int,
                spectators: Sequence[Fraction]) -> EvenLaurentPoly:
    """Minus the residues of omega(t) over t = +-t1 and t = +-a_j, as an
    even Laurent polynomial in the live variable."""
    terms = integrand_terms(curve, g, n, spectators)
    total: tuple[Laurent, Laurent] = ({}, {0: Fraction(1)})
    for term in terms:
        if not term.num:
            continue
        for sign in (1, -1):
            total = _rat_add(total, _kernel_residue(term, sign))
        for index in range(len(term.poles)):
            total = _rat_add(total, _numeric_residue(term, index))
    num, den = total
    flat = _laurent_divide(_lscale(num, -1), den)
    if any(e % 2 for e in flat):
        raise ArithmeticError("residue sum has an odd-degree part")
    return EvenLaurentPoly(1, {(e // 2,): c for e, c in flat.items()})


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
    spectator values; returns one (spectators, matched) entry per trial."""
    reference = compute(curve.config, g, n)
    results = []
    for spect in sample_spectators(curve.name, g, n, trials, seed):
        target = reference.partial_evaluate({j + 1: spect[j] for j in range(n - 1)})
        got = residue_sum(curve, g, n, spect)
        results.append((spect, got == target))
    return results
