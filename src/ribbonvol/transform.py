"""The Laplace-transformed recursion engine.

One engine, three configurations.  Each configuration produces, for every
stable (g, n), an even Laurent polynomial F_{g,n}(t_1..t_n):

* ``LAPLACE``     -- the Laplace transforms L_{g,n} of the integral
                     ribbon-graph counts (genuine Laurent polynomials,
                     dyadic coefficients);
* ``EUCLIDEAN``   -- the polynomial volumes V^E_{g,n} of the unit-edge
                     moduli (the top-degree part of L_{g,n});
* ``SYMPLECTIC``  -- the volumes V^S_{g,n} for twice the standard
                     symplectic form, proportional to V^E by the constant
                     2^{5g-5+2n}.

For n >= 2 the recursion reads, with u = t^2 and a configuration kernel
kappa(u):

    F_{g,n} = A * sum_{j=2}^{n} d/dt_j [ t_j * D_j ]  +  B * kappa(u_1) *
              [ F_{g-1,n+1}(t_1, t_1, rest)
                + sum over ordered stable splittings F F ]

where D_j is the divided difference of x |-> kappa(x^2) F_{g,n-1}(x, rest)
between the slots t_1 and t_j, the derivative of an even h is realized as
d/dt_j [t_j h] = h + 2 u_j dh/du_j (``t_derivative``), and the genus
term is dropped at g = 0.  The splitting sum runs over the ordered
splittings of ``surface.enumerate_splittings``.

Each distinct term is computed once, by the S_n symmetry of F:

* F_{g,n-1} is symmetric, so the j-term for slot j is the image of the
  one for slot 2 under the transposition t_2 <-> t_j.  One divided
  difference is taken, and its n - 2 images are slot substitutions.
* An ordered splitting and its swap embed to the same product, so each
  class of ``surface.swap_classes`` is multiplied once, and weighed by its
  orderings once per group of classes with the same number.

Everything is computed bottom-up in the complexity 2g - 2 + n and
memoized per entry of ``CONFIGS``, the closed set ``compute`` accepts;
results are canonical (symmetric, exact) and safe to share.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import NamedTuple

from .exactmath import EvenLaurentPoly, divided_difference
from .surface import check_stable, enumerate_splittings, swap_classes


class RecursionConfig(NamedTuple):
    """One admissible configuration of the engine.

    ``kappa`` is a one-variable even Laurent polynomial in u = t^2;
    ``base_03`` and ``base_11`` seed the recursion at the two minimal
    surface types.
    """

    name: str
    a_factor: Fraction
    b_factor: Fraction
    kappa: EvenLaurentPoly
    base_03: EvenLaurentPoly
    base_11: EvenLaurentPoly


LAPLACE = RecursionConfig(
    name="laplace",
    a_factor=Fraction(-1, 16),
    b_factor=Fraction(-1, 32),
    # (u - 1)^3 / u
    kappa=EvenLaurentPoly(1, {(2,): 1, (1,): -3, (0,): 3, (-1,): -1}),
    # -(1/16) (1 - 1/(u1 u2 u3))
    base_03=EvenLaurentPoly(
        3, {(0, 0, 0): Fraction(-1, 16), (-1, -1, -1): Fraction(1, 16)}
    ),
    # -(1/128) (u - 1)^3 / u^2
    base_11=EvenLaurentPoly(
        1,
        {
            (1,): Fraction(-1, 128),
            (0,): Fraction(3, 128),
            (-1,): Fraction(-3, 128),
            (-2,): Fraction(1, 128),
        },
    ),
)

EUCLIDEAN = RecursionConfig(
    name="euclidean",
    a_factor=Fraction(-1, 16),
    b_factor=Fraction(-1, 32),
    kappa=EvenLaurentPoly(1, {(2,): 1}),
    base_03=EvenLaurentPoly.constant(3, Fraction(-1, 16)),
    base_11=EvenLaurentPoly(1, {(1,): Fraction(-1, 128)}),
)

SYMPLECTIC = RecursionConfig(
    name="symplectic",
    a_factor=Fraction(-1, 4),
    b_factor=Fraction(-1, 4),
    kappa=EvenLaurentPoly(1, {(2,): 1}),
    base_03=EvenLaurentPoly.constant(3, Fraction(-1, 8)),
    base_11=EvenLaurentPoly(1, {(1,): Fraction(-1, 32)}),
)

CONFIGS = {c.name: c for c in (LAPLACE, EUCLIDEAN, SYMPLECTIC)}

_tables: dict[str, dict[tuple[int, int], EvenLaurentPoly]] = {name: {} for name in CONFIGS}


def compute(config: RecursionConfig, g: int, n: int) -> EvenLaurentPoly:
    """F_{g,n} for one of ``CONFIGS`` (memoized); any other config raises ``ValueError``."""
    if not isinstance(config, RecursionConfig) or CONFIGS.get(config.name) != config:
        name = getattr(config, "name", config)
        raise ValueError(f"config {name!r} is not LAPLACE, EUCLIDEAN or SYMPLECTIC")
    check_stable(g, n)
    table = _tables[config.name]
    hit = table.get((g, n))
    if hit is not None:
        return hit
    if (g, n) == (0, 3):
        value = config.base_03
    elif (g, n) == (1, 1):
        value = config.base_11
    else:
        value = _recurse(config, g, n)
    table[(g, n)] = value
    return value


def _recurse(config: RecursionConfig, g: int, n: int) -> EvenLaurentPoly:
    kappa0 = config.kappa.substitute_slots({0: 0}, n)
    parts = []

    if n >= 2:
        # the j-term for slot b is the image of the one for slot 1 under the
        # transposition 1 <-> b, because F_{g,n-1} is symmetric
        prev = compute(config, g, n - 1)
        f = prev.substitute_slots({0: 0, **{s: s + 1 for s in range(1, n - 1)}}, n) * kappa0
        h = divided_difference(f, 0, 1)
        first = h.t_derivative(1)
        j_parts = [first]
        for b in range(2, n):
            swap = dict(enumerate(range(n)))
            swap[1], swap[b] = b, 1
            j_parts.append(first.substitute_slots(swap, n))
        parts.append(config.a_factor * EvenLaurentPoly.sum(n, j_parts))

    def bracket_parts():
        if g >= 1:
            yield compute(config, g - 1, n + 1).diagonal_merge()
        groups: dict[int, list] = {}
        for (g1, part1, g2, part2), orderings in swap_classes(enumerate_splittings(g, range(1, n))):
            left = compute(config, g1, len(part1) + 1).substitute_slots(dict(enumerate((0, *part1))), n)
            right = compute(config, g2, len(part2) + 1).substitute_slots(dict(enumerate((0, *part2))), n)
            groups.setdefault(orderings, []).append(left * right)
        for orderings, products in groups.items():
            yield orderings * EvenLaurentPoly.sum(n, products)

    parts.append(config.b_factor * (kappa0 * EvenLaurentPoly.sum(n, bracket_parts())))
    return EvenLaurentPoly.sum(n, parts)


def kontsevich_ratio(g: int, n: int) -> Fraction:
    """The constant V^S_{g,n} / V^E_{g,n}; raises if the two volume
    polynomials are not exactly proportional."""
    vs = compute(SYMPLECTIC, g, n)
    ve = compute(EUCLIDEAN, g, n)
    if set(vs.terms) != set(ve.terms):
        raise ArithmeticError(f"({g},{n}): volume polynomials have different support")
    ratios = {vs.terms[e] / ve.terms[e] for e in ve.terms}
    if len(ratios) != 1:
        raise ArithmeticError(f"({g},{n}): volume polynomials are not proportional")
    return ratios.pop()


def euclidean_matches_leading(g: int, n: int) -> bool:
    """Whether V^E_{g,n} equals the top-degree part of L_{g,n} exactly."""
    return compute(EUCLIDEAN, g, n) == compute(LAPLACE, g, n).leading_part()


def intersection_numbers(g: int, n: int) -> dict[tuple, Fraction]:
    """Extract <tau_{d_1} ... tau_{d_n}> coefficients from V^S_{g,n}.

    The volume polynomial is read against the ansatz

        V^S = (-1)^n sum_{|d| = 3g-3+n} <tau_d> prod_j (2d_j+1)!! (t_j/2)^{2d_j}

    literally -- no renormalization is applied.  Returns a map keyed by
    the degree vector sorted in decreasing order; extraction must agree
    across all orderings of each degree vector, and every ordering of every
    key must be a term, so that the map rebuilds V^S exactly (both verified
    here; the second by counting the orderings).
    """
    vs = compute(SYMPLECTIC, g, n)
    target = 3 * g - 3 + n
    groups: dict[tuple, list[Fraction]] = {}
    for exps, coeff in vs.terms.items():
        if sum(exps) != target or any(e < 0 for e in exps):
            raise ArithmeticError(
                f"({g},{n}): unexpected monomial {exps} in the symplectic volume"
            )
        groups.setdefault(tuple(sorted(exps, reverse=True)), []).append(coeff)
    for key, coeffs in groups.items():
        if coeffs.count(coeffs[0]) != len(coeffs):
            raise ArithmeticError(f"({g},{n}): extraction differs across orderings of {key}")
    # each key has n! / prod(multiplicity!) distinct orderings
    for key, coeffs in groups.items():
        if len(coeffs) != factorial(n) // prod(map(factorial, Counter(key).values())):
            raise ArithmeticError(f"({g},{n}): intersection-number round trip failed")
    # (-1)^n prod_j 4^{d_j} / (2d_j+1)!!, once per key since sum(d) = target
    scale = (-1) ** n * 4**target
    return {
        key: coeffs[0] * Fraction(scale, prod(prod(range(1, 2 * d + 2, 2)) for d in key))
        for key, coeffs in groups.items()
    }
