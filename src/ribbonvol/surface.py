"""Surface types and the combinatorics of boundary splittings: the one
place that decides which two halves a separating edge may leave
(``enumerate_splittings``) and how often each splitting counts in a sum
symmetric in the halves (``swap_classes``), for all four recursions."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence


def is_stable(g: int, n: int) -> bool:
    """g and n integers (not ``bool``), g >= 0, n >= 1 and 2g - 2 + n > 0:
    the domain of every recursion in this package (a closed surface has no
    boundary to carry a perimeter or a variable)."""
    return type(g) is type(n) is int and g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def check_stable(g: int, n: int) -> None:
    """Every entry point's check: ``ValueError`` naming (g, n) unless stable."""
    if not is_stable(g, n):
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")


def _check_int(name: str, value: int, least: int, below: int | None = None) -> None:
    """Every integer argument's check: ``ValueError`` naming it unless it is an
    ``int``, not a ``bool``, with ``least <= value`` (and ``value < below``)."""
    if type(value) is not int or value < least or below is not None and value >= below:
        bound = f"at least {least}" if below is None else f"in range({least}, {below})"
        raise ValueError(f"{name} must be {bound} and an int, got {value!r}")


def stable_types(max_complexity: int) -> list[tuple[int, int]]:
    """Every stable (g, n) with n >= 1 and 2g - 2 + n <= ``max_complexity``,
    ordered by complexity, then genus; none for a bound below 1.  A bound
    may be as low as -1, the least 2g - 2 + n with g >= 0 and n >= 1."""
    _check_int("max_complexity", max_complexity, -1)
    return [
        (g, c + 2 - 2 * g)
        for c in range(1, max_complexity + 1)
        for g in range((c + 1) // 2 + 1)
    ]


def perimeter_vectors(n: int, max_sum: int, ascending: bool = False) -> Iterator[tuple]:
    """Every positive integer n-vector with sum <= ``max_sum``, in
    lexicographic order; only the nondecreasing ones when ``ascending``."""
    _check_int("n", n, 0)
    # one level per entry, prefixes in lexicographic order, each leaving room for the rest
    level = [()] if max_sum >= 0 else []
    for k in range(n, 0, -1):
        level = [prefix + (x,) for prefix in level
                 for x in (range(prefix[-1] if prefix else 1, (max_sum - sum(prefix)) // k + 1)
                           if ascending else range(1, max_sum - sum(prefix) - k + 2))]
    return iter(level)


class Splitting(NamedTuple):
    """An ordered splitting (g1, I) / (g2, J) of (g, labels): ``I`` and
    ``J`` partition the spectator labels, and each half also receives the
    distinguished slot of the removed edge."""

    g1: int
    part1: tuple
    g2: int
    part2: tuple


def enumerate_splittings(g: int, labels: Sequence, pairs: bool = False) -> list[Splitting]:
    """All ordered splittings of genus ``g`` over ``labels`` whose halves
    (g_i, part) have 2 g_i + |part| >= 2, so each half with its new slot is
    stable; with ``pairs`` the bound is 1, which also admits the residue
    form's two-point halves (genus 0, one label).  Each part keeps the
    order of ``labels``.  Both orders of each splitting appear, once if
    they are the same (equal genera, both parts empty)."""
    _check_int("g", g, 0)
    pool = tuple(labels)
    if len(set(pool)) != len(pool):
        raise ValueError("labels must be distinct")
    out: list[Splitting] = []
    for g1, r, g2, _ in splitting_shapes(g, len(pool), pairs):
        for part1 in combinations(pool, r):
            part2 = tuple(x for x in pool if x not in part1)
            out.append(Splitting(g1, part1, g2, part2))
    return out


def splitting_shapes(g: int, m: int, pairs: bool = False) -> list[tuple[int, int, int, int]]:
    """The shapes (g1, |I|, g2, |J|) of ``enumerate_splittings(g, labels,
    pairs)`` over m labels, in its order, each once."""
    least = 1 if pairs else 2
    return [
        (g1, r, g - g1, m - r)
        for g1 in range(g + 1)
        for r in range(m + 1)
        if 2 * g1 + r >= least and 2 * (g - g1) + m - r >= least
    ]


def swap_classes(splittings: Sequence[Splitting]) -> tuple[tuple[Splitting, int], ...]:
    """Each splitting, or shape of ``splitting_shapes``, of a swap-closed list
    once per swap of its halves, as (sp, orderings) with (g1, part1) <=
    (g2, part2): ``orderings`` is 2, or 1 when the swap leaves sp unchanged."""
    return tuple((sp, 1 if sp[:2] == sp[2:] else 2) for sp in splittings if sp[:2] <= sp[2:])
