"""Surface types and the combinatorics of stable boundary splittings."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence


def is_stable(g: int, n: int) -> bool:
    """g >= 0, n >= 1 and 2g - 2 + n > 0: the domain of every recursion in
    this package (a closed surface has no boundary to carry a perimeter or
    a variable), and the one check every entry point makes."""
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def stable_types(max_complexity: int) -> list[tuple[int, int]]:
    """Every stable (g, n) with n >= 1 and 2g - 2 + n <= ``max_complexity``,
    ordered by complexity, then genus."""
    return [
        (g, c + 2 - 2 * g)
        for c in range(1, max_complexity + 1)
        for g in range((c + 1) // 2 + 1)
    ]


def perimeter_vectors(n: int, max_sum: int, ascending: bool = False) -> Iterator[tuple]:
    """Every positive integer n-vector with sum <= ``max_sum``, in
    lexicographic order; only the nondecreasing ones when ``ascending``."""

    def extend(k: int, budget: int, floor: int) -> Iterator[tuple]:
        if k == 0:
            if budget >= 0:
                yield ()
            return
        # the k entries left are each at least ``first`` when ascending
        top = budget // k if ascending else budget - (k - 1)
        for first in range(floor, top + 1):
            for tail in extend(k - 1, budget - first, first if ascending else 1):
                yield (first,) + tail

    return extend(n, max_sum, 1)


class Splitting(NamedTuple):
    """An ordered stable splitting (g1, I) / (g2, J) of (g, labels).

    ``I`` and ``J`` partition the spectator labels; each part, together
    with the distinguished slot it will receive, must be stable:
    2*g_i - 1 + |part| > 0.
    """

    g1: int
    part1: tuple
    g2: int
    part2: tuple


def enumerate_splittings(g: int, labels: Sequence) -> list[Splitting]:
    """All ordered stable splittings of genus ``g`` over ``labels``.

    Each unordered pair appears in both orders; the self-symmetric
    splitting (equal genus, both parts empty-equal) appears once, since
    swapping it gives back the same assignment.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    pool = tuple(labels)
    if len(set(pool)) != len(pool):
        raise ValueError("labels must be distinct")
    out: list[Splitting] = []
    for g1 in range(g + 1):
        g2 = g - g1
        for r in range(len(pool) + 1):
            if 2 * g1 - 1 + r <= 0:
                continue
            for part1 in combinations(pool, r):
                part2 = tuple(x for x in pool if x not in part1)
                if 2 * g2 - 1 + len(part2) <= 0:
                    continue
                out.append(Splitting(g1, part1, g2, part2))
    return out
