"""Surface types and the combinatorics of stable boundary splittings."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class SurfaceType:
    """Genus g with n labeled boundary components."""

    g: int
    n: int

    def __post_init__(self):
        if self.g < 0 or self.n < 0:
            raise ValueError("genus and boundary count must be nonnegative")

    @property
    def complexity(self) -> int:
        return 2 * self.g - 2 + self.n

    def is_stable(self) -> bool:
        return self.complexity > 0


def is_stable(g: int, n: int) -> bool:
    """2g - 2 + n > 0, the domain of every recursion in this package."""
    return 2 * g - 2 + n > 0


def perimeter_vectors(n: int, max_sum: int, ascending: bool = False) -> Iterator[tuple]:
    """Every positive integer n-vector with sum <= ``max_sum``, in
    lexicographic order; only the nondecreasing ones when ``ascending``."""

    def extend(k: int, budget: int, floor: int) -> Iterator[tuple]:
        if k == 0:
            yield ()
            return
        # the k entries left are each at least ``first`` when ascending
        top = budget // k if ascending else budget - (k - 1)
        for first in range(floor, top + 1):
            for tail in extend(k - 1, budget - first, first if ascending else 1):
                yield (first,) + tail

    return extend(n, max_sum, 1)


@dataclass(frozen=True)
class Splitting:
    """An ordered stable splitting (g1, I) / (g2, J) of (g, labels).

    ``I`` and ``J`` partition the spectator labels; each part, together
    with the distinguished slot it will receive, must be stable:
    2*g_i - 1 + |part| > 0.
    """

    g1: int
    part1: tuple
    g2: int
    part2: tuple

    def swapped(self) -> "Splitting":
        return Splitting(self.g2, self.part2, self.g1, self.part1)


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
