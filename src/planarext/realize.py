"""Exhaustive search for a planar graph with a prescribed degree sequence.

The search places vertices in non-increasing target order and repeatedly
saturates the vertex with the largest remaining demand, branching over
its possible neighbor sets. Three prunes keep the tree small, all of
them sound (they never discard a completable branch):

- residual feasibility: the remaining demands must satisfy the
  Erdos-Gallai inequalities even ignoring already-placed edges, a
  relaxation of the true constrained problem;
- partial planarity: placed edges are never removed, so a non-planar
  partial graph cannot complete to a planar one;
- interchangeability: candidates with equal remaining demand and equal
  current neighborhoods are mutually swappable by an automorphism of the
  partial graph, so only prefix selections within such a group are tried.

Exhaustion is therefore a proof that no planar realization exists;
"timed-out" means the time budget lapsed with branches unexplored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .graphs import Graph, from_masks
from .planarity import _decide, is_planar


@dataclass(frozen=True)
class RealizeResult:
    status: str  # "found" | "exhausted" | "timed-out"
    graph: Graph | None


class _Deadline(Exception):
    pass


def _residual_feasible(rem: list[int]) -> bool:
    """Erdős–Gallai over the remaining demands, in linear time after the sort.

    With the demands non-increasing, the k largest need k(k-1) plus the
    sum of min(d_i, k) over the rest. A pointer p walks down so that the
    first p demands are those at least k: the rest contribute k each up
    to index p, and their own value after it.
    """
    degs = sorted(rem, reverse=True)
    n = len(degs)
    # suffix[i] is the sum of degs[i:]
    suffix = list(accumulate(reversed(degs), initial=0))[::-1]
    prefix = 0
    p = n
    for k in range(1, n + 1):
        prefix += degs[k - 1]
        while p and degs[p - 1] < k:
            p -= 1
        tail = k * max(p - k, 0) + suffix[max(p, k)]
        if prefix > k * (k - 1) + tail:
            return False
    return True


def _group_selections(groups: list[list[int]], need: int) -> Iterator[list[int]]:
    """All ways to take `need` vertices as per-group prefixes, made lazily.

    They come in the lexicographic order of the per-group counts. Deep in
    a search there are hundreds of groups and a node often recurses into
    its first selection, so the selections are not listed up front.
    """
    # room[j]: how many vertices groups[j:] hold
    room = list(accumulate(map(len, reversed(groups)), initial=0))[::-1]

    def pick(i: int, left: int) -> Iterator[list[int]]:
        if left == 0:
            yield []
            return
        # a later first nonempty take sorts first: it keeps more counts at 0
        for j in range(len(groups) - 1, i - 1, -1):
            for take in range(1, min(left, len(groups[j])) + 1):
                if room[j + 1] >= left - take:
                    for rest in pick(j + 1, left - take):
                        yield groups[j][:take] + rest

    return pick(0, need)


def realize_degree_sequence_planar(seq: Sequence[int], budget: float = 30.0) -> RealizeResult:
    """Find a planar graph with the given degree sequence, or prove none exists.

    `budget` is a wall-clock allowance in seconds (math.inf for unlimited).
    NaN or a negative budget, a negative degree and an odd degree sum
    raise ValueError. Returns a RealizeResult whose status is "found"
    (graph attached), "exhausted" (no planar realization exists), or
    "timed-out".
    """
    if not budget >= 0:
        raise ValueError(f"budget must be nonnegative seconds, got {budget}")
    rem = sorted(seq, reverse=True)
    if rem and rem[-1] < 0:
        raise ValueError("degrees must be non-negative")
    if sum(rem) % 2 != 0:
        raise ValueError("degree sum must be even")
    n = len(rem)
    deadline = time.monotonic() + budget
    masks = [0] * n
    if n == 0:
        return RealizeResult("found", Graph(0, ()))
    if not _residual_feasible(rem):
        return RealizeResult("exhausted", None)

    def search() -> Graph | None:
        if time.monotonic() > deadline:
            raise _Deadline
        pivot = max(range(n), key=lambda v: rem[v])
        need = rem[pivot]
        if need == 0:
            g = from_masks(n, masks)
            if not is_planar(g).verdict:
                raise AssertionError("realized graph is not planar")
            return g
        # the pivot's neighbors are earlier pivots, whose demand is 0
        cands = [u for u in range(n) if u != pivot and rem[u] > 0]
        grouped: dict[tuple[int, int], list[int]] = {}
        for u in cands:
            grouped.setdefault((rem[u], masks[u]), []).append(u)
        groups = [sorted(members) for _, members in sorted(grouped.items())]
        for chosen in _group_selections(groups, need):
            if time.monotonic() > deadline:
                raise _Deadline
            for u in chosen:
                masks[pivot] |= 1 << u
                masks[u] |= 1 << pivot
                rem[u] -= 1
            rem[pivot] = 0
            if _residual_feasible(rem) and _decide(n, masks):
                result = search()
                if result is not None:
                    return result
            rem[pivot] = need
            for u in chosen:
                masks[pivot] &= ~(1 << u)
                masks[u] &= ~(1 << pivot)
                rem[u] += 1
        return None

    try:
        found = search()
    except _Deadline:
        return RealizeResult("timed-out", None)
    if found is None:
        return RealizeResult("exhausted", None)
    return RealizeResult("found", found)
