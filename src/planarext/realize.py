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
    its first selection, so the selections are not listed up front. Each
    step grows the last count that can grow while the counts after it
    give one up, and refills those from the right: the smallest tail.
    """
    counts = [0] * len(groups)
    p, left = -1, need
    while True:
        for j in range(len(groups) - 1, p, -1):
            counts[j] = min(left, len(groups[j]))
            left -= counts[j]
        if left:  # more than all the groups hold
            return
        yield [v for j, c in enumerate(counts) if c for v in groups[j][:c]]
        for p in range(len(groups) - 1, -1, -1):
            if left and counts[p] < len(groups[p]):
                break
            left += counts[p]
        else:
            return
        counts[p] += 1
        left -= 1


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

    # one frame per saturated pivot: [pivot, need, selections, chosen],
    # chosen being the selection last applied at that pivot
    stack: list[list] = []
    descend = True
    while True:
        if time.monotonic() > deadline:
            return RealizeResult("timed-out", None)
        if descend:
            pivot = max(range(n), key=lambda v: rem[v])
            need = rem[pivot]
            if need == 0:
                g = from_masks(n, masks)
                if not is_planar(g).verdict:
                    raise AssertionError("realized graph is not planar")
                return RealizeResult("found", g)
            # the pivot's neighbors are earlier pivots, whose demand is 0
            grouped: dict[tuple[int, int], list[int]] = {}
            for u in range(n):
                if u != pivot and rem[u] > 0:
                    grouped.setdefault((rem[u], masks[u]), []).append(u)
            groups = [grouped[key] for key in sorted(grouped)]
            stack.append([pivot, need, _group_selections(groups, need), None])
        pivot, need, selections, chosen = frame = stack[-1]
        if chosen is not None:
            # it failed here or in the frames above it: take it back
            rem[pivot] = need
            for u in chosen:
                masks[pivot] &= ~(1 << u)
                masks[u] &= ~(1 << pivot)
                rem[u] += 1
        frame[3] = chosen = next(selections, None)
        if chosen is None:
            stack.pop()
            if not stack:
                return RealizeResult("exhausted", None)
            descend = False
            continue
        for u in chosen:
            masks[pivot] |= 1 << u
            masks[u] |= 1 << pivot
            rem[u] -= 1
        rem[pivot] = 0
        descend = _residual_feasible(rem) and _decide(n, masks)
