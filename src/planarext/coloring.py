"""Proper edge colorings: constructive Δ+1 coloring and an exact solver.

vizing_color implements the fan-rotation method (Misra & Gries, "A
constructive proof of Vizing's theorem", IPL 41, 1992): extend a maximal
fan from one endpoint of the uncolored edge, invert an alternating
two-color path to free a shared color, then rotate a fan prefix. It
always lands within Δ+1 colors. chromatic_index_exact settles Δ vs Δ+1
for small instances by branch and bound, and partition_bound_check
applies the edge-count certificate: more than Δ·ν edges cannot be
partitioned into Δ matchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import Graph, max_degree
from .matching import matching_number


class InstanceTooLargeError(ValueError):
    """Raised when the exact solver's search budget would be exceeded."""


@dataclass(frozen=True)
class EdgeColoring:
    """A validated proper edge coloring of every edge of the host."""

    host: Graph
    color_of: dict[tuple[int, int], int]
    palette_size: int

    def __post_init__(self) -> None:
        edges = self.host.edges()
        if set(self.color_of) != set(edges):
            raise ValueError("coloring must cover exactly the host's edges")
        for (u, v), c in self.color_of.items():
            if not 0 <= c < self.palette_size:
                raise ValueError(f"color {c} for edge ({u}, {v}) outside palette")
        at: dict[int, set[int]] = {}
        for (u, v), c in self.color_of.items():
            for x in (u, v):
                if c in at.setdefault(x, set()):
                    raise ValueError(f"color {c} repeated at vertex {x}")
                at[x].add(c)


def vizing_color(g: Graph) -> EdgeColoring:
    """Proper edge coloring with at most Δ+1 colors (exactly Δ colors often)."""
    delta = max_degree(g)
    color: dict[tuple[int, int], int] = {}
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]  # vertex -> color -> mate

    def free(v: int) -> int:
        c = 0
        while c in at[v]:
            c += 1
        return c

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def assign(a: int, b: int, c: int) -> None:  # callers uncolor the edge first
        color[key(a, b)] = c
        at[a][c] = b
        at[b][c] = a

    for u, v in g.edges():
        # maximal fan of u starting at v: each step takes the first of u's
        # colored edges, in row order, whose color is free at the fan's end
        rest = [(color[key(u, w)], w) for w in g.adj[u] if key(u, w) in color]
        fan = [v]
        while True:
            for i, (cw, _) in enumerate(rest):
                if cw not in at[fan[-1]]:
                    fan.append(rest.pop(i)[1])
                    break
            else:
                break
        c = free(u)
        d = free(fan[-1])
        # walk the alternating c/d path from u, then flip it
        path: list[tuple[int, int, int]] = []
        x, col = u, d
        while col in at[x]:
            w = at[x][col]
            path.append((x, w, col))
            x, col = w, (c if col == d else d)
        for a, b, old in path:
            del at[a][old]
            del at[b][old]
            del color[key(a, b)]
        for a, b, old in path:
            assign(a, b, c if old == d else d)
        if d in at[u]:
            raise AssertionError(f"color {d} still used at {u} after the path flip")
        # first fan vertex where d is free; the flip leaves the fan up to it a fan
        j = None
        for i, w in enumerate(fan):
            if d not in at[w]:
                j = i
                break
        if j is None:
            raise AssertionError("fan rotation target must exist")
        shift = [color[key(u, fan[i + 1])] for i in range(j)]
        for i in range(j):
            # uncolor before reassigning; shifting in place would clobber at[u]
            del color[key(u, fan[i + 1])]
            del at[u][shift[i]]
            del at[fan[i + 1]][shift[i]]
        for i in range(j):
            assign(u, fan[i], shift[i])
        assign(u, fan[j], d)

    palette = max(color.values(), default=-1) + 1
    if palette > delta + 1:
        raise AssertionError(f"{palette} colors exceed Δ+1 = {delta + 1}")
    return EdgeColoring(g, color, palette)


def chromatic_index_exact(g: Graph) -> int:
    """Exact chromatic index (Δ or Δ+1) by branch and bound; |E| <= 40 only."""
    if g.m == 0:
        return 0
    if g.m > 40:
        raise InstanceTooLargeError(f"exact solver limited to 40 edges, got {g.m}")
    delta = max_degree(g)
    edges = sorted(g.edges(), key=lambda e: -(g.degree(e[0]) + g.degree(e[1])))
    conflicts: list[list[int]] = []
    for i, (u, v) in enumerate(edges):
        conflicts.append(
            [j for j in range(i) if edges[j][0] in (u, v) or edges[j][1] in (u, v)]
        )

    def colorable(k: int) -> bool:
        assigned = [-1] * len(edges)

        def place(i: int, used_max: int) -> bool:
            if i == len(edges):
                return True
            banned = {assigned[j] for j in conflicts[i]}
            # allowing at most one fresh color kills color-permutation symmetry
            for c in range(min(used_max + 2, k)):
                if c not in banned:
                    assigned[i] = c
                    if place(i + 1, max(used_max, c)):
                        return True
                    assigned[i] = -1
            return False

        assigned[0] = 0
        return place(1, 0)

    if colorable(delta):
        return delta
    if vizing_color(g).palette_size > delta + 1:
        raise AssertionError(f"vizing_color exceeds Δ+1 = {delta + 1} colors")
    return delta + 1


class PartitionBound(NamedTuple):
    threshold: int
    exceeds: bool


def partition_bound_check(g: Graph) -> PartitionBound:
    """(threshold, exceeds): exceeding Δ·ν edges certifies chromatic index Δ+1.

    A proper Δ-coloring would partition the edges into Δ matchings of
    size at most ν each, so |E| > Δ·ν rules it out.
    """
    threshold = max_degree(g) * matching_number(g)
    return PartitionBound(threshold, g.m > threshold)
