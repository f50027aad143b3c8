"""Immutable simple-graph type and basic structural operations.

Vertices are always 0..n-1. Adjacency is stored as sorted tuples, so two
Graph values compare equal exactly when they are the same labeled graph.
All operations return new graphs; nothing here mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Invariants (checked on construction): adjacency is a tuple of
    strictly ascending tuples, with no self-loops, and is symmetric.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(adj, tuple):
            raise ValueError("adjacency is not a tuple")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        # symmetry in the same pass: the rows listing w > v come in ascending
        # v, so each v must be the next unread entry of adj[w]
        read = [0] * n
        for v, row in enumerate(adj):
            if not isinstance(row, tuple):
                raise ValueError(f"adjacency of {v} is not a tuple")
            prev = -1
            for w in row:
                if w <= prev:
                    raise ValueError(f"adjacency of {v} is not strictly ascending")
                prev = w
                if w == v:
                    raise ValueError(f"self-loop at {v}")
                if not 0 <= w < n:
                    raise ValueError(f"label {w} out of range in adjacency of {v}")
                if w > v:
                    i = read[w]
                    if i < len(adj[w]) and adj[w][i] == v:
                        read[w] = i + 1
        # a match pairs a listing above the diagonal with a distinct one
        # below it, so matching half of all listings pairs them all
        if 2 * sum(read) != sum(map(len, adj)):
            # name the first unpaired listing in row order
            v, w = next((v, w) for v, row in enumerate(adj) for w in row if v not in adj[w])
            raise ValueError(f"edge ({v},{w}) is not symmetric")

    @cached_property
    def m(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, w) for v in range(self.n) for w in self.adj[v] if v < w)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse silently."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    rows: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has a label out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        rows[u].add(v)
        rows[v].add(u)
    return Graph(n, tuple(tuple(sorted(r)) for r in rows))


def _bits_table(width: int) -> tuple[tuple[int, ...], ...]:
    """The set bits of every mask below 2**width, built by doubling.

    The masks with bit i set follow those without, each with i appended.
    """
    table: tuple[tuple[int, ...], ...] = ((),)
    for i in range(width):
        table += tuple(t + (i,) for t in table)
    return table


_BITS_TABLE = _bits_table(10)


def bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of mask, ascending.

    A mask below 2**10 is read from a table: every graph the enumeration
    builds has at most ten vertices (its budget), so every mask on that
    route is one lookup. Larger masks take the bit loop.
    """
    if mask < 1024:
        return _BITS_TABLE[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def from_masks(n: int, masks: Sequence[int]) -> Graph:
    """Graph from adjacency bitmasks; the Graph constructor checks symmetry."""
    return Graph(n, tuple(bits(masks[v]) for v in range(n)))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union, relabeling each argument's vertices by a running offset."""
    total = sum(g.n for g in graphs)
    adj: list[tuple[int, ...]] = []
    offset = 0
    for g in graphs:
        for row in g.adj:
            adj.append(tuple(w + offset for w in row))
        offset += g.n
    return Graph(total, tuple(adj))


def complement(g: Graph) -> Graph:
    everyone = set(range(g.n))
    rows = (sorted(everyone.difference(row, (v,))) for v, row in enumerate(g.adj))
    return Graph(g.n, tuple(map(tuple, rows)))


def max_degree(g: Graph) -> int:
    """The maximum degree; the empty graph has maximum degree 0."""
    return max(g.degrees, default=0)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph on the given vertices, relabeled 0..k-1 in list order."""
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertex in selection")
    adj = tuple(tuple(sorted(index[w] for w in g.adj[v] if w in index)) for v in vertices)
    return Graph(len(vertices), adj)


def _relabelled(adj: tuple[tuple[int, ...], ...]) -> Iterator[tuple[list[int], tuple]]:
    """Each component's vertices, ascending, and its rows relabelled 0..k-1,
    by smallest vertex: one flood each, its list growing as it reaches more."""
    seen = [False] * len(adj)
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        if comp[-1] - s < len(comp):  # contiguous labels: a shift, or none from 0
            rows = adj[s : s + len(comp)]
            yield comp, tuple(tuple([w - s for w in row]) for row in rows) if s else rows
        else:
            index = {v: i for i, v in enumerate(comp)}
            yield comp, tuple(tuple([index[w] for w in adj[v]]) for v in comp)


def connected_components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components as (induced graph, original labels) pairs.

    Labels are ascending inside each component and components are ordered
    by their smallest original vertex, so the output is deterministic.
    """
    return [(Graph(len(rows), rows), tuple(comp)) for comp, rows in _relabelled(g.adj)]


def is_connected(g: Graph) -> bool:
    """True when one flood from vertex 0 reaches every vertex."""
    return g.n <= 1 or len(next(_relabelled(g.adj))[0]) == g.n
