"""Maximum matching via blossom contraction, plus factor-criticality.

The search grows an alternating BFS tree from each exposed vertex. Odd
cycles found along the way are contracted by linking the cycle's
vertices to a common base in a union-find (Tarjan, "Data Structures and
Network Algorithms", 1983, ch. 9), so augmenting paths through blossoms
are found without ever materialising the contracted graph. A greedy matching seeds
the search to keep the number of augmentation phases small. A maximum
matching of the graph less its last vertex, where the caller has one,
is a better seed: one search from that vertex then settles the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, induced_subgraph


@dataclass(frozen=True)
class Matching:
    """A validated matching: vertex-disjoint edges of the host graph."""

    host: Graph
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for u, v in self.pairs:
            if not (0 <= u < v < self.host.n):
                raise ValueError(f"bad matching pair ({u}, {v})")
            if not self.host.has_edge(u, v):
                raise ValueError(f"pair ({u}, {v}) is not an edge of the host")
            if u in seen or v in seen:
                raise ValueError(f"pair ({u}, {v}) reuses a matched vertex")
            seen.add(u)
            seen.add(v)

    @property
    def size(self) -> int:
        return len(self.pairs)


def _mate_array(g: Graph, seed: list[int] | None = None) -> list[int]:
    """A maximum matching of g: match[v] is v's mate, or -1 when v is exposed.

    Without a seed, every vertex is a root: a greedy matching is grown by
    one search from each root left exposed. A seed is a maximum matching
    of g less its last vertex z, as such a mate array, and is not changed.
    An augmenting path for it that missed z would augment it in g - z, so
    every such path ends at z, and z is the one root (Edmonds, "Paths,
    trees, and flowers", 1965).
    """
    n = g.n
    adj = g.adj
    if seed is None:
        match = [-1] * n
        roots = range(n)
    else:
        match = [*seed, -1]
        roots = range(n - 1, n)
    for v in roots:
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    if -1 not in [match[v] for v in roots]:
        return match

    # search state, kept between searches: each search records the vertices
    # it touches and resets only those. A contracted blossom's vertices are
    # linked in the union-find up, whose roots are the blossom bases
    up = list(range(n))
    p = [-1] * n

    def base(v: int) -> int:
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    def lca(a: int, b: int) -> int:
        path = set()
        while True:
            a = base(a)
            path.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base(b)
            if b in path:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, q: deque[int]) -> None:
        # v is even. Linking base(v) rather than v would end the walk at an
        # inner blossom's base before it set that blossom's p links. A mate
        # that is its own base is odd, and the blossom makes it even
        while base(v) != b:
            p[v] = child
            child = match[v]
            if up[v] == v:
                up[v] = b
            if up[child] == child:
                up[child] = b
                q.append(child)
            v = p[child]

    def find_augmenting_path(root: int, touched: list[int]) -> bool:
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if match[v] == to or base(v) == base(to):
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom to its base
                    curbase = lca(v, to)
                    mark_path(v, curbase, to, q)
                    mark_path(to, curbase, v, q)
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        # found an exposed vertex: augment along the path
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    touched.append(match[to])
                    q.append(match[to])
        return False

    for v in roots:
        if match[v] == -1:
            touched = [v]
            find_augmenting_path(v, touched)
            for i in touched:
                p[i] = -1
                up[i] = i
    return match


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of g, packaged with its validation."""
    match = _mate_array(g)
    pairs = tuple(
        sorted((v, match[v]) for v in range(g.n) if match[v] > v)
    )
    return Matching(g, pairs)


def matching_number(g: Graph) -> int:
    match = _mate_array(g)
    return sum(1 for v in range(g.n) if match[v] != -1) // 2


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and matching_number(g) * 2 == g.n


def is_factor_critical(g: Graph) -> bool:
    """True when deleting any single vertex leaves a perfectly matchable graph.

    The one-vertex graph is factor-critical; no even-order graph is.
    """
    if g.n == 0 or g.n % 2 == 0:
        return False
    return all(
        has_perfect_matching(induced_subgraph(g, [u for u in range(g.n) if u != v]))
        for v in range(g.n)
    )
