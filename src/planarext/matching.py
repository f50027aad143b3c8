"""Maximum matching via blossom contraction; factor-criticality from one search.

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

from .graphs import Graph


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

    search = _searcher(adj, match)[0]
    for v in roots:
        if match[v] == -1:
            search(v)
    return match


def _searcher(adj, match: list[int]):
    """search(root), which augments match from the exposed root if it can,
    and p: its labels, reset when the next search starts, so v ≠ root is even
    iff p[match[v]] != -1 after a failed search too. A contracted blossom's
    vertices are linked in the union-find up, whose roots are the blossom bases.
    """
    up = list(range(len(adj)))
    p = [-1] * len(adj)
    touched: list[int] = []

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

    def search(root: int) -> bool:
        for i in touched:
            p[i] = -1
            up[i] = i
        touched[:] = [root]
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

    return search, p


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

    By Gallai's lemma, iff g is connected and each vertex is missed by some
    maximum matching: one misses exactly one vertex r, and the failed search
    from r, which stays in r's component, labels every vertex even.
    """
    match = _mate_array(g)
    exposed = [v for v in range(g.n) if match[v] == -1]
    if len(exposed) != 1:
        return False
    search, p = _searcher(g.adj, match)
    search(exposed[0])
    return all(v == exposed[0] or p[match[v]] != -1 for v in range(g.n))
