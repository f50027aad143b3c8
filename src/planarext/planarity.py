"""Planarity testing with certificates on both sides of the verdict.

The decision procedure is the left-right test (orient by DFS, then check
that back edges can be two-sided consistently via a stack of conflict
pairs). Planar graphs additionally get a rotation-system embedding out of
the signed nesting order; non-planar graphs get a witness edge set that
is an edge-minimal non-planar subgraph, hence a subdivision of K5 or
K3,3, which classify_kuratowski verifies by suppressing degree-2 vertices.

Disconnected input is handled per component. Graphs with at most two
vertices are planar by definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .canon import canonical_form
from .graphs import Graph, bits, build_graph, component_counts


@dataclass(frozen=True)
class PlanarityResult:
    verdict: bool
    embedding: tuple[tuple[int, ...], ...] | None
    witness: tuple[tuple[int, int], ...] | None


def euler_reject(g: Graph) -> bool:
    """Quick edge-count rejection: true means definitely non-planar."""
    return g.n >= 3 and g.m > 3 * g.n - 6


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)


class _ConflictPair:
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


class _LRTest:
    """One run of the left-right test over a whole (possibly disconnected) graph."""

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = adj
        self.height: list[int | None] = [None] * n
        self.parent_edge: list[tuple[int, int] | None] = [None] * n
        self.out_edges: list[list[int]] = [[] for _ in range(n)]
        self.roots: list[int] = []
        self.lowpt: dict[tuple[int, int], int] = {}
        self.lowpt2: dict[tuple[int, int], int] = {}
        self.nesting_depth: dict[tuple[int, int], int] = {}
        self.ordered_adjs: list[list[int]] = [[] for _ in range(n)]
        # testing state
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict[tuple[int, int], _ConflictPair | None] = {}
        self.lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}
        self.ref: dict[tuple[int, int], tuple[int, int] | None] = {}
        self.side: dict[tuple[int, int], int] = {}

    # ---- phase 1: orientation ----

    def _update_parent_lowpts(self, ep, ec) -> None:
        if self.lowpt[ec] < self.lowpt[ep]:
            self.lowpt2[ep] = min(self.lowpt[ep], self.lowpt2[ec])
            self.lowpt[ep] = self.lowpt[ec]
        elif self.lowpt[ec] > self.lowpt[ep]:
            self.lowpt2[ep] = min(self.lowpt2[ep], self.lowpt[ec])
        else:
            self.lowpt2[ep] = min(self.lowpt2[ep], self.lowpt2[ec])

    def _set_nesting(self, e) -> None:
        self.nesting_depth[e] = 2 * self.lowpt[e]
        if self.lowpt2[e] < self.height[e[0]]:
            # chordal edges nest one level deeper
            self.nesting_depth[e] += 1

    def orient(self) -> None:
        oriented: set[tuple[int, int]] = set()
        for root in range(self.n):
            if self.height[root] is not None:
                continue
            self.roots.append(root)
            self.height[root] = 0
            stack = [(root, 0)]
            while stack:
                v, i = stack[-1]
                if i == len(self.adj[v]):
                    stack.pop()
                    e = self.parent_edge[v]
                    if e is not None:
                        self._set_nesting(e)
                        pe = self.parent_edge[e[0]]
                        if pe is not None:
                            self._update_parent_lowpts(pe, e)
                    continue
                stack[-1] = (v, i + 1)
                w = self.adj[v][i]
                if (v, w) in oriented or (w, v) in oriented:
                    continue
                e = (v, w)
                oriented.add(e)
                self.out_edges[v].append(w)
                self.lowpt[e] = self.height[v]
                self.lowpt2[e] = self.height[v]
                if self.height[w] is None:
                    self.parent_edge[w] = e
                    self.height[w] = self.height[v] + 1
                    stack.append((w, 0))
                else:
                    self.lowpt[e] = self.height[w]
                    self._set_nesting(e)
                    pe = self.parent_edge[v]
                    if pe is not None:
                        self._update_parent_lowpts(pe, e)
        for v in range(self.n):
            self.ordered_adjs[v] = sorted(
                self.out_edges[v], key=lambda w: self.nesting_depth[(v, w)]
            )
            for w in self.out_edges[v]:
                self.side[(v, w)] = 1
                self.ref[(v, w)] = None

    # ---- phase 2: testing ----

    def _lowest(self, p: _ConflictPair) -> int:
        assert not (p.left.empty() and p.right.empty())
        if p.left.empty():
            return self.lowpt[p.right.low]
        if p.right.empty():
            return self.lowpt[p.left.low]
        return min(self.lowpt[p.left.low], self.lowpt[p.right.low])

    def _conflicting(self, interval: _Interval, b) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def _add_constraints(self, ei, e) -> bool:
        p = _ConflictPair()
        # merge return edges of ei into p.right
        while True:
            q = self.S.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                return False
            if self.lowpt[q.right.low] > self.lowpt[e]:
                if p.right.empty():
                    p.right.high = q.right.high
                else:
                    self.ref[p.right.low] = q.right.high
                p.right.low = q.right.low
            else:
                # align with the parent's low return edge
                self.ref[q.right.low] = self.lowpt_edge[e]
            if (self.S[-1] if self.S else None) is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into p.left
        while self.S and (
            self._conflicting(self.S[-1].left, ei)
            or self._conflicting(self.S[-1].right, ei)
        ):
            q = self.S.pop()
            if self._conflicting(q.right, ei):
                q.swap()
            if self._conflicting(q.right, ei):
                return False
            if p.right.low is not None:
                self.ref[p.right.low] = q.right.high
            else:
                p.right.high = q.right.high
            if q.right.low is not None:
                p.right.low = q.right.low
            if p.left.empty():
                p.left.high = q.left.high
            else:
                self.ref[p.left.low] = q.left.high
            p.left.low = q.left.low
        if not (p.left.empty() and p.right.empty()):
            self.S.append(p)
        return True

    def _remove_back_edges(self, e) -> None:
        u = e[0]
        while self.S and self._lowest(self.S[-1]) == self.height[u]:
            p = self.S.pop()
            if p.left.low is not None:
                self.side[p.left.low] = -1
        if self.S:
            p = self.S.pop()
            while p.left.high is not None and p.left.high[1] == u:
                p.left.high = self.ref[p.left.high]
            if p.left.high is None and p.left.low is not None:
                self.ref[p.left.low] = p.right.low
                self.side[p.left.low] = -1
                p.left.low = None
            while p.right.high is not None and p.right.high[1] == u:
                p.right.high = self.ref[p.right.high]
            if p.right.high is None and p.right.low is not None:
                self.ref[p.right.low] = p.left.low
                self.side[p.right.low] = -1
                p.right.low = None
            self.S.append(p)
        if self.lowpt[e] < self.height[u]:
            # e has a return edge; its side follows the highest one left
            top = self.S[-1] if self.S else _ConflictPair()
            hl = top.left.high
            hr = top.right.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr

    _ENTER = 0
    _INTEGRATE = 1

    def test(self) -> bool:
        for root in self.roots:
            stack: list[tuple[int, int, int]] = [(self._ENTER, root, 0)]
            while stack:
                tag, v, i = stack.pop()
                if tag == self._ENTER:
                    if i == len(self.ordered_adjs[v]):
                        e = self.parent_edge[v]
                        if e is not None:
                            self._remove_back_edges(e)
                        continue
                    w = self.ordered_adjs[v][i]
                    ei = (v, w)
                    self.stack_bottom[ei] = self.S[-1] if self.S else None
                    stack.append((self._ENTER, v, i + 1))
                    stack.append((self._INTEGRATE, v, i))
                    if self.parent_edge[w] == ei:
                        stack.append((self._ENTER, w, 0))
                    else:
                        self.lowpt_edge[ei] = ei
                        self.S.append(_ConflictPair(right=_Interval(ei, ei)))
                else:
                    w = self.ordered_adjs[v][i]
                    ei = (v, w)
                    if self.lowpt[ei] < self.height[v]:
                        e = self.parent_edge[v]
                        if i == 0:
                            self.lowpt_edge[e] = self.lowpt_edge[ei]
                        elif not self._add_constraints(ei, e):
                            return False
        return True

    # ---- phase 3: embedding ----

    def _resolved_side(self, e) -> int:
        chain = []
        cur = e
        while self.ref[cur] is not None:
            chain.append(cur)
            cur = self.ref[cur]
        sign = self.side[cur]
        for edge in reversed(chain):
            self.side[edge] *= sign
            self.ref[edge] = None
            sign = self.side[edge]
        return self.side[e]

    def embed(self) -> tuple[tuple[int, ...], ...]:
        for v in range(self.n):
            for w in self.out_edges[v]:
                self._resolved_side((v, w))
            self.ordered_adjs[v] = sorted(
                self.out_edges[v],
                key=lambda w: self.nesting_depth[(v, w)] * self.side[(v, w)],
            )
        rotation: list[list[int]] = [[] for _ in range(self.n)]
        left_ref: dict[int, int] = {}
        right_ref: dict[int, int] = {}
        for root in self.roots:
            stack = [(root, 0)]
            while stack:
                v, i = stack[-1]
                if i == len(self.ordered_adjs[v]):
                    stack.pop()
                    continue
                stack[-1] = (v, i + 1)
                w = self.ordered_adjs[v][i]
                ei = (v, w)
                rotation[v].append(w)
                if self.parent_edge[w] == ei:
                    rotation[w].insert(0, v)
                    left_ref[v] = w
                    right_ref[v] = w
                    stack.append((w, 0))
                elif self.side[ei] == 1:
                    pos = rotation[w].index(right_ref[w])
                    rotation[w].insert(pos + 1, v)
                else:
                    pos = rotation[w].index(left_ref[w])
                    rotation[w].insert(pos, v)
                    left_ref[w] = v
        return tuple(tuple(row) for row in rotation)


def _decide(n: int, masks: Sequence[int]) -> bool:
    """Planarity verdict only, no certificates, from adjacency bitmasks.

    masks[v] has bit w set iff v~w; only the first n entries are read.
    A subdivision of K3,3 needs 6 branch vertices of degree >= 3 and one
    of K5 needs 5 of degree >= 4, so with fewer of either the graph is
    planar by Kuratowski's theorem and the LR test is skipped.
    """
    if n <= 2:
        return True
    degs = [masks[v].bit_count() for v in range(n)]
    if sum(d >= 3 for d in degs) < 6 and sum(d >= 4 for d in degs) < 5:
        return True
    if sum(degs) // 2 > 3 * n - 6:
        return False
    lr = _LRTest(n, [bits(masks[v]) for v in range(n)])
    lr.orient()
    return lr.test()


def _minimize_witness(g: Graph) -> tuple[tuple[int, int], ...]:
    """Shrink a non-planar graph to an edge-minimal non-planar subgraph.

    One pass suffices: once removing an edge would restore planarity, that
    stays true as further edges are removed (subgraphs of planar graphs
    are planar), so every kept edge remains critical.
    """
    masks = list(g.masks)
    kept = []
    for u, v in g.edges():
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        if _decide(g.n, masks):
            # this edge is critical: put it back for good
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
            kept.append((u, v))
    return tuple(kept)


def classify_kuratowski(n: int, witness: tuple[tuple[int, int], ...]) -> str:
    """Suppress degree-2 vertices of a witness; expect exactly K5 or K3,3.

    Returns "K5" or "K33"; raises ValueError when the edge set is not a
    subdivision of either, so a bogus witness can never pass silently.
    """
    deg: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for u, v in witness:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    branch = sorted(v for v, d in deg.items() if d >= 3)
    if any(d < 2 for d in deg.values()) or not branch:
        raise ValueError("witness is not a Kuratowski subdivision")
    pair_count: dict[tuple[int, int], int] = {}
    for b in branch:
        for start in adj[b]:
            prev, cur = b, start
            while deg[cur] == 2:
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                prev, cur = cur, nxt
            if cur == b:
                raise ValueError("witness is not a Kuratowski subdivision")
            key = (min(b, cur), max(b, cur))
            pair_count[key] = pair_count.get(key, 0) + 1
    # each branch-to-branch path is traversed once from each end
    if any(c != 2 for c in pair_count.values()):
        raise ValueError("witness is not a Kuratowski subdivision")
    index = {v: i for i, v in enumerate(branch)}
    core = build_graph(len(branch), [(index[a], index[b]) for a, b in pair_count])
    if 2 * core.m != sum(deg[v] for v in branch):
        # some branch vertex has extra paths not accounted for
        raise ValueError("witness is not a Kuratowski subdivision")
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    k33 = build_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    form = canonical_form(core)
    if form == canonical_form(k5):
        return "K5"
    if form == canonical_form(k33):
        return "K33"
    raise ValueError("witness is not a Kuratowski subdivision")


def face_count(g: Graph, embedding: tuple[tuple[int, ...], ...]) -> int:
    """Number of faces of the plane drawing described by the rotation system.

    Components are drawn side by side sharing one outer face, so the count
    is the per-component face total minus (components - 1). The empty
    graph has one face, the whole plane.
    """
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v in range(g.n):
        rot = embedding[v]
        k = len(rot)
        for idx, u in enumerate(rot):
            succ[(u, v)] = (v, rot[(idx + 1) % k])
    faces = 0
    seen: set[tuple[int, int]] = set()
    for dart in succ:
        if dart in seen:
            continue
        faces += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
    if g.n == 0:
        return 1
    components, edgeless = component_counts(g)
    # edgeless components still bound one face each
    return faces + edgeless - (components - 1)


def euler_identity_holds(g: Graph, embedding: tuple[tuple[int, ...], ...]) -> bool:
    """n - m + f == 1 + c for the traced face count f and c components."""
    c = component_counts(g)[0]
    return g.n - g.m + face_count(g, embedding) == 1 + c


def is_planar(g: Graph) -> PlanarityResult:
    """Full planarity test: embedding when planar, Kuratowski witness when not."""
    if g.n <= 2:
        return PlanarityResult(True, tuple(tuple(row) for row in g.adj), None)
    planar = not euler_reject(g)
    lr = None
    if planar:
        lr = _LRTest(g.n, g.adj)
        lr.orient()
        planar = lr.test()
    if not planar:
        witness = _minimize_witness(g)
        if classify_kuratowski(g.n, witness) not in ("K5", "K33"):
            raise AssertionError("non-planar witness is not a Kuratowski subdivision")
        return PlanarityResult(False, None, witness)
    embedding = lr.embed()
    if not euler_identity_holds(g, embedding):
        raise AssertionError("planar embedding fails Euler's formula")
    return PlanarityResult(True, embedding, None)


def is_outerplanar(g: Graph) -> bool:
    """True when g embeds with every vertex on the outer face.

    Equivalent formulation used here: g plus a universal apex is planar.
    """
    apex = 1 << g.n
    return _decide(g.n + 1, [m | apex for m in g.masks] + [apex - 1])
