"""Planarity testing with certificates on both sides of the verdict.

The verdict comes from the left-right test alone (orient by DFS, then
check that back edges can be two-sided consistently via a stack of
conflict pairs). Planar graphs additionally get a rotation-system
embedding out of the signed nesting order; non-planar graphs get a
witness edge set that is an edge-minimal non-planar subgraph, hence a
subdivision of K5 or K3,3, which classify_kuratowski verifies by walking
its branch paths. The witness pass decides a whole run of edges at once.

Disconnected input is handled per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, _relabelled, bits


@dataclass(frozen=True)
class PlanarityResult:
    verdict: bool
    embedding: tuple[tuple[int, ...], ...] | None
    witness: tuple[tuple[int, int], ...] | None


def _merge_lowpts(lowpt: list[int], lowpt2: list[int], ep: int, ec: int) -> None:
    """Fold the low points of edge ec into those of its parent edge ep."""
    lc, lp = lowpt[ec], lowpt[ep]
    if lc < lp:
        lowpt2[ep] = min(lp, lowpt2[ec])
        lowpt[ep] = lc
    elif lc > lp:
        lowpt2[ep] = min(lowpt2[ep], lc)
    else:
        lowpt2[ep] = min(lowpt2[ep], lowpt2[ec])


class _LRTest:
    """One run of the left-right test over a whole (possibly disconnected) graph.

    Edges are numbered in the order the DFS orients them, and every
    per-edge quantity is a list indexed by that id; -1 stands for "no
    edge" and -1 in height for "not visited". A conflict pair is a list
    [left.low, left.high, right.low, right.high] of edge ids, and an
    interval is empty when its low (equivalently its high) is -1.
    """

    def __init__(self, n: int, adj):
        """Phase 1, orientation: DFS, low points and the nesting order."""
        self.n = n
        m = sum(map(len, adj)) // 2
        self.height = height = [-1] * n
        self.parent_edge = parent_edge = [-1] * n
        self.out_edges = out_edges = [[] for _ in range(n)]
        self.roots: list[int] = []
        self.src = src = [0] * m
        self.dst = dst = [0] * m
        self.lowpt = lowpt = [0] * m
        lowpt2 = [0] * m
        self.nesting_depth = nesting = [0] * m
        e = 0
        for root in range(n):
            if height[root] >= 0:
                continue
            self.roots.append(root)
            height[root] = 0
            stack = [(root, iter(adj[root]))]
            while stack:
                v, row = stack[-1]
                hv = height[v]
                ep = parent_edge[v]
                for w in row:
                    hw = height[w]
                    if hw >= 0 and hw >= hv - 1:
                        # w is v's tree parent or a finished descendant,
                        # so the edge was oriented from w's side already
                        continue
                    src[e] = v
                    dst[e] = w
                    out_edges[v].append(e)
                    lowpt2[e] = hv
                    if hw < 0:
                        lowpt[e] = hv
                        parent_edge[w] = e
                        height[w] = hv + 1
                        stack.append((w, iter(adj[w])))
                        e += 1
                        break
                    # back edge to the ancestor w
                    lowpt[e] = hw
                    nesting[e] = 2 * hw
                    if ep >= 0:
                        _merge_lowpts(lowpt, lowpt2, ep, e)
                    e += 1
                else:
                    stack.pop()
                    if ep < 0:
                        continue
                    u = src[ep]
                    # chordal edges nest one level deeper
                    nesting[ep] = 2 * lowpt[ep] + (lowpt2[ep] < height[u])
                    if parent_edge[u] >= 0:
                        _merge_lowpts(lowpt, lowpt2, parent_edge[u], ep)
        key = nesting.__getitem__
        self.ordered_adjs = [sorted(out, key=key) for out in out_edges]
        # testing state
        self.S: list[list[int]] = []
        self.stack_bottom: list[list[int] | None] = [None] * m
        self.lowpt_edge = [-1] * m
        self.ref = [-1] * m
        self.side = [1] * m

    # ---- phase 2: testing ----

    def _add_constraints(self, ei: int, e: int) -> bool:
        S, lowpt, ref = self.S, self.lowpt, self.ref
        p = [-1, -1, -1, -1]
        bottom = self.stack_bottom[ei]
        low_e = lowpt[e]
        # merge return edges of ei into p.right
        while True:
            q = S.pop()
            if q[0] >= 0:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[0] >= 0:
                    return False
            if lowpt[q[2]] > low_e:
                if p[2] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:
                # align with the parent's low return edge
                ref[q[2]] = self.lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge conflicting return edges of earlier siblings into p.left.
        # p.right is not empty when this loop pops (so ref[p[2]] is safe,
        # as in Brandes's pseudocode). By induction, a done child edge c
        # holds lowpt_edge[c] alone in its lowest pair, its only edge
        # returning to lowpt(c): later siblings on c's lowpt chain align
        # their own such edge and stop at that pair, which cannot conflict.
        # So alignment drops only lone edges, each tied to one at its
        # height, and an empty p.right means ei returns below v only to
        # lowpt(e). By the nesting order no earlier sibling is chordal
        # then: each left a lone pair at lowpt(e), which cannot conflict.
        low_ei = lowpt[ei]
        while S:
            q = S[-1]
            right_conflicts = q[3] >= 0 and lowpt[q[3]] > low_ei
            if not right_conflicts and not (q[1] >= 0 and lowpt[q[1]] > low_ei):
                break
            S.pop()
            if right_conflicts:
                if q[1] >= 0 and lowpt[q[1]] > low_ei:
                    return False
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p[0] >= 0 or p[2] >= 0:
            S.append(p)
        return True

    def _remove_back_edges(self, e: int) -> None:
        S, lowpt, ref, side = self.S, self.lowpt, self.ref, self.side
        u = self.src[e]
        hu = self.height[u]
        while S:
            p = S[-1]
            if p[0] < 0:
                if p[2] < 0:
                    raise AssertionError("empty conflict pair on S")
                lowest = lowpt[p[2]]
            elif p[2] < 0:
                lowest = lowpt[p[0]]
            else:
                lowest = min(lowpt[p[0]], lowpt[p[2]])
            if lowest != hu:
                break
            S.pop()
            if p[0] >= 0:
                side[p[0]] = -1
        if S:
            p = S[-1]
            dst = self.dst
            while p[1] >= 0 and dst[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] < 0 and p[0] >= 0:
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = -1
            while p[3] >= 0 and dst[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] < 0 and p[2] >= 0:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = -1
        if lowpt[e] < hu:
            # e has a return edge (S holds e's lowest pair); its side follows the highest one left
            hl, hr = S[-1][1], S[-1][3]
            if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    def test(self) -> bool:
        S, ordered, dst = self.S, self.ordered_adjs, self.dst
        height, parent_edge, lowpt = self.height, self.parent_edge, self.lowpt
        lowpt_edge, stack_bottom = self.lowpt_edge, self.stack_bottom
        for root in self.roots:
            # frames of (vertex, index of the tree edge being descended)
            stack: list[tuple[int, int]] = []
            v, i = root, 0
            while True:
                row = ordered[v]
                if i < len(row):
                    ei = row[i]
                    stack_bottom[ei] = S[-1] if S else None
                    w = dst[ei]
                    if parent_edge[w] == ei:
                        stack.append((v, i))
                        v, i = w, 0
                        continue
                    lowpt_edge[ei] = ei
                    S.append([-1, -1, ei, ei])
                else:
                    e = parent_edge[v]
                    if e >= 0:
                        self._remove_back_edges(e)
                    if not stack:
                        break
                    v, i = stack.pop()
                    ei = ordered[v][i]
                # integrate ei into the constraints of v's parent edge
                if lowpt[ei] < height[v]:
                    e = parent_edge[v]
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not self._add_constraints(ei, e):
                        return False
                i += 1
        return True

    # ---- phase 3: embedding ----

    def embed(self) -> tuple[tuple[int, ...], ...]:
        src, dst, side, ref = self.src, self.dst, self.side, self.ref
        nesting, parent_edge = self.nesting_depth, self.parent_edge
        for e in range(len(ref)):
            # resolve the sign of e along its ref chain, compressing it
            chain = []
            while ref[e] >= 0:
                chain.append(e)
                e = ref[e]
            for edge in reversed(chain):
                side[edge] *= side[e]
                ref[edge] = -1
                e = edge
        ordered = [sorted(out, key=lambda e: nesting[e] * side[e]) for out in self.out_edges]
        # a back edge lies beside the tree edge it returns through at its
        # head: on a stack left or right of that tree child
        through = [0] * self.n  # the tree child each vertex is descending into
        left: list[list[int]] = [[] for _ in range(self.n)]
        right: list[list[int]] = [[] for _ in range(self.n)]
        for root in self.roots:
            rows = [iter(ordered[root])]
            while rows:
                for ei in rows[-1]:
                    w = dst[ei]
                    if parent_edge[w] == ei:
                        through[src[ei]] = w
                        rows.append(iter(ordered[w]))
                        break
                    (right if side[ei] == 1 else left)[through[w]].append(src[ei])
                else:
                    rows.pop()
        # the parent first, then each out-edge in order, a tree child
        # between its left and right stacks, each read newest first
        rotation = []
        for v, out in enumerate(ordered):
            rot = [] if parent_edge[v] < 0 else [src[parent_edge[v]]]
            for ei in out:
                w = dst[ei]
                if parent_edge[w] == ei:
                    rot += [*reversed(left[w]), w, *reversed(right[w])]
                else:
                    rot.append(w)
            rotation.append(tuple(rot))
        return tuple(rotation)


def _few_branch_vertices(degs: list[int]) -> bool:
    """Kuratowski's degree count: a subdivision of K3,3 needs 6 branch
    vertices of degree >= 3 and one of K5 needs 5 of degree >= 4, so with
    fewer of either the graph is planar."""
    return sum(d >= 3 for d in degs) < 6 and sum(d >= 4 for d in degs) < 5


def _planar_rows(rows: Sequence[Sequence[int]]) -> bool:
    """Planarity verdict only, no certificates, from adjacency rows: the
    degree count, and the LR test for everything it leaves open."""
    return _few_branch_vertices(list(map(len, rows))) or _LRTest(len(rows), rows).test()


def _decide(n: int, masks: Sequence[int]) -> bool:
    """_planar_rows's verdict from adjacency bitmasks: masks[v] has bit w
    set iff v~w, and only the first n entries are read. Degrees come from
    bit counts, so rows are built only when the degree count leaves it open."""
    degs = [masks[v].bit_count() for v in range(n)]
    return _few_branch_vertices(degs) or _LRTest(n, [bits(masks[v]) for v in range(n)]).test()


def _minimize_witness(g: Graph) -> tuple[tuple[int, int], ...]:
    """Shrink a non-planar graph to an edge-minimal non-planar subgraph.

    One pass suffices: once removing an edge would restore planarity, that
    stays true as further edges are removed (subgraphs of planar graphs
    are planar), so every kept edge remains critical. A run of edges goes
    in one decision when the rest stays non-planar, and the next run is
    twice as long; a run that would restore planarity is halved. So the
    pass keeps exactly the edges an edge-by-edge pass keeps.
    """
    edges = g.edges()
    kept = []
    i, run = 0, 1
    while i < len(edges):
        # at edge i the graph is kept + edges[i:]; try it without edges[i : i + run]
        rows: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in (*kept, *edges[i + run :]):
            rows[u].append(v)
            rows[v].append(u)
        if not _planar_rows(rows):
            i += run
            run *= 2
        elif run > 1:
            # the run holds a critical edge: try half of it
            run //= 2
        else:
            kept.append(edges[i])
            i += 1
    return tuple(kept)


def classify_kuratowski(witness: tuple[tuple[int, int], ...]) -> str:
    """Walk each branch-to-branch path of a witness from both ends; expect K5 or K3,3.

    Branch vertices have degree >= 3. The walks from them must cover every
    witness edge twice, no two paths may join the same pair of branch
    vertices, and the pairs must be those of K5 or of K3,3. A loop is
    walked from both its ends and so repeats its pair, and a path to a
    leaf is walked from one end only. Returns "K5" or "K33"; raises
    ValueError otherwise, so a bogus witness can never pass silently.
    """
    adj: dict[int, list[int]] = {}
    for u, v in witness:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    ends: dict[int, set[int]] = {}
    walked = 0
    for b, row in adj.items():
        if len(row) < 3:
            continue
        ends[b] = set()
        for cur in row:
            prev = b
            walked += 1
            while len(adj[cur]) == 2:
                prev, cur = cur, adj[cur][adj[cur][0] == prev]
                walked += 1
            if cur in ends[b]:
                raise ValueError("witness is not a Kuratowski subdivision")
            ends[b].add(cur)
    # walks never share a directed edge, so this count means every edge
    # was walked once each way and no edge lies off the branch paths
    if walked == 2 * len(witness):
        degrees = sorted(map(len, ends.values()))
        if degrees == [4] * 5:
            return "K5"
        if degrees == [3] * 6:
            side = next(iter(ends.values()))
            if all((a in side) != (c in side) for a in ends for c in ends[a]):
                return "K33"
    raise ValueError("witness is not a Kuratowski subdivision")


def _trace_faces(g: Graph, embedding: tuple[tuple[int, ...], ...]) -> int:
    """Face orbits of the rotation system's darts, one per face of each
    component with edges. embedding[v] must order exactly v's neighbours,
    else ValueError."""
    if len(embedding) != g.n or any(tuple(sorted(r)) != row for r, row in zip(embedding, g.adj)):
        raise ValueError("embedding is not a rotation system of g")
    # v's darts, to embedding[v][0], embedding[v][1], ..., get consecutive ids
    dart: dict[tuple[int, int], int] = {}
    for v, rot in enumerate(embedding):
        for u in rot:
            dart[v, u] = len(dart)
    # g is symmetric, so every dart u -> v has its twin v -> u
    succ = [0] * len(dart)
    base = 0
    for v, rot in enumerate(embedding):
        k = len(rot)
        for i, u in enumerate(rot, 1):
            # a face turns from the dart u -> v onto the next dart around v
            succ[dart[u, v]] = base + i % k
        base += k
    faces = 0
    for start in range(len(succ)):
        if succ[start] >= 0:
            faces += 1
            cur = start
            while succ[cur] >= 0:  # -1 marks a traced dart
                succ[cur], cur = -1, succ[cur]
    return faces


def face_count(g: Graph, embedding: tuple[tuple[int, ...], ...]) -> int:
    """Number of faces of the plane drawing described by the rotation system.

    embedding[v] must order exactly v's neighbours, else ValueError.
    Components with edges are drawn side by side sharing one outer face,
    in which isolated vertices lie; the empty graph has one face.
    """
    return _trace_faces(g, embedding) + 1 - sum(len(comp) > 1 for comp, _ in _relabelled(g.adj))


def is_planar(g: Graph) -> PlanarityResult:
    """Full planarity test: embedding when planar, Kuratowski witness when not."""
    lr = _LRTest(g.n, g.adj)
    if not lr.test():
        witness = _minimize_witness(g)
        classify_kuratowski(witness)  # raises ValueError unless K5 or K3,3
        return PlanarityResult(False, None, witness)
    embedding = lr.embed()
    # n - m + f = 2 per LR root with edges; an isolated root adds 1 - 0 + 0
    if g.n - g.m + _trace_faces(g, embedding) != 2 * len(lr.roots) - g.adj.count(()):
        raise AssertionError("planar embedding fails Euler's formula")
    return PlanarityResult(True, embedding, None)


def is_outerplanar(g: Graph) -> bool:
    """True when g embeds with every vertex on the outer face.

    Equivalent formulation used here: g plus a universal apex is planar.
    """
    return _planar_rows([row + (g.n,) for row in g.adj] + [range(g.n)])
