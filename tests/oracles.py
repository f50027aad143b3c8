"""Independent reference implementations the tests check the package against.

Matchings are maximized by bare edge-subset recursion, planarity is
decided by exhaustive search for a forbidden subdivision (complete for
n <= 7, where a subdivision can use at most two extra vertices), and
isomorphism is settled by minimizing over all vertex permutations. The
set bits of a mask are listed one lowest bit at a time, automorphisms
are counted by a plain backtracking search over degree-preserving vertex
maps, the Graph constructor's checks validate every row before looking
each listing up in its partner's row, and the graph6 codec packs and
unpacks one bit at a time through Graph.has_edge and an edge list, with
the same validation and messages.

The reference designated-vertex rule of canonical augmentation decides
from the definition: a full articulation pass, the degree invariant of
every vertex and the maximum over all tied marked forms. The reference
child generator tries every neighbour subset, accepts by that rule,
drops isomorphic children by a full canonical form each and decides
planarity by the reference left-right test. That test is the package's
earlier kernel, keyed by (v, w) edge tuples and interval objects; the
array-indexed kernel must reproduce its verdicts, rotation systems and
witnesses, and it is the only fast planarity reference beyond n <= 7.

The other references are the package's earlier code: the mate array
contracts each blossom by rescanning every vertex its search touched;
factor-criticality deletes each vertex in turn and asks the rest for a
perfect matching;
the Vizing coloring restarts its scan of u's row at every fan step; the
face count walks a dict over all darts with a seen set; the Erdős–Gallai
residual check is quadratic and the group selections of realize an
eager list;
the certificate runs planarity and blossom once over the whole graph
instead of once per distinct component; the extremal families build
every component type, used or not, and learn the order only from the
finished union; the verdict solves a fresh knapsack for every mu it
checks for domination, against a component cap written out from the
rule in the oracle's docstring; and the Kuratowski classifier rebuilds
the core of a witness and compares its canonical form with those of K5
and K3,3. The component table's witnesses follow from the tie rule's
definition: all graphs enumerated at once, and per matching number the
smallest canonical form among those with the most edges.

Package functions a reference reuses, beyond the Graph type's own
accessors, each tested on its own:
canonical_form_masks for the marked forms of the designated-vertex rule
and the forms of the child generator; canonical_form in the Kuratowski
classifier; connected_components in the face count; is_planar,
matching_number, graph6_encode and max_edges_planar in the certificate;
induced_subgraph and has_perfect_matching in factor-criticality;
max_edges_planar, max_edges_general, build_graph, disjoint_union,
complete, k_prime, star and atlas in the extremal families; build_graph
in the graph6 decoder and the Kuratowski classifier; max_degree and
EdgeColoring in the Vizing coloring; component_table and
max_edges_planar in the verdict; and enumerate_connected,
matching_number, canonical_form and star in the component witnesses.
Nothing here imports a private package name.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations, permutations

from planarext import EdgeColoring, Graph
from planarext.bounds import max_edges_general, max_edges_planar
from planarext.canon import canonical_form, canonical_form_masks
from planarext.constructions import AtlasName, atlas, complete, k_prime, star
from planarext.enumeration import enumerate_connected
from planarext.graphs import (
    build_graph,
    connected_components,
    disjoint_union,
    induced_subgraph,
    max_degree,
)
from planarext.matching import has_perfect_matching, matching_number
from planarext.oracle import (
    ComponentRecord,
    FalsificationError,
    Verdict,
    component_table,
)
from planarext.planarity import is_planar
from planarext.serialize import CertificateReport, graph6_encode


def reference_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def masks_of(g: Graph) -> list[int]:
    """Adjacency rows of g as bitmasks: masks[v] has bit w set iff v~w."""
    return [sum(1 << w for w in row) for row in g.adj]


def reference_graph_check(n: int, adj) -> None:
    """The Graph constructor's checks as two passes, with the same messages.

    Every row is checked in order for ascent, self-loops and range, and
    then every listing w of row v is looked up in row w.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if len(adj) != n:
        raise ValueError("adjacency length does not match vertex count")
    for v, row in enumerate(adj):
        prev = -1
        for w in row:
            if w <= prev:
                raise ValueError(f"adjacency of {v} is not strictly ascending")
            prev = w
            if w == v:
                raise ValueError(f"self-loop at {v}")
            if not 0 <= w < n:
                raise ValueError(f"label {w} out of range in adjacency of {v}")
    for v, row in enumerate(adj):
        for w in row:
            if v not in adj[w]:
                raise ValueError(f"edge ({v},{w}) is not symmetric")


def brute_matching_number(g: Graph) -> int:
    edges = g.edges()

    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        score = best(i + 1, used)
        u, v = edges[i]
        if not used >> u & 1 and not used >> v & 1:
            score = max(score, 1 + best(i + 1, used | 1 << u | 1 << v))
        return score

    return best(0, 0)


def reference_mate_array(g: Graph, seed: list[int] | None = None) -> list[int]:
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
    # it touches and resets only those, and untouched vertices have
    # base[i] == i, so they never lie in a blossom
    base = list(range(n))
    p = [-1] * n
    used = [False] * n

    def lca(a: int, b: int) -> int:
        path = set()
        while True:
            a = base[a]
            path.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in path:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting_path(root: int, touched: list[int]) -> bool:
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom to its base
                    curbase = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    # ascending order, so the queue grows as in a full scan
                    for i in sorted(i for i in touched if base[i] in blossom):
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
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
                    used[match[to]] = True
                    touched.append(match[to])
                    q.append(match[to])
        return False

    for v in roots:
        if match[v] == -1:
            touched = [v]
            find_augmenting_path(v, touched)
            for i in touched:
                p[i] = -1
                base[i] = i
                used[i] = False
    return match


def reference_is_factor_critical(g: Graph) -> bool:
    """True when deleting any single vertex leaves a perfectly matchable graph.

    The one-vertex graph is factor-critical; no even-order graph is.
    """
    if g.n == 0 or g.n % 2 == 0:
        return False
    return all(
        has_perfect_matching(induced_subgraph(g, [u for u in range(g.n) if u != v]))
        for v in range(g.n)
    )


def reference_vizing_color(g: Graph) -> EdgeColoring:
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
        # maximal fan of u starting at v
        fan = [v]
        fan_set = {v}
        grown = True
        while grown:
            grown = False
            last = fan[-1]
            for w in g.adj[u]:
                if w in fan_set:
                    continue
                cw = color.get(key(u, w))
                if cw is not None and cw not in at[last]:
                    fan.append(w)
                    fan_set.add(w)
                    grown = True
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


def _k5_subdivision(g: Graph, n: int) -> bool:
    for branch in combinations(range(n), 5):
        rest = [x for x in range(n) if x not in branch]
        missing = [
            (a, b) for a, b in combinations(branch, 2) if not g.has_edge(a, b)
        ]
        if len(missing) == 0:
            return True
        if len(missing) == 1:
            a, b = missing[0]
            for x in rest:
                if g.has_edge(a, x) and g.has_edge(x, b):
                    return True
            for x, y in permutations(rest, 2):
                if g.has_edge(a, x) and g.has_edge(x, y) and g.has_edge(y, b):
                    return True
        if len(missing) == 2:
            (a, b), (c, d) = missing
            for x, y in permutations(rest, 2):
                if (
                    g.has_edge(a, x)
                    and g.has_edge(x, b)
                    and g.has_edge(c, y)
                    and g.has_edge(y, d)
                ):
                    return True
    return False


def _k33_subdivision(g: Graph, n: int) -> bool:
    for six in combinations(range(n), 6):
        for left in combinations(six[1:], 2):
            part = (six[0],) + left
            other = [x for x in six if x not in part]
            missing = [
                (a, b) for a in part for b in other if not g.has_edge(a, b)
            ]
            if not missing:
                return True
            if len(missing) == 1:
                a, b = missing[0]
                for x in range(n):
                    if x not in six and g.has_edge(a, x) and g.has_edge(x, b):
                        return True
    return False


def brute_is_planar(g: Graph) -> bool:
    """Exact planarity for n <= 7 by forbidden-subdivision search.

    On at most 7 vertices a subdivision of K5 (5 branch vertices) has at
    most 2 subdivision vertices and one of K33 (6 branch vertices) at
    most 1, so trying every branch assignment and every short routing of
    the missing pairs is a complete test.
    """
    if g.n > 7:
        raise ValueError("the brute planarity oracle supports n <= 7 only")
    if g.n < 5:
        return True
    return not _k5_subdivision(g, g.n) and not _k33_subdivision(g, g.n)


def min_perm_form(g: Graph) -> tuple[tuple[int, int], ...]:
    """Lexicographically least relabeled edge list over all permutations."""
    best = None
    for p in permutations(range(g.n)):
        edges = tuple(
            sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges())
        )
        if best is None or edges < best:
            best = edges
    assert best is not None or g.n == 0
    return best if best is not None else ()


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices, as (masks tuple) streams."""
    pairs = list(combinations(range(n), 2))
    for pick in range(1 << len(pairs)):
        masks = [0] * n
        for i, (u, v) in enumerate(pairs):
            if pick >> i & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        yield tuple(masks)


def mask_connected(n: int, masks: tuple[int, ...]) -> bool:
    if n == 0:
        return True
    reach = 1
    frontier = 1
    while frontier:
        grown = 0
        m = frontier
        while m:
            b = m & -m
            grown |= masks[b.bit_length() - 1]
            m ^= b
        frontier = grown & ~reach
        reach |= grown
    return reach == (1 << n) - 1


def pair_group_class_count(n: int) -> int:
    """Number of isomorphism classes of all graphs on n labeled vertices.

    Burnside's lemma over the symmetric group acting on vertex pairs:
    average 2^(number of pair orbits) across all permutations.
    """
    total = 0
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    for perm in permutations(range(n)):
        seen = 0
        orbits = 0
        for start in range(len(pairs)):
            if seen >> start & 1:
                continue
            orbits += 1
            cur = start
            while not seen >> cur & 1:
                seen |= 1 << cur
                u, v = pairs[cur]
                cur = index[tuple(sorted((perm[u], perm[v])))]
        total += 1 << orbits
    return total // math.factorial(n)


def _non_cut_vertices(n: int, masks: tuple[int, ...]) -> list[int]:
    """Vertices that are not articulation points (graph assumed connected)."""
    if n <= 2:
        return list(range(n))
    adj = [reference_bits(masks[v]) for v in range(n)]
    disc = [-1] * n
    low = [0] * n
    is_art = [False] * n
    counter = 0
    root_children = 0
    stack: list[tuple[int, int, int]] = [(0, -1, 0)]
    disc[0] = low[0] = counter
    counter += 1
    while stack:
        v, parent, i = stack[-1]
        if i < len(adj[v]):
            stack[-1] = (v, parent, i + 1)
            w = adj[v][i]
            if w == parent:
                continue
            if disc[w] == -1:
                if v == 0:
                    root_children += 1
                disc[w] = low[w] = counter
                counter += 1
                stack.append((w, v, 0))
            else:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if parent != -1:
                low[parent] = min(low[parent], low[v])
                if parent != 0 and low[v] >= disc[parent]:
                    is_art[parent] = True
    is_art[0] = root_children >= 2
    return [v for v in range(n) if not is_art[v]]


def _degree_invariant(n: int, masks: tuple[int, ...], degs: list[int]):
    return [
        (degs[v], tuple(sorted(degs[w] for w in reference_bits(masks[v]))))
        for v in range(n)
    ]


def reference_accepts_new_vertex(n: int, masks: tuple[int, ...]) -> bool:
    """True iff the last vertex is a designated deletion point of the graph.

    The designated deletion is any non-cut vertex maximising first the
    degree invariant and then the vertex-marked canonical form.
    """
    z = n - 1
    degs = [masks[v].bit_count() for v in range(n)]
    inv = _degree_invariant(n, masks, degs)
    non_cut = _non_cut_vertices(n, masks)
    assert z in non_cut
    best = max(inv[v] for v in non_cut)
    if inv[z] < best:
        return False
    candidates = [v for v in non_cut if inv[v] == best]
    if candidates == [z]:
        return True
    marked = {
        v: canonical_form_masks(
            n, masks, [1 if u == v else 0 for u in range(n)]
        )
        for v in candidates
    }
    return marked[z] == max(marked.values())


def reference_graph6_encode(g: Graph) -> str:
    """graph6 string for g (short form for n <= 62, long form above)."""
    if g.n > 258047:
        raise ValueError("graph6 supports at most 258047 vertices")
    bits: list[int] = []
    for k in range(g.n):
        for j in range(k):
            bits.append(1 if g.has_edge(j, k) else 0)
    while len(bits) % 6:
        bits.append(0)
    if g.n <= 62:
        out = [chr(g.n + 63)]
    else:
        out = [
            chr(126),
            chr(((g.n >> 12) & 63) + 63),
            chr(((g.n >> 6) & 63) + 63),
            chr((g.n & 63) + 63),
        ]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def reference_graph6_decode(text: str) -> Graph:
    """Parse a graph6 string; strict about padding and length."""
    if not text:
        raise ValueError("empty graph6 string")
    data = [ord(ch) for ch in text]
    if any(b < 63 or b > 126 for b in data):
        raise ValueError("graph6 bytes must be printable ASCII in [63, 126]")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graph6 orders above 258047 are not supported")
        if len(data) < 4:
            raise ValueError("truncated long-form graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise ValueError("long-form graph6 header used for an order under 63")
        header_len = 4
    else:
        n = data[0] - 63
        header_len = 1
    nbits = n * (n - 1) // 2
    expected = header_len + (nbits + 5) // 6
    if len(data) != expected:
        raise ValueError(
            f"graph6 length {len(data)} does not match order {n} (expected {expected})"
        )
    bits: list[int] = []
    for b in data[header_len:]:
        value = b - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("graph6 padding bits must be zero")
    edges = []
    idx = 0
    for k in range(n):
        for j in range(k):
            if bits[idx]:
                edges.append((j, k))
            idx += 1
    return build_graph(n, edges)


# Reference left-right planarity test: the dict-keyed version that
# planarity._LRTest replaced, kept verbatim so the array-indexed kernel can
# be held to the same verdicts, embeddings and witnesses.


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


def reference_decide(n: int, masks) -> bool:
    """Planarity verdict of the reference left-right test, no shortcuts."""
    if n <= 2:
        return True
    if sum(m.bit_count() for m in masks[:n]) // 2 > 3 * n - 6:
        return False
    lr = _LRTest(n, [reference_bits(masks[v]) for v in range(n)])
    lr.orient()
    return lr.test()


def reference_embedding(g: Graph):
    """Rotation system of the reference test for a planar g, else None."""
    if g.n <= 2:
        return tuple(tuple(row) for row in g.adj)
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return None
    lr = _LRTest(g.n, g.adj)
    lr.orient()
    return lr.embed() if lr.test() else None


def reference_minimize_witness(g: Graph) -> tuple[tuple[int, int], ...]:
    """One-pass edge-minimal non-planar subgraph, decided by reference_decide."""
    masks = masks_of(g)
    kept = []
    for u, v in g.edges():
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        if reference_decide(g.n, masks):
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
            kept.append((u, v))
    return tuple(kept)


def reference_children(
    n: int, masks: tuple[int, ...], deg_max: int, planar_only: bool
) -> list[tuple[tuple[int, ...], bytes]]:
    """Accepted one-vertex extensions, deduplicated, sorted by canonical form."""
    m = sum(masks[v].bit_count() for v in range(n)) // 2
    eligible = [v for v in range(n) if masks[v].bit_count() < deg_max]
    child_n = n + 1
    seen: set[bytes] = set()
    out: list[tuple[tuple[int, ...], bytes]] = []
    for size in range(1, min(deg_max, len(eligible)) + 1):
        if planar_only and child_n >= 3 and m + size > 3 * child_n - 6:
            break
        for subset in combinations(eligible, size):
            zbit = 1 << n
            child = tuple(
                masks[v] | zbit if v in subset else masks[v] for v in range(n)
            ) + (sum(1 << v for v in subset),)
            if not reference_accepts_new_vertex(child_n, child):
                continue
            form = canonical_form_masks(child_n, child)
            if form in seen:
                continue
            seen.add(form)
            if planar_only and not reference_decide(child_n, child):
                continue
            out.append((child, form))
    out.sort(key=lambda item: item[1])
    return out


def brute_automorphism_count(n: int, masks: tuple[int, ...]) -> int:
    """Number of vertex permutations that preserve adjacency."""
    degs = [masks[v].bit_count() for v in range(n)]
    image = [0] * n

    def extend(v: int, used: int) -> int:
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used >> w & 1 or degs[w] != degs[v]:
                continue
            if all(
                (masks[u] >> v & 1) == (masks[image[u]] >> w & 1) for u in range(v)
            ):
                image[v] = w
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(0, 0)


def reference_face_count(g: Graph, embedding: tuple[tuple[int, ...], ...]) -> int:
    # the dart u -> v is the integer u * n + v
    n = g.n
    succ: dict[int, int] = {}
    for v in range(n):
        rot = embedding[v]
        base = v * n
        for u, w in zip(rot, rot[1:] + rot[:1]):
            succ[u * n + v] = base + w
    faces = 0
    seen: set[int] = set()
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
    components = connected_components(g)
    edgeless = sum(1 for c, _ in components if c.n == 1)
    # edgeless components still bound one face each
    return faces + edgeless - (len(components) - 1)


def reference_residual_feasible(rem: list[int]) -> bool:
    degs = sorted(rem, reverse=True)
    if not degs or degs[0] == 0:
        return True
    n = len(degs)
    if degs[0] > n - 1:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += degs[k - 1]
        tail = sum(min(x, k) for x in degs[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def reference_group_selections(groups: list[list[int]], need: int) -> list[list[int]]:
    """All ways to take `need` vertices as per-group prefixes."""
    out: list[list[int]] = []

    def rec(i: int, left: int, acc: list[int]) -> None:
        if left == 0:
            out.append(list(acc))
            return
        if i == len(groups):
            return
        if sum(len(grp) for grp in groups[i:]) < left:
            return
        take_max = min(left, len(groups[i]))
        for take in range(take_max + 1):
            rec(i + 1, left - take, acc + groups[i][:take])

    rec(0, need, [])
    return out


def reference_certificate(g: Graph, d: int, nu: int) -> CertificateReport:
    """Evaluate a graph against the planar class (d, nu) and its edge bound.

    tight means the graph is a class member (planar, max degree below d,
    matching number below nu) meeting the class maximum exactly.
    """
    planar = is_planar(g).verdict
    maxdeg = max(g.degrees, default=0)
    nu_g = matching_number(g)
    bound = max_edges_planar(d, nu)
    tight = planar and maxdeg < d and nu_g < nu and g.m == bound
    return CertificateReport(
        d=d,
        nu=nu,
        graph_g6=graph6_encode(g),
        planar=planar,
        max_degree=maxdeg,
        matching_number=nu_g,
        edge_count=g.m,
        bound=bound,
        tight=tight,
    )


# The extremal families as the package built them before their recipes:
# each component built whether or not it is used, and the order known only
# once the union exists. The recipes must reproduce these graphs exactly.


def reference_pivotal_planar(d: int, nu: int) -> Graph:
    """The planar extremal family for (d, nu): meets max_edges_planar exactly.

    Disjoint union, largest components first: triangles for d=3, K'_4 or
    K5 minus an edge plus a leftover star for d in {4,5}, copies of A7
    with an A4/star remainder for d=6, and bare (d-1)-stars otherwise.
    """
    k = nu - 1
    if d < 2 or k < 1:
        return build_graph(0, [])
    comps: list[Graph] = []
    if d == 2:
        comps = [complete(2)] * k
    elif d == 3:
        comps = [complete(3)] * k
    elif d == 4:
        comps = [k_prime(4)] * (k // 2) + [star(3)] * (k % 2)
    elif d == 5:
        comps = [atlas(AtlasName.K5_MINUS)] * (k // 2) + [star(4)] * (k % 2)
    elif d == 6:
        r = k % 7
        comps = [atlas(AtlasName.A7)] * (k // 7)
        if r >= 4:
            comps.append(atlas(AtlasName.A4))
            comps.extend([star(5)] * (r - 4))
        else:
            comps.extend([star(5)] * r)
    else:
        comps = [star(d - 1)] * k
    g = disjoint_union(*comps)
    if g.m != max_edges_planar(d, nu):
        raise AssertionError(f"pivotal_planar({d}, {nu}) has {g.m} edges, not the bound")
    return g


def reference_extremal_general(d: int, nu: int) -> Graph:
    """The unrestricted extremal family: meets max_edges_general exactly.

    With nu-1 = q*ceil((d-1)/2) + r, returns q copies of K'_d (d even) or
    K_d (d odd) followed by r stars K_{1,d-1}. Not planar in general.
    """
    k = nu - 1
    if d < 2 or k < 1:
        return build_graph(0, [])
    c = d // 2
    q, r = divmod(k, c)
    big = k_prime(d) if d % 2 == 0 else complete(d)
    g = disjoint_union(*([big] * q + [star(d - 1)] * r))
    if g.m != max_edges_general(d, nu):
        raise AssertionError(f"extremal_general({d}, {nu}) has {g.m} edges, not the bound")
    return g


# The oracle's verdict as the package reached it before one knapsack row
# served the whole domination loop: one fresh knapsack per mu.


def reference_combine(table: list[ComponentRecord], nu: int) -> int:
    """Best total edges over disjoint unions with matching number < nu.

    Unbounded knapsack: components may repeat, their matching numbers must
    sum to at most nu-1.
    """
    budget = nu - 1
    if budget <= 0:
        return 0
    f = [0] * (budget + 1)
    for b in range(1, budget + 1):
        value = f[b - 1]
        for rec in table:
            if rec.mu <= b:
                value = max(value, f[b - rec.mu] + rec.best_edges)
        f[b] = value
    return f[budget]


def reference_verify_theorem(
    d: int, nu: int, n_max: int, *, workers: int = 1, checkpoint: str | None = None
) -> Verdict:
    """Compare the recombination oracle against the closed-form bound."""
    table = component_table(d, n_max, workers=workers, checkpoint=checkpoint)
    oracle_value = reference_combine(table, nu)
    formula_value = max_edges_planar(d, nu)
    if oracle_value > formula_value:
        raise FalsificationError(d, nu, oracle_value, formula_value)
    if oracle_value < formula_value:
        return Verdict("inconclusive", oracle_value, formula_value)
    exhaustive_records = [rec for rec in table if rec.exhaustive]
    for mu in range(1, nu):
        n = 2 * mu + 1
        if n <= n_max:
            continue
        # a component that is not a (d-1)-star has 2 mu + 1 vertices, so
        # planarity and the degree bound cap its edges; the star has
        # matching number 1 and d - 1 edges
        cap = min(3 * n - 6, (d - 1) * n // 2)
        if mu == 1:
            cap = max(cap, d - 1)
        if cap > reference_combine(exhaustive_records, mu + 1):
            return Verdict("realizable-only", oracle_value, formula_value)
    return Verdict("confirmed", oracle_value, formula_value)


# The component table's witnesses from the tie rule's definition, with
# no subtrees, journals or per-subtree settling.


def reference_component_witnesses(d: int, n_max: int) -> dict[int, Graph]:
    """Witness per matching number mu >= 1 of component_table(d, n_max).

    The candidates are the connected planar graphs with max degree below d
    on at most n_max vertices, plus the (d-1)-star when its d vertices
    exceed n_max. Among those with matching number mu, the witness has the
    most edges, and then the smallest canonical form.
    """
    candidates = list(enumerate_connected(n_max, d - 1, True))
    if d > n_max:
        candidates.append(star(d - 1))
    by_mu: dict[int, list[Graph]] = {}
    for g in candidates:
        by_mu.setdefault(matching_number(g), []).append(g)
    witnesses = {}
    for mu, graphs in by_mu.items():
        if mu >= 1:
            top = max(g.m for g in graphs)
            witnesses[mu] = min((g for g in graphs if g.m == top), key=canonical_form)
    return witnesses


# The Kuratowski classifier as the package had it before it read the type
# from the witness's own paths: it suppresses degree-2 vertices, rebuilds
# the core and compares its canonical form with those of K5 and K3,3.


def reference_classify_kuratowski(witness: tuple[tuple[int, int], ...]) -> str:
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
