"""Independent reference implementations the tests check the package against.

Nothing here reuses the package's algorithms: matchings are maximized by
bare edge-subset recursion, planarity is decided by exhaustive search
for a forbidden subdivision (complete for n <= 7, where a subdivision
can use at most two extra vertices), and isomorphism is settled by
minimizing over all vertex permutations. The one exception is the
reference designated-vertex rule of canonical augmentation, which keeps
the package's marked canonical forms (tested on their own) but decides
everything else the plain way: a full articulation pass, the degree
invariant of every vertex and the maximum over all tied marked forms.
The reference graph6 codec packs and unpacks one bit at a time through
Graph.has_edge and an edge list, with the same validation and messages.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from planarext import Graph
from planarext.canon import canonical_form_masks
from planarext.graphs import bits, build_graph


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
    adj = [bits(masks[v]) for v in range(n)]
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
        (degs[v], tuple(sorted(degs[w] for w in bits(masks[v]))))
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
