"""Canonical forms for small graphs by refinement plus individualization.

canonical_form returns a byte string that is equal for two graphs exactly
when they are isomorphic (respecting vertex colors when given); its first
byte is the order, so forms sort by order first. The search
is the classic one: iterate an equitable color refinement, individualize
one vertex of the first non-singleton cell, recurse, and keep the minimum
leaf encoding. Interchangeable vertices (swapping them is visibly an
automorphism) are branched only once, which keeps complete graphs and
other locally symmetric cases from exploding. The same search also
yields generators of the automorphism group: the pruned transpositions
and one map per leaf that ties the first leaf's encoding.

Intended scale is the desk scale of this package (up to ~16 vertices);
no attempt is made to compete with real canonical-labeling tools.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, bits


def _refine(n: int, neighbors: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Equitable refinement; returns a normalized stable coloring.

    Each round ranks the vertices by (color, sorted neighbor colors). A
    singleton cell keeps its rank without a signature, and the rounds stop
    when no cell splits.
    """
    while True:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            if c in cells:
                cells[c].append(v)
            else:
                cells[c] = [v]
        color_of = colors.__getitem__
        new = [0] * n
        rank = 0
        split = False
        for c in sorted(cells):
            cell = cells[c]
            if len(cell) > 1:
                sigs = [tuple(sorted(map(color_of, neighbors[v]))) for v in cell]
                distinct = sorted(set(sigs))
                if len(distinct) > 1:
                    split = True
                    index = {s: rank + i for i, s in enumerate(distinct)}
                    for v, s in zip(cell, sigs):
                        new[v] = index[s]
                    rank += len(distinct)
                    continue
            for v in cell:
                new[v] = rank
            rank += 1
        if not split:
            return new
        colors = new


def _pack_bits(n: int, masks: Sequence[int], order: list[int]) -> bytes:
    """Upper-triangle bits of the relabeled adjacency matrix, MSB-first."""
    packed = 0
    count = 0
    for j in range(n):
        oj = order[j]
        row = masks[oj]
        for k in range(j + 1, n):
            packed = (packed << 1) | ((row >> order[k]) & 1)
            count += 1
    pad = (-count) % 8
    packed <<= pad
    return packed.to_bytes((count + pad) // 8, "big")


def _swap_equivalent(masks: Sequence[int], u: int, v: int) -> bool:
    # transposing u and v is an automorphism iff their rows agree off {u, v}
    return (masks[u] & ~(1 << v)) == (masks[v] & ~(1 << u))


def _canonical_search(
    n: int, masks: Sequence[int], colors: Sequence[int] | None = None
) -> tuple[bytes, list[list[int]]]:
    """Canonical form and generators of the color-preserving Aut(G).

    A generator is a permutation list, perm[v] the image of v. They are
    the twin transpositions the search prunes by, plus the map from the
    first leaf to every later leaf that packs to the same bits. Every leaf
    of the unpruned tree is the image of a visited leaf under twin
    transpositions, so together they generate the whole group.
    """
    if n == 0:
        return bytes([0]), []
    if n > 255:
        raise ValueError("canonical_form supports at most 255 vertices")
    base = list(colors) if colors is not None else None
    if base is not None and (len(base) != n or any(not 0 <= c < 256 for c in base)):
        raise ValueError("colors must be one small non-negative int per vertex")

    neighbors = [bits(masks[v]) for v in range(n)]
    start = list(base) if base is not None else [0] * n
    best: bytes | None = None
    first: tuple[bytes, list[int]] | None = None
    gens: list[list[int]] = []
    twins: set[tuple[int, int]] = set()

    def search(colors: list[int]) -> None:
        nonlocal best, first
        colors = _refine(n, neighbors, colors)
        # refined colors are the ranks 0..k-1, so k == n means discrete
        if max(colors) == n - 1:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            cand = _pack_bits(n, masks, order)
            if base is not None:
                cand = bytes(base[v] for v in order) + cand
            if first is None:
                first = (cand, order)
            elif cand == first[0] and order != first[1]:
                perm = [0] * n
                for v, w in zip(first[1], order):
                    perm[v] = w
                gens.append(perm)
            if best is None or cand < best:
                best = cand
            return
        # individualize in the smallest-numbered non-singleton cell
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next(c for c, k in enumerate(counts) if k > 1)
        cell = [v for v in range(n) if colors[v] == target]
        tried: list[int] = []
        for v in cell:
            twin = next((u for u in tried if _swap_equivalent(masks, v, u)), None)
            if twin is not None:
                twins.add((twin, v))
                continue
            tried.append(v)
            child = [c * 2 + 1 for c in colors]
            child[v] = colors[v] * 2
            search(child)

    search(start)
    # search's closure holds search itself: emptying that cell breaks the
    # cycle, so reference counting frees the search state at once
    del search
    if best is None:
        raise AssertionError("canonical search reached no leaf")
    for u, v in twins:
        perm = list(range(n))
        perm[u], perm[v] = v, u
        gens.append(perm)
    return bytes([n]) + best, gens


def canonical_form_masks(
    n: int, masks: Sequence[int], colors: Sequence[int] | None = None
) -> bytes:
    return _canonical_search(n, masks, colors)[0]


def canonical_form(g: Graph, colors: Sequence[int] | None = None) -> bytes:
    """Canonical byte string; equal iff isomorphic (color-respecting)."""
    return canonical_form_masks(g.n, [sum(1 << w for w in row) for row in g.adj], colors)
