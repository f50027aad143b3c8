"""Isomorph-free generation of connected graphs under degree/planarity caps.

Canonical augmentation: a graph on k+1 vertices is produced only from its
canonical parent, obtained by deleting a designated non-cut vertex (the
one maximising a cheap degree invariant, ties settled by vertex-marked
canonical forms). Extending every graph by one new vertex joined to each
admissible subset, and keeping only extensions where the new vertex is a
valid designated deletion, yields exactly one representative per
isomorphism class. Planarity prunes hereditarily: the edge-count bound
rejects during extension and the exact test runs on accepted children.
"""

from __future__ import annotations

from typing import Iterator

from itertools import combinations

from .canon import canonical_form_masks
from .graphs import Graph, bits, from_masks
from .planarity import _decide

_BUDGET_N_MAX = 10


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration request exceeds the desk-scale budget."""


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


def _accepts_new_vertex(n: int, masks: tuple[int, ...]) -> bool:
    """True iff the last vertex is a designated deletion point of the graph.

    The designated deletion is any non-cut vertex maximising first the
    degree invariant and then the vertex-marked canonical form; all of
    them lie in one orbit, so deleting any of them gives the same parent
    up to isomorphism.
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


def _children(
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
            if not _accepts_new_vertex(child_n, child):
                continue
            form = canonical_form_masks(child_n, child)
            if form in seen:
                continue
            seen.add(form)
            if planar_only and not _decide(child_n, child):
                continue
            out.append((child, form))
    out.sort(key=lambda item: item[1])
    return out


def _levels(
    n_max: int, deg_max: int, planar_only: bool
) -> Iterator[list[tuple[tuple[int, ...], bytes]]]:
    level: list[tuple[tuple[int, ...], bytes]] = [((0,), canonical_form_masks(1, (0,)))]
    yield level
    for _ in range(n_max - 1):
        nxt: list[tuple[tuple[int, ...], bytes]] = []
        for masks, _form in level:
            nxt.extend(_children(len(masks), masks, deg_max, planar_only))
        nxt.sort(key=lambda item: item[1])
        level = nxt
        yield level


def enumerate_connected(
    n_max: int, deg_max: int, planar_only: bool = False
) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs.

    Covers all orders 1..n_max with maximum degree <= deg_max, restricted
    to planar graphs when planar_only is set. Deterministic order: by
    order, then by canonical form.
    """
    if deg_max < 1:
        raise ValueError("deg_max must be at least 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > _BUDGET_N_MAX:
        raise BudgetExceededError(
            f"enumeration budget is {_BUDGET_N_MAX} vertices, got {n_max}"
        )
    for level in _levels(n_max, deg_max, planar_only):
        for masks, _form in level:
            yield from_masks(len(masks), masks)
