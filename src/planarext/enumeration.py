"""Isomorph-free generation of connected graphs under degree/planarity caps.

Canonical augmentation: a graph on k+1 vertices is produced only from its
canonical parent, obtained by deleting a designated non-cut vertex (the
one maximising a cheap degree invariant, ties settled by vertex-marked
canonical forms). Extending every graph by one new vertex joined to each
admissible subset, and keeping only extensions where the new vertex is a
valid designated deletion, yields exactly one representative per
isomorphism class. Accepted children of one parent are isomorphic iff
their neighbour subsets share an Aut(parent) orbit, so one canonical
search per parent, for its automorphism generators, drops the duplicates;
the first accepted subset of each orbit is kept. Children carry no form:
_levels computes one per graph for its sort, and the oracle only where an
edge-count tie needs it. Planarity prunes hereditarily: the edge-count
bound rejects during extension and the exact test runs on the distinct
accepted children.
"""

from __future__ import annotations

from typing import Iterator

from itertools import combinations

from .canon import _canonical_search, _swap_equivalent, canonical_form_masks
from .graphs import Graph, bits, from_masks
from .planarity import _decide

_BUDGET_N_MAX = 10


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration request exceeds the desk-scale budget."""


def _check_budget(n_max: int) -> None:
    if n_max > _BUDGET_N_MAX:
        raise BudgetExceededError(
            f"enumeration budget is {_BUDGET_N_MAX} vertices, got {n_max}"
        )


def _is_cut_vertex(n: int, masks: tuple[int, ...], v: int) -> bool:
    """True iff deleting v disconnects the (connected) graph.

    Floods G - v from one neighbour of v. A shortest path in G from any
    other vertex to v enters v from a neighbour, so G - v is connected
    iff the flood reaches every neighbour of v.
    """
    nbrs = masks[v]
    keep = ((1 << n) - 1) ^ (1 << v)
    seen = frontier = nbrs & -nbrs
    while frontier:
        if seen & nbrs == nbrs:
            return False
        grown = 0
        for u in bits(frontier):
            grown |= masks[u]
        frontier = grown & keep & ~seen
        seen |= frontier
    return True


def _marked(n: int, v: int) -> list[int]:
    colors = [0] * n
    colors[v] = 1
    return colors


def _accepts_new_vertex(n: int, masks: tuple[int, ...]) -> bool:
    """True iff the last vertex is a designated deletion point of the graph.

    The designated deletion is any non-cut vertex maximising first the
    invariant (degree, sorted neighbour degrees) and then the
    vertex-marked canonical form; all of them lie in one orbit, so
    deleting any of them gives the same parent up to isomorphism.

    The last vertex z is never a cut vertex (its deletion leaves the
    connected parent), and the rule is decided lazily: a vertex of lower
    degree cannot beat z, neighbour degrees are sorted only on a degree
    tie, the cut test runs only on a vertex that would beat or tie z, and
    a tied vertex whose transposition with an already compared one is an
    automorphism has that vertex's marked form.
    """
    z = n - 1
    degs = [masks[v].bit_count() for v in range(n)]
    dz = degs[z]
    ties: list[int] = []
    nz: list[int] | None = None
    for v in range(z):
        dv = degs[v]
        if dv < dz:
            continue
        if dv > dz:
            if not _is_cut_vertex(n, masks, v):
                return False
            continue
        if nz is None:
            nz = sorted([degs[w] for w in bits(masks[z])])
        nv = sorted([degs[w] for w in bits(masks[v])])
        # a leaf is never a cut vertex
        if nv < nz or (dv > 1 and _is_cut_vertex(n, masks, v)):
            continue
        if nv > nz:
            return False
        ties.append(v)
    compared = [z]
    form_z = None
    for v in ties:
        if any(_swap_equivalent(masks, v, u) for u in compared):
            continue
        if form_z is None:
            form_z = canonical_form_masks(n, masks, _marked(n, z))
        if canonical_form_masks(n, masks, _marked(n, v)) > form_z:
            return False
        compared.append(v)
    return True


def _children(
    n: int, masks: tuple[int, ...], deg_max: int, planar_only: bool
) -> list[tuple[int, ...]]:
    """Accepted one-vertex extensions, one per isomorphism class.

    Two accepted children are isomorphic iff their neighbour subsets lie
    in one Aut(parent) orbit, so the first accepted subset of each orbit
    stands for it and one search of the parent replaces a form per child.
    """
    m = sum(masks[v].bit_count() for v in range(n)) // 2
    eligible = [v for v in range(n) if masks[v].bit_count() < deg_max]
    child_n = n + 1
    zbit = 1 << n
    gens = _canonical_search(n, masks)[1]
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for size in range(1, min(deg_max, len(eligible)) + 1):
        if planar_only and child_n >= 3 and m + size > 3 * child_n - 6:
            break
        for subset in combinations(eligible, size):
            row = sum(1 << v for v in subset)
            child = tuple(
                masks[v] | zbit if row >> v & 1 else masks[v] for v in range(n)
            ) + (row,)
            if not _accepts_new_vertex(child_n, child) or row in seen:
                continue
            # mark the whole orbit of row under the generators seen
            seen.add(row)
            orbit = [row]
            for s in orbit:
                for perm in gens:
                    image = 0
                    for v in bits(s):
                        image |= 1 << perm[v]
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            if planar_only and not _decide(child_n, child):
                continue
            out.append(child)
    return out


def _levels(
    n_max: int, deg_max: int, planar_only: bool
) -> Iterator[list[tuple[tuple[int, ...], bytes]]]:
    """Each order's graphs with their canonical forms, sorted by form."""
    level: list[tuple[tuple[int, ...], bytes]] = [((0,), canonical_form_masks(1, (0,)))]
    yield level
    for _ in range(n_max - 1):
        level = sorted(
            (
                (child, canonical_form_masks(len(child), child))
                for masks, _form in level
                for child in _children(len(masks), masks, deg_max, planar_only)
            ),
            key=lambda item: item[1],
        )
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
    _check_budget(n_max)
    for level in _levels(n_max, deg_max, planar_only):
        for masks, _form in level:
            yield from_masks(len(masks), masks)
