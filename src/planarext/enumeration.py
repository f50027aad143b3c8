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
the first accepted subset of each orbit is kept. Children carry no form.

One driver expands the generation tree: _walk runs it depth-first, a
graph, then its whole subtree, in pre-order. It searches a child once,
for the generators of the child's own children, and only when it will
have some, so it computes no form. enumerate_connected groups the walk
from K1 by order and sorts each order by canonical form, so it yields
nothing until the walk has ended. Planarity, when asked for, prunes
hereditarily: the edge-count bound rejects during extension and the
exact test runs on the distinct accepted children.

The acceptance test of a child reads a record of its parent P, built once
per parent: P's degrees, the components of P - v for each cut vertex v of
P, the generators of Aut(P) and the marked-form verdicts reached so far,
keyed by neighbour subset. A child joins the new vertex z to a subset S,
so its degrees are P's plus one on S. Deleting v from the child leaves
P - v with z joined to S - {v}, so v is a cut vertex of the child iff
S = {v} (z hangs from v alone) or S misses a component of P - v; when v
does not cut P, the second case is the first. The test reads the record
and S alone, and a child's rows are built only for a kept subset and
for a marked-form verdict. Most candidates are rejected by one AND:
the record keeps at[k], the mask of P's vertices of degree >= k that do
not cut P, and z (with |S| = dz) loses to any vertex v in at[dz + 1] or
in at[dz] & S, whose child degree exceeds dz, unless S = {v}. That is
exact: P - v is connected and z reaches it through S - {v}, so v cuts
neither P nor the child, and a non-cut vertex of larger degree beats z.
A permutation p in Aut(P), extended by z -> z, is an isomorphism from
the child on S to the child on p(S) that fixes z. The designated-vertex
rule asks only isomorphism-invariant questions about z, so the two
children get the same verdict: a verdict that took marked canonical
searches is stored for the whole orbit of S, and every later subset of
that orbit reads it back. The record lives as long as one call of
_children, so no verdict crosses parents.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from itertools import combinations, groupby

from .canon import _canonical_search, _swap_equivalent, canonical_form_masks
from .graphs import Graph, bits, from_masks
from .planarity import _decide

_BUDGET_N_MAX = 10


class BudgetExceededError(ValueError):
    """Raised when an enumeration request exceeds the desk-scale budget."""


def _check_budget(n_max: int) -> None:
    if n_max > _BUDGET_N_MAX:
        raise BudgetExceededError(
            f"enumeration budget is {_BUDGET_N_MAX} vertices, got {n_max}"
        )


class _Parent(NamedTuple):
    """What the acceptance tests of one parent's children share."""

    masks: tuple[int, ...]
    degs: list[int]
    # components of P - v when that is disconnected, else ()
    cuts: list[tuple[int, ...]]
    # at[k]: the vertices of degree >= k in P that do not cut P
    at: list[int]
    gens: list[list[int]]
    # marked-form verdicts by neighbour subset, filled one orbit at a time
    verdicts: dict[int, bool]


def _parent_record(n: int, masks: tuple[int, ...], gens: list[list[int]]) -> _Parent:
    """The record of P, whose automorphism group gens generates."""
    degs = [m.bit_count() for m in masks]
    cuts: list[tuple[int, ...]] = []
    # indexed up to n + 1, one past the largest child degree of z
    at = [0] * (n + 2)
    for v in range(n):
        comps: list[int] = []
        unseen = keep = ((1 << n) - 1) ^ (1 << v)
        while unseen:
            reach = frontier = unseen & -unseen
            while frontier:
                grown = 0
                for u in bits(frontier):
                    grown |= masks[u]
                frontier = grown & keep & ~reach
                reach |= frontier
            unseen &= ~reach
            comps.append(reach)
        if len(comps) > 1:
            cuts.append(tuple(comps))
        else:
            cuts.append(())
            at[degs[v]] |= 1 << v
    for k in range(n, -1, -1):
        at[k] |= at[k + 1]
    return _Parent(masks, degs, cuts, at, gens, {})


def _child(masks: tuple[int, ...], row: int) -> tuple[int, ...]:
    """The rows of P (given by masks) plus a new vertex joined to row."""
    zbit = 1 << len(masks)
    # a list, not a generator: tuple() of one raised verify's peak RSS 0.3 MB
    return (*[m | zbit if row >> v & 1 else m for v, m in enumerate(masks)], row)


def _cuts_child(row: int, v: int, comps: tuple[int, ...]) -> bool:
    """True iff v cuts the child whose new vertex has neighbour set row.

    comps are the components of P - v when there are two or more. P - v
    must not be empty: when P is v alone, v is a leaf of the child.
    """
    return row == 1 << v or any(not row & c for c in comps)


def _orbit(row: int, gens: list[list[int]]) -> list[int]:
    """The vertex subsets that the group generated by gens maps row to."""
    orbit = [row]
    members = {row}
    for s in orbit:
        for perm in gens:
            image = 0
            for v in bits(s):
                image |= 1 << perm[v]
            if image not in members:
                members.add(image)
                orbit.append(image)
    return orbit


def _marked(n: int, v: int) -> list[int]:
    colors = [0] * n
    colors[v] = 1
    return colors


def _accepts_new_vertex(n: int, row: int, parent: _Parent) -> bool:
    """True iff the last vertex is a designated deletion point of the graph.

    The designated deletion is any non-cut vertex maximising first the
    invariant (degree, sorted neighbour degrees) and then the
    vertex-marked canonical form; all of them lie in one orbit, so
    deleting any of them gives the same parent up to isomorphism.

    The graph has n vertices: its last vertex z is joined to the vertex
    set row of the parent P (the graph less z), whose record is parent.
    Its rows are read as P's plus z on row, and built only when the
    marked forms need them. z is never a cut vertex (its deletion leaves
    the connected parent), and the rule is decided lazily: a vertex of
    lower degree cannot beat z, neighbour degrees are sorted only on a
    degree tie, a vertex that cuts neither P nor the child and has the
    larger degree is found by one AND with the record's at masks, the
    cut test runs only on a vertex that would beat or tie z, and a tied
    vertex whose transposition with an already compared one is an
    automorphism has that vertex's marked form. The marked forms run
    once per Aut(parent) orbit of row.
    """
    z = n - 1
    pmasks, pdegs, cuts, at = parent.masks, parent.degs, parent.cuts, parent.at
    dz = row.bit_count()
    # a vertex of child degree > dz that does not cut P cuts the child only
    # when z hangs from it alone, so it beats z
    if (at[dz + 1] | at[dz] & row) & ~(row if dz == 1 else 0):
        return False
    ties: list[int] = []
    # the child's degrees, built at the first degree tie
    degs: list[int] | None = None
    nz: list[int] = []
    for v in range(z):
        dv = pdegs[v] + (row >> v & 1)
        if dv < dz:
            continue
        if dv > dz:
            if not _cuts_child(row, v, cuts[v]):
                return False
            continue
        if degs is None:
            degs = [d + (row >> w & 1) for w, d in enumerate(pdegs)]
            degs.append(dz)
            nz = sorted([degs[w] for w in bits(row)])
        nv = sorted([degs[w] for w in bits(pmasks[v] | (row >> v & 1) << z)])
        # a leaf is never a cut vertex
        if nv < nz or (dv > 1 and _cuts_child(row, v, cuts[v])):
            continue
        if nv > nz:
            return False
        ties.append(v)
    if not ties:
        return True
    verdict = parent.verdicts.get(row)
    if verdict is None:
        verdict = _marked_verdict(n, _child(pmasks, row), ties)
        for s in _orbit(row, parent.gens):
            parent.verdicts[s] = verdict
    return verdict


def _marked_verdict(n: int, masks: tuple[int, ...], ties: list[int]) -> bool:
    """True iff no tied vertex has a larger marked form than the last one."""
    z = n - 1
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
    n: int, masks: tuple[int, ...], gens: list[list[int]], deg_max: int, planar_only: bool
) -> list[tuple[int, ...]]:
    """Accepted one-vertex extensions, one per isomorphism class.

    gens generate Aut(parent), as _canonical_search gives them. Two
    accepted children are isomorphic iff their neighbour subsets lie in
    one Aut(parent) orbit, so the first accepted subset of each orbit
    stands for it and one search of the parent replaces a form per child.
    """
    parent = _parent_record(n, masks, gens)
    m = sum(parent.degs) // 2
    eligible = [1 << v for v in range(n) if parent.degs[v] < deg_max]
    child_n = n + 1
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for size in range(1, min(deg_max, len(eligible)) + 1):
        if planar_only and child_n >= 3 and m + size > 3 * child_n - 6:
            break
        for subset in combinations(eligible, size):
            row = sum(subset)
            if not _accepts_new_vertex(child_n, row, parent) or row in seen:
                continue
            seen.update(_orbit(row, parent.gens))
            child = _child(masks, row)
            if planar_only and not _decide(child_n, child):
                continue
            out.append(child)
    return out


def _walk(
    masks: tuple[int, ...], gens: list[list[int]], n_max: int, deg_max: int, planar_only: bool
) -> Iterator[tuple[int, ...]]:
    """The graph masks, then its subtree up to n_max vertices, in pre-order.

    gens generate Aut(masks). The subtree holds the connected graphs of
    maximum degree <= deg_max that descend from masks, planar ones only
    when planar_only is set. A child's one canonical search, for the
    generators its own children need, runs only when it is below n_max.
    Pre-order makes a graph's parent the last graph yielded with one
    vertex fewer.
    """
    yield masks
    if (n := len(masks)) < n_max:
        for child in _children(n, masks, gens, deg_max, planar_only):
            child_gens = _canonical_search(n + 1, child)[1] if n + 1 < n_max else []
            yield from _walk(child, child_gens, n_max, deg_max, planar_only)


def _levels(
    n_max: int, deg_max: int, planar_only: bool
) -> Iterator[list[tuple[int, ...]]]:
    """Each order's graphs from the walk from K1, as masks sorted by canonical form.

    An order is complete only once the walk has ended, so the first list
    comes after the whole walk. An order without graphs yields no list.
    """
    # the first byte of a form is the order, so one sort groups the orders
    ordered = sorted(
        _walk((0,), [], n_max, deg_max, planar_only),
        key=lambda masks: canonical_form_masks(len(masks), masks),
    )
    for _order, level in groupby(ordered, key=len):
        yield list(level)


def enumerate_connected(
    n_max: int, deg_max: int, planar_only: bool = False
) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs.

    Covers all orders 1..n_max with maximum degree <= deg_max, restricted
    to planar graphs when planar_only is set. Deterministic order: by
    order, then by canonical form. Eager: the first graph comes only once
    the whole walk has ended. The argument and budget checks raise on the
    first next().
    """
    if deg_max < 1:
        raise ValueError("deg_max must be at least 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _check_budget(n_max)
    for level in _levels(n_max, deg_max, planar_only):
        for masks in level:
            yield from_masks(len(masks), masks)
