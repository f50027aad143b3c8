"""Constructors for the named graphs and extremal families.

The five atlas graphs (K5 minus an edge and A4..A7) are transcribed from
drawings, so their constructor cross-checks every published statistic
(order, size, maximum degree, matching number, planarity) on first use
and refuses to hand out a graph that fails any of them. The pivotal
families assemble disjoint unions that meet the planar bound exactly;
the general-case families meet the unrestricted bound but need not be
planar. Each family is one recipe of component types, copies and
orders, so that the union's order is known before any part is built.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, partial
from typing import Callable

from .bounds import max_edges_general, max_edges_planar
from .graphs import Graph, build_graph, disjoint_union, max_degree
from .matching import matching_number
from .planarity import is_planar
from .serialize import _G6_MAX_ORDER


class AtlasName(Enum):
    K5_MINUS = "K5_MINUS"
    A4 = "A4"
    A5 = "A5"
    A6 = "A6"
    A7 = "A7"


def star(k: int) -> Graph:
    """The star K_{1,k}: center 0 joined to k leaves."""
    if k < 0:
        raise ValueError("leaf count must be nonnegative")
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def k_prime(d: int) -> Graph:
    """K_d minus a perfect matching, plus an apex adjacent to d-1 vertices.

    Defined for even d only; the apex is vertex d and misses vertex d-1.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("k_prime requires an even degree parameter >= 2")
    edges = [
        (i, j)
        for i in range(d)
        for j in range(i + 1, d)
        if not (j == i + 1 and i % 2 == 0)
    ]
    edges.extend((i, d) for i in range(d - 1))
    return build_graph(d + 1, edges)


# adjacency keyed by figure labels: K5 minus the edge 4-5, then A4..A7
# as transcribed from drawings
_ATLAS_RAW: dict[AtlasName, dict[int, tuple[int, ...]]] = {
    AtlasName.K5_MINUS: {
        1: (2, 3, 4, 5),
        2: (3, 4, 5),
        3: (4, 5),
    },
    AtlasName.A4: {
        1: (2, 3, 4, 5, 6),
        2: (3, 6, 9, 12),
        3: (4, 9),
        4: (5, 9, 10),
        5: (6, 10, 12),
        6: (12,),
        9: (10, 12),
        10: (12,),
    },
    AtlasName.A5: {
        1: (2, 3, 4, 5, 6),
        2: (3, 6, 7, 9),
        3: (4, 7, 8),
        4: (5, 8, 10),
        5: (6, 10, 11),
        6: (9, 11),
        7: (8, 9),
        8: (10,),
        9: (10, 11),
        10: (11,),
    },
    AtlasName.A6: {
        1: (2, 3, 4, 5, 6),
        2: (3, 6, 7, 8),
        3: (4, 8, 9),
        4: (5, 9, 10),
        5: (6, 10, 13),
        6: (7, 13),
        7: (8, 11),
        8: (11, 12),
        9: (10, 12),
        10: (12, 13),
        11: (12, 13),
        12: (13,),
    },
    AtlasName.A7: {
        1: (2, 3, 4, 5, 6),
        2: (3, 6, 7, 8),
        3: (4, 8, 9),
        4: (5, 9, 10),
        5: (6, 10, 12),
        6: (7, 12),
        7: (8, 13, 15),
        8: (13, 14),
        9: (10, 11, 14),
        10: (11, 12),
        11: (12, 14, 15),
        12: (15,),
        13: (14, 15),
        14: (15,),
    },
}

# published statistics: (n, edges, max degree, matching number)
_ATLAS_STATS: dict[AtlasName, tuple[int, int, int, int]] = {
    AtlasName.K5_MINUS: (5, 9, 4, 2),
    AtlasName.A4: (9, 21, 5, 4),
    AtlasName.A5: (11, 26, 5, 5),
    AtlasName.A6: (13, 31, 5, 6),
    AtlasName.A7: (15, 37, 5, 7),
}


def _build_atlas(name: AtlasName) -> Graph:
    raw = _ATLAS_RAW[name]
    labels = sorted(set(raw) | {w for row in raw.values() for w in row})
    index = {label: i for i, label in enumerate(labels)}
    edges = [(index[v], index[w]) for v, row in raw.items() for w in row]
    return build_graph(len(labels), edges)


@cache
def _checked_atlas(name: AtlasName) -> Graph:
    g = _build_atlas(name)
    n, m, maxdeg, nu = _ATLAS_STATS[name]
    got = (g.n, g.m, max_degree(g), matching_number(g))
    if got != (n, m, maxdeg, nu):
        raise AssertionError(f"{name.value}: {got} != {(n, m, maxdeg, nu)}")
    if not is_planar(g).verdict:
        raise AssertionError(f"{name.value}: transcription is non-planar")
    return g


def atlas(name: AtlasName | str) -> Graph:
    """One of the five transcribed extremal graphs, statistics re-verified.

    A transcription error cannot pass silently: the first access checks
    order, size, maximum degree, matching number and planarity against the
    published values and raises AssertionError on any mismatch.
    """
    # normalised first, so that a bad name is a ValueError, not a cache key
    return _checked_atlas(AtlasName(name))


# one entry per component type, largest first: (copies, order, builder)
_Recipe = list[tuple[int, int, Callable[[], Graph]]]


def _planar_recipe(d: int, nu: int) -> _Recipe:
    k = nu - 1
    if d < 2 or k < 1:
        return []
    if d == 4:
        return [(k // 2, 5, partial(k_prime, 4)), (k % 2, 4, partial(star, 3))]
    if d == 5:
        return [(k // 2, 5, partial(atlas, AtlasName.K5_MINUS)), (k % 2, 5, partial(star, 4))]
    if d == 6:
        q, r = divmod(k, 7)
        a4 = int(r >= 4)
        return [
            (q, 15, partial(atlas, AtlasName.A7)),
            (a4, 9, partial(atlas, AtlasName.A4)),
            (r - 4 * a4, 6, partial(star, 5)),
        ]
    # K2 for d = 2, triangles for d = 3, (d-1)-stars otherwise: d vertices each
    return [(k, d, partial(complete, d) if d <= 3 else partial(star, d - 1))]


def _general_recipe(d: int, nu: int) -> _Recipe:
    k = nu - 1
    if d < 2 or k < 1:
        return []
    q, r = divmod(k, d // 2)
    big = (q, d, partial(complete, d)) if d % 2 else (q, d + 1, partial(k_prime, d))
    return [big, (r, d, partial(star, d - 1))]


def _assemble(recipe: _Recipe) -> Graph:
    """The union a recipe lists, each component type with copies built once.

    An order graph6 cannot print raises ValueError before anything is built.
    """
    order = sum(copies * n for copies, n, _build in recipe)
    if order > _G6_MAX_ORDER:
        raise ValueError(f"at most {_G6_MAX_ORDER} vertices, the construction has {order}")
    return disjoint_union(
        *[g for copies, _n, build in recipe if copies for g in [build()] * copies]
    )


def pivotal_planar(d: int, nu: int) -> Graph:
    """The planar extremal family for (d, nu): meets max_edges_planar exactly.

    Disjoint union, largest components first: triangles for d=3, K'_4 or
    K5 minus an edge plus a leftover star for d in {4,5}, copies of A7
    with an A4/star remainder for d=6, and bare (d-1)-stars otherwise.
    Above 258,047 vertices it raises ValueError before building anything.
    """
    g = _assemble(_planar_recipe(d, nu))
    if g.m != max_edges_planar(d, nu):
        raise AssertionError(f"pivotal_planar({d}, {nu}) has {g.m} edges, not the bound")
    return g


def extremal_general(d: int, nu: int) -> Graph:
    """The unrestricted extremal family: meets max_edges_general exactly.

    With nu-1 = q*ceil((d-1)/2) + r, returns q copies of K'_d (d even) or
    K_d (d odd) followed by r stars K_{1,d-1}. Not planar in general.
    Above 258,047 vertices it raises ValueError before building anything.
    """
    g = _assemble(_general_recipe(d, nu))
    if g.m != max_edges_general(d, nu):
        raise AssertionError(f"extremal_general({d}, {nu}) has {g.m} edges, not the bound")
    return g
