from __future__ import annotations

import hashlib
import random

import pytest

from planarext import (
    EdgeColoring,
    Graph,
    InstanceTooLargeError,
    Matching,
    atlas,
    build_graph,
    chromatic_index_exact,
    complete,
    enumerate_connected,
    extremal_general,
    max_degree,
    partition_bound_check,
    pivotal_planar,
    star,
    vizing_color,
)

from oracles import reference_vizing_color


def _color_classes_are_matchings(coloring: EdgeColoring) -> bool:
    by_color: dict[int, list[tuple[int, int]]] = {}
    for edge, c in coloring.color_of.items():
        by_color.setdefault(c, []).append(edge)
    for edges in by_color.values():
        Matching(coloring.host, tuple(sorted(edges)))  # raises if not disjoint
    return True


def test_vizing_on_atlas():
    for name in ("K5_MINUS", "A4", "A5", "A6", "A7"):
        g = atlas(name)
        coloring = vizing_color(g)
        assert coloring.palette_size <= max_degree(g) + 1
        assert _color_classes_are_matchings(coloring)


def test_vizing_on_planar_sample():
    sample = [g for g in enumerate_connected(6, 5, planar_only=True) if g.m > 0]
    assert len(sample) >= 100
    for g in sample[:150]:
        coloring = vizing_color(g)
        assert coloring.palette_size <= max_degree(g) + 1
        assert _color_classes_are_matchings(coloring)


def test_vizing_colorings_pinned():
    # every connected graph on at most 7 vertices; computed before the
    # path walk ran for a color already free at u
    digest = hashlib.sha256()
    count = 0
    for g in enumerate_connected(7, 6):
        coloring = vizing_color(g)
        colors = sorted(coloring.color_of.items())
        digest.update(repr((coloring.palette_size, colors)).encode("ascii"))
        count += 1
    assert count == 996
    assert digest.hexdigest() == (
        "14920230868a0b7854627c1445f09aa64ad93bf0d10712ddd64305543209f968"
    )


def _random_multicomponent():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        yield build_graph(n, pairs[: rng.randint(0, len(pairs))])


def test_vizing_on_random_multicomponent():
    for g in _random_multicomponent():
        coloring = vizing_color(g)
        assert coloring.palette_size <= max_degree(g) + 1


def test_edge_coloring_validation():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        EdgeColoring(g, {(0, 1): 0, (1, 2): 0}, 1)  # improper at vertex 1
    with pytest.raises(ValueError):
        EdgeColoring(g, {(0, 1): 0}, 1)  # missing edge
    with pytest.raises(ValueError):
        EdgeColoring(g, {(0, 1): 2, (1, 2): 0}, 2)  # color outside palette
    EdgeColoring(g, {(0, 1): 0, (1, 2): 1}, 2)


def test_partition_bound_examples():
    threshold, exceeds = partition_bound_check(complete(3))
    assert (threshold, exceeds) == (2, True)
    result = partition_bound_check(star(5))
    assert result.threshold == 5 and not result.exceeds
    result = partition_bound_check(pivotal_planar(5, 3))
    assert result.threshold == 8 and result.exceeds


def test_partition_bound_certifies_class_two():
    instances = [
        complete(3),
        pivotal_planar(5, 3),
        build_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
        atlas("K5_MINUS"),
        complete(5),
    ]
    for g in instances:
        result = partition_bound_check(g)
        if result.exceeds and g.m <= 20:
            assert chromatic_index_exact(g) == max_degree(g) + 1


def test_exact_chromatic_index_known_values():
    assert chromatic_index_exact(build_graph(2, [(0, 1)])) == 1
    assert chromatic_index_exact(build_graph(0, [])) == 0
    c4 = build_graph(4, [(i, (i + 1) % 4) for i in range(4)])
    assert chromatic_index_exact(c4) == 2
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_index_exact(c5) == 3
    assert chromatic_index_exact(complete(4)) == 3
    assert chromatic_index_exact(star(6)) == 6
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert chromatic_index_exact(k33) == 3  # bipartite: index equals degree


def test_petersen_is_class_two():
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    result = partition_bound_check(petersen)
    assert not result.exceeds  # 15 edges = 3*5 exactly, certificate silent
    assert chromatic_index_exact(petersen) == 4


def test_exact_solver_budget():
    with pytest.raises(InstanceTooLargeError):
        chromatic_index_exact(complete(10))


def _wheel(k: int) -> Graph:
    """W_k: hub 0 joined to every vertex of the rim cycle 1..k."""
    rim = range(1, k + 1)
    return build_graph(k + 1, [(0, i) for i in rim] + [(i, i % k + 1) for i in rim])


def _coloring_corpus():
    """The graphs this file colors, and the extremal families at small nu."""
    yield from (atlas(name) for name in ("K5_MINUS", "A4", "A5", "A6", "A7"))
    yield from enumerate_connected(7, 6)
    yield from _random_multicomponent()
    for d in range(2, 11):
        for nu in range(2, 13):
            yield pivotal_planar(d, nu)
            yield extremal_general(d, nu)


def test_vizing_matches_reference():
    # each fan is one pass over u's colored edges; the reference restarts
    # its scan of u's row at every fan step, and both build the same fan.
    # Every wheel up to W_100, then every eleventh up to W_300
    for g in [*map(_wheel, [*range(3, 101), *range(101, 301, 11)]), *_coloring_corpus()]:
        assert vizing_color(g).color_of == reference_vizing_color(g).color_of


class _CountedRow(tuple):
    """An adjacency row that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        _CountedRow.reads += 1
        return super().__iter__()


def test_vizing_reads_the_hub_row_once_per_edge():
    # on W_300 every fan is rooted at the hub 0; a fan that rescanned the
    # hub's row at each step read it 45,152 times
    g = _wheel(300)
    counted = Graph(g.n, (_CountedRow(g.adj[0]), *g.adj[1:]))
    _CountedRow.reads = 0
    coloring = vizing_color(counted)
    assert _CountedRow.reads <= 2 * 300
    assert coloring.color_of == vizing_color(g).color_of
