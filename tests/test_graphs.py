from __future__ import annotations

import random
import tracemalloc

import pytest

from planarext import (
    Graph,
    build_graph,
    certificate,
    complement,
    complete,
    connected_components,
    disjoint_union,
    face_count,
    induced_subgraph,
    is_connected,
    is_planar,
    max_degree,
    pivotal_planar,
)
from planarext.graphs import bits, from_masks

from oracles import all_labeled_graphs, reference_bits, reference_graph_check


def test_graph_basic_invariants():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.m == 4
    assert g.degrees == (2, 2, 2, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edges() == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def _check_outcome(check, n, adj):
    try:
        check(n, adj)
    except ValueError as exc:
        return str(exc)
    return "ok"


def test_graph_check_matches_two_pass_reference():
    # seeded random symmetric rows with one or two listings flipped: a
    # flip adds w to the row of v or drops it (w == v adds a self-loop)
    rng = random.Random(17)
    outcomes = set()
    for _ in range(10000):
        n = rng.randint(1, 12)
        rows = [set() for _ in range(n)]
        p = rng.random()
        for v in range(n):
            for w in range(v):
                if rng.random() < p:
                    rows[v].add(w)
                    rows[w].add(v)
        for _ in range(rng.randint(1, 2)):
            rows[rng.randrange(n)] ^= {rng.randrange(n)}
        adj = tuple(tuple(sorted(r)) for r in rows)
        got = _check_outcome(Graph, n, adj)
        assert got == _check_outcome(reference_graph_check, n, adj), (n, adj)
        outcomes.add(got.split()[0])
    # symmetric after all (two flips cancel), asymmetric and self-looped
    assert outcomes == {"ok", "edge", "self-loop"}, outcomes


def test_graph_rejects_malformed_rows_naming_the_first_fault():
    # K40 with 5 dropped from the row of 30
    k40 = [tuple(w for w in range(40) if w != v) for v in range(40)]
    k40[30] = tuple(w for w in k40[30] if w != 5)
    cases = [
        (3, ((1,), (0,), (0,)), "edge (2,0) is not symmetric"),
        (3, ((1, 2), (0,), ()), "edge (0,2) is not symmetric"),
        (4, ((1, 3), (0,), (3,), (0,)), "edge (2,3) is not symmetric"),
        (2, ((1,), (0, 0)), "adjacency of 1 is not strictly ascending"),
        (2, ((0, 1), (0,)), "self-loop at 0"),
        (2, ((1,), (2,)), "label 2 out of range in adjacency of 1"),
        (2, ((-1, 1), (0,)), "adjacency of 0 is not strictly ascending"),
        (3, ((1, 5), (0, 1), ()), "label 5 out of range in adjacency of 0"),
        (3, ((1,), (0, 1), ()), "self-loop at 1"),
        (2, ((1,),), "adjacency length does not match vertex count"),
        (-1, (), "vertex count must be non-negative"),
        # rows must be tuples: a list compares unequal, hashes not, and mutates
        (2, [(1,), (0,)], "adjacency is not a tuple"),
        (2, ([1], [0]), "adjacency of 0 is not a tuple"),
        (3, ((1,), [0, 2], (1,)), "adjacency of 1 is not a tuple"),
        # as many listings above the diagonal as below, but not the same pair
        (3, ((2,), (0,), ()), "edge (0,2) is not symmetric"),
        (40, tuple(k40), "edge (5,30) is not symmetric"),
    ]
    for n, adj, message in cases:
        with pytest.raises(ValueError) as err:
            Graph(n, adj)
        assert str(err.value) == message
    g = Graph(3, ((1, 2), (0,), (0,)))
    assert g == build_graph(3, [(0, 1), (0, 2)]) and repr(g) == "Graph(n=3, m=2)"


def test_build_graph_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_empty_and_single_vertex():
    empty = Graph(0, ())
    assert empty.n == 0 and empty.m == 0
    single = build_graph(1, [])
    assert single.n == 1 and single.m == 0
    assert is_connected(empty) and is_connected(single)


def test_from_masks_round_trip():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    masks = tuple(
        sum(1 << w for w in g.adj[v]) for v in range(g.n)
    )
    assert from_masks(g.n, masks).adj == g.adj


def test_disjoint_union_offsets_labels():
    a = build_graph(3, [(0, 1), (1, 2)])
    b = build_graph(2, [(0, 1)])
    u = disjoint_union(a, b)
    assert u.n == 5 and u.m == 3
    assert u.has_edge(3, 4) and not u.has_edge(2, 3)
    assert disjoint_union().n == 0


def test_complement():
    g = build_graph(4, [(0, 1)])
    c = complement(g)
    assert c.m == 5 and not c.has_edge(0, 1) and c.has_edge(2, 3)
    assert complement(c).adj == g.adj


def test_max_degree():
    assert max_degree(build_graph(4, [(0, 1), (0, 2), (0, 3)])) == 3
    assert max_degree(build_graph(3, [])) == 0
    assert max_degree(build_graph(0, [])) == 0


def test_induced_subgraph_relabels():
    g = build_graph(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
    h = induced_subgraph(g, [0, 2, 4])
    assert h.n == 3 and h.m == 3
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])


def test_connected_components_structure():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4)])
    comps = connected_components(g)
    assert [c.n for c, _ in comps] == [3, 2, 1]
    assert [labels for _, labels in comps] == [(0, 1, 2), (3, 4), (5,)]
    assert not is_connected(g)


def test_component_counts_match_components():
    rng = random.Random(7)
    graphs = [from_masks(n, m) for n in range(6) for m in all_labeled_graphs(n)]
    for n in (20, 64, 65, 130):
        for p in (0.005, 0.02, 0.1):
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            graphs.append(build_graph(n, edges))
    # is_connected stops after its first flood; connected_components floods all
    for g in graphs:
        assert is_connected(g) == (len(connected_components(g)) <= 1)


def test_component_queries_build_no_masks():
    # components are flooded over the rows; a Graph keeps no bitmask copy
    # of them, whose rows would grow with the largest label
    rim = range(1, 2001)
    wheel = build_graph(2001, [(0, i) for i in rim] + [(i, i % 2000 + 1) for i in rim])
    graphs = (complete(4), pivotal_planar(5, 6), build_graph(6, [(0, 1), (2, 3)]), wheel)
    for g in graphs + (Graph(0, ()),):
        embedding = is_planar(g).embedding
        for query in (
            lambda h: certificate(h, 6, 8),
            connected_components,
            is_connected,
            lambda h: face_count(h, embedding),
        ):
            query(Graph(g.n, g.adj))


def test_connected_components_memory():
    # 42,861 vertices in 2,858 components: the flood holds one flag per
    # vertex, where bitmask rows up to the largest label peaked at 129 MB
    g = pivotal_planar(6, 20001)
    tracemalloc.start()
    try:
        comps = connected_components(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(comps) == 2858
    assert peak <= 400 * g.n, peak / g.n


def test_connected_components_match_induced_subgraphs():
    rng = random.Random(25)
    g = pivotal_planar(6, 12)
    perm = rng.sample(range(g.n), g.n)
    graphs = [build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])]
    while len(graphs) < 61:  # 60 random graphs with more than one component
        n = rng.randint(2, 80)
        h = build_graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 1.5 / n])
        if not is_connected(h):
            graphs.append(h)
    spread = 0
    for g in graphs:
        comps = connected_components(g)
        assert len(comps) > 1
        assert sorted(v for _, labels in comps for v in labels) == list(range(g.n))
        assert [labels[0] for _, labels in comps] == sorted(labels[0] for _, labels in comps)
        for c, labels in comps:
            assert list(labels) == sorted(labels) and is_connected(c)
            assert c == induced_subgraph(g, labels)
            spread += labels[-1] - labels[0] >= len(labels)
    assert spread > 100  # most components have non-contiguous labels


def test_bits_matches_reference_loop():
    # the table covers every mask below 2**10; the loop covers the rest
    rng = random.Random(11)
    masks = list(range(1 << 10))
    masks += [0, 1 << 10, (1 << 11) - 1, 1 << 258046, (1 << 1024) - 1]
    masks.append(rng.getrandbits(5000))
    for mask in masks:
        got = bits(mask)
        assert type(got) is tuple
        assert got == tuple(reference_bits(mask)), mask
