from __future__ import annotations

import random

import pytest

from planarext import (
    Matching,
    atlas,
    build_graph,
    complete,
    extremal_general,
    has_perfect_matching,
    is_factor_critical,
    matching,
    matching_number,
    maximum_matching,
    pivotal_planar,
    star,
)
from planarext.enumeration import enumerate_connected
from planarext.graphs import Graph, disjoint_union, from_masks, induced_subgraph
from planarext.matching import _mate_array

from oracles import (
    all_labeled_graphs,
    brute_matching_number,
    reference_is_factor_critical,
    reference_mate_array,
)


def _random_graph(rng: random.Random, n: int, max_edges: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    count = rng.randint(0, min(max_edges, len(pairs)))
    return build_graph(n, pairs[:count])


def test_matching_validates_against_host():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2)])
    m = Matching(g, ((0, 1), (2, 3)))
    assert m.size == 2
    with pytest.raises(ValueError):
        Matching(g, ((0, 2),))  # not an edge
    with pytest.raises(ValueError):
        Matching(g, ((0, 1), (1, 2)))  # vertex reused
    with pytest.raises(ValueError):
        Matching(g, ((1, 0),))  # not normalized u < v


def test_maximum_matching_is_valid_and_maximum_small():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = _random_graph(rng, n, 12)
        m = maximum_matching(g)
        assert m.size == brute_matching_number(g)


def test_structured_matching_numbers():
    assert matching_number(complete(4)) == 2
    assert matching_number(complete(5)) == 2
    assert matching_number(star(7)) == 1
    path = build_graph(6, [(i, i + 1) for i in range(5)])
    assert matching_number(path) == 3
    c7 = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    assert matching_number(c7) == 3
    assert matching_number(build_graph(3, [])) == 0


def test_blossom_handles_odd_structures():
    # two triangles joined by a path: greedy can trap itself, blossoms cannot
    g = build_graph(
        8,
        [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 5),
        ],
    )
    assert matching_number(g) == brute_matching_number(g) == 4
    # Petersen graph has a perfect matching
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    assert has_perfect_matching(petersen)
    assert matching_number(petersen) == 5


def test_perfect_matching_detection():
    assert has_perfect_matching(build_graph(2, [(0, 1)]))
    assert not has_perfect_matching(build_graph(2, []))
    assert not has_perfect_matching(complete(5))
    assert has_perfect_matching(complete(6))
    assert not has_perfect_matching(star(3))


def test_factor_critical():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_factor_critical(c5)
    assert is_factor_critical(complete(5))
    assert is_factor_critical(build_graph(1, []))
    assert not is_factor_critical(build_graph(0, []))
    assert not is_factor_critical(build_graph(2, []))
    assert not is_factor_critical(build_graph(2, [(0, 1)]))
    assert not is_factor_critical(complete(4))  # even order
    assert not is_factor_critical(star(4))
    c4 = build_graph(4, [(i, (i + 1) % 4) for i in range(4)])
    assert not is_factor_critical(c4)
    for name in ("K5_MINUS", "A4", "A5", "A6", "A7"):
        assert is_factor_critical(atlas(name))


def test_factor_critical_matches_reference_on_labelled_graphs():
    # every labelled graph with at most six vertices. A version that searched
    # from one of several exposed vertices would read p[match[v]] as p[-1] at
    # another exposed v; the smallest graph where it answers True has six
    found = 0
    for n in range(7):
        for masks in all_labeled_graphs(n):
            g = from_masks(n, masks)
            want = reference_is_factor_critical(g)
            assert is_factor_critical(g) == want, g.edges()
            found += want
    assert found == 235


def test_factor_critical_matches_reference_on_connected_graphs():
    graphs = list(enumerate_connected(7, 6))
    assert len(graphs) == 996
    for g in graphs:
        assert is_factor_critical(g) == reference_is_factor_critical(g), g.edges()


def test_factor_critical_matches_reference_on_random_graphs():
    # disconnected graphs included: unions of odd parts, each of which may be
    # factor-critical, and sparse graphs with isolated vertices
    rng = random.Random(20261021)
    found = 0
    for i in range(2000):
        if i % 2:
            g = _odd_union(rng)
        else:
            n = rng.randint(0, 11)
            p = rng.random()
            g = build_graph(
                n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            )
        want = reference_is_factor_critical(g)
        assert is_factor_critical(g) == want, g.edges()
        found += want
    assert found == 435


def test_matching_number_on_masks_path():
    g = from_masks(3, (0b010, 0b101, 0b010))
    assert matching_number(g) == 1


def _odd_union(rng: random.Random):
    """Randomly relabeled disjoint union of odd components, at most 10 vertices."""
    parts = []
    total = 0
    while True:
        k = rng.choice((1, 3, 3, 5, 5, 7))
        if total + k > 10:
            break
        # a spanning cycle keeps each odd component connected
        edges = [(i, (i + 1) % k) for i in range(k)] if k > 1 else []
        edges += [(u, v) for v in range(k) for u in range(v) if rng.random() < 0.3]
        parts.append(build_graph(k, edges))
        total += k
    g = disjoint_union(*parts)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# found by random search: a later search must contract a blossom through
# vertices that an earlier augmenting search had already labelled
_STALE_SEARCH_STATE = [
    [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 9), (1, 4), (1, 5), (1, 7),
     (2, 3), (2, 4), (2, 6), (2, 8), (3, 5), (3, 7), (4, 9)],
    [(0, 2), (0, 6), (0, 8), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
     (2, 5), (3, 4), (4, 7), (6, 7), (6, 8), (7, 8), (7, 9)],
]


def test_matching_number_matches_brute_force_at_scale():
    for edges in _STALE_SEARCH_STATE:
        g = build_graph(10, edges)
        assert matching_number(g) == brute_matching_number(g) == 5
    rng = random.Random(2022)
    for i in range(2000):
        if i % 2:
            g = _odd_union(rng)
        else:
            n = rng.randint(1, 10)
            p = rng.random()
            g = build_graph(
                n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            )
        assert matching_number(g) == brute_matching_number(g), g.edges()


def test_extremal_families_have_matching_number_nu_minus_one():
    for d in range(2, 11):
        for nu in range(2, 41):
            assert matching_number(pivotal_planar(d, nu)) == nu - 1
            assert matching_number(extremal_general(d, nu)) == nu - 1


def _mate_size(g, match: list[int]) -> int:
    """The size of the matching that the mate array match gives, checked in g."""
    assert len(match) == g.n
    assert all(w == -1 or match[w] == v for v, w in enumerate(match))
    return Matching(g, tuple((v, w) for v, w in enumerate(match) if w > v)).size


def _maximum_matchings(g) -> list[list[int]]:
    """Every maximum matching of g as a mate array, by brute force."""
    found: list[list[int]] = []
    edges = g.edges()

    def extend(i: int, match: list[int]) -> None:
        if i == len(edges):
            found.append(list(match))
            return
        extend(i + 1, match)
        u, v = edges[i]
        if match[u] == match[v] == -1:
            match[u], match[v] = v, u
            extend(i + 1, match)
            match[u] = match[v] = -1

    extend(0, [-1] * g.n)
    best = max(_mate_size(g, m) for m in found)
    return [m for m in found if _mate_size(g, m) == best]


def _seeded_graphs():
    yield from enumerate_connected(8, 5, True)
    yield from enumerate_connected(7, 7, True)
    rng = random.Random(20261019)
    for _ in range(2000):
        yield _random_graph(rng, rng.randint(1, 12), 30)


def test_seeded_matching_is_maximum():
    # seeded with a maximum matching of g less its last vertex, the one
    # search from that vertex must reach the matching number of g; below
    # nine vertices, with every such seed
    for g in _seeded_graphs():
        parent = induced_subgraph(g, range(g.n - 1))
        want = matching_number(g)
        seeds = _maximum_matchings(parent) if g.n <= 8 else [_mate_array(parent)]
        for seed in seeds:
            copy = list(seed)
            assert _mate_size(g, _mate_array(g, seed)) == want, (g, seed)
            assert seed == copy


def test_seeded_matching_augments_through_a_blossom():
    # g - 7 is matched by 0-1, 2-3, 4-5, leaving 6 exposed. The one
    # augmenting path from 7 is 7 0 1 5 4 3 2 6: it enters the 5-cycle
    # 1 2 3 4 5 at its base 1 and leaves from 2, which a search that never
    # contracts the cycle labels odd and so never leaves from
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 6), (7, 0)])
    seed = [1, 0, 3, 2, 5, 4, -1]
    assert _mate_size(induced_subgraph(g, range(7)), seed) == brute_matching_number(
        induced_subgraph(g, range(7))
    )
    match = _mate_array(g, seed)
    assert _mate_size(g, match) == 4 == brute_matching_number(g)
    assert match == [7, 5, 6, 4, 3, 1, 2, 0]


def test_seeded_blossom_links_each_inner_blossom_at_its_base():
    # from 7, the search contracts a blossom that holds an inner one. Had
    # the walk linked the inner blossom's base rather than the vertex it
    # stood on, it would have stopped at that base before setting the
    # inner blossom's p links, and found 3 pairs
    g = build_graph(
        8,
        [(0, 3), (0, 5), (0, 6), (0, 7), (1, 4), (1, 7), (2, 3), (2, 5), (3, 5), (4, 5)],
    )
    seed = [3, 4, 5, 0, 1, 2, -1]
    parent = induced_subgraph(g, range(7))
    assert _mate_size(parent, seed) == brute_matching_number(parent) == 3
    assert _mate_size(g, _mate_array(g, seed)) == brute_matching_number(g) == 4


def _wheel(k: int):
    """W_k: hub 0 joined to every vertex of the rim cycle 1..k."""
    rim = range(1, k + 1)
    return build_graph(k + 1, [(0, i) for i in rim] + [(i, i % k + 1) for i in rim])


def test_mate_array_matches_reference_on_wheels():
    for k in range(3, 401):
        g = _wheel(k)
        want = (k + 1) // 2
        assert _mate_size(g, _mate_array(g)) == _mate_size(g, reference_mate_array(g)) == want


def test_mate_array_matches_reference_on_random_graphs():
    # unseeded, and seeded with a maximum matching of g less its last vertex
    rng = random.Random(20261020)
    for _ in range(2000):
        n = rng.randint(1, 60)
        p = rng.random() * (0.3 if rng.random() < 0.5 else 4 / n)
        g = build_graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        want = _mate_size(g, reference_mate_array(g))
        assert _mate_size(g, _mate_array(g)) == want, g.edges()
        if n > 1:
            seed = reference_mate_array(induced_subgraph(g, range(n - 1)))
            assert _mate_size(g, _mate_array(g, seed)) == want, g.edges()
            assert _mate_size(g, reference_mate_array(g, seed)) == want, g.edges()


def test_factor_critical_runs_one_matching_and_builds_no_graph(monkeypatch):
    # one matching and one search from its exposed vertex, where deleting
    # each vertex in turn builds 201 induced subgraphs and matches each
    k = 200
    wheel = _wheel(k)
    pendant = build_graph(k + 3, wheel.edges() + ((1, k + 1), (k + 1, k + 2)))
    calls = {"match": 0, "build": 0}
    mate_array, post_init = matching._mate_array, Graph.__post_init__

    def counted_mate_array(*args, **kwargs):
        calls["match"] += 1
        return mate_array(*args, **kwargs)

    def counted_post_init(self):
        calls["build"] += 1
        post_init(self)

    monkeypatch.setattr(matching, "_mate_array", counted_mate_array)
    monkeypatch.setattr(Graph, "__post_init__", counted_post_init)
    for g, want in ((wheel, True), (pendant, False)):
        calls.update(match=0, build=0)
        assert is_factor_critical(g) is want
        assert calls == {"match": 1, "build": 0}
