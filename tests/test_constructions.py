from __future__ import annotations

import pytest

from planarext import (
    AtlasName,
    atlas,
    build_graph,
    certificate,
    complete,
    connected_components,
    constructions,
    extremal_general,
    is_factor_critical,
    is_planar,
    k_prime,
    matching_number,
    max_degree,
    max_edges_general,
    pivotal_planar,
    star,
)
from planarext.canon import canonical_form
from planarext.constructions import _general_recipe, _planar_recipe

from oracles import reference_extremal_general, reference_pivotal_planar

GRID = [(d, nu) for d in range(-1, 13) for nu in range(-1, 45)]


ATLAS_STATS = {
    "K5_MINUS": (5, 9, 4, 2),
    "A4": (9, 21, 5, 4),
    "A5": (11, 26, 5, 5),
    "A6": (13, 31, 5, 6),
    "A7": (15, 37, 5, 7),
}


def test_atlas_statistics():
    for name, (n, m, maxdeg, nu) in ATLAS_STATS.items():
        g = atlas(name)
        assert g.n == n
        assert g.m == m
        assert max_degree(g) == maxdeg
        assert matching_number(g) == nu
        assert is_planar(g).verdict
        assert is_factor_critical(g)


def test_k5_minus_is_k5_without_one_edge():
    # the atlas table's first row: labels 1..5 with the edge 4-5 absent
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)]
    assert atlas("K5_MINUS") == build_graph(5, edges)


def test_atlas_accepts_enum_and_string():
    assert atlas(AtlasName.A4).adj == atlas("A4").adj
    with pytest.raises(ValueError):
        atlas("A8")


def test_star_and_complete():
    s = star(5)
    assert s.n == 6 and s.m == 5
    assert max_degree(s) == 5
    k = complete(6)
    assert k.n == 6 and k.m == 15
    assert star(0).n == 1
    assert complete(1).m == 0
    for build, message in ((star, "leaf count"), (complete, "order")):
        with pytest.raises(ValueError, match=f"^{message} must be nonnegative$"):
            build(-1)


def test_k_prime_shape():
    # d+1 vertices; a near-perfect matching plus one extra edge removed,
    # so every degree is below d
    for d in (2, 4, 6, 8):
        g = k_prime(d)
        assert g.n == d + 1
        assert g.m == d * (d + 1) // 2 - d // 2 - 1
        assert max_degree(g) == d - 1
        assert matching_number(g) == d // 2
        if d >= 4:
            assert is_factor_critical(g)
    with pytest.raises(ValueError):
        k_prime(5)
    with pytest.raises(ValueError):
        k_prime(0)


def test_pivotal_certificates_grid():
    for d in range(2, 11):
        for nu in range(2, 14):
            g = pivotal_planar(d, nu)
            rep = certificate(g, d, nu)
            assert rep.tight, (d, nu)


def test_pivotal_component_structure():
    # d=6 splits the budget into blocks of 7 plus a remainder
    g = pivotal_planar(6, 9)  # budget 8 = 7 + 1
    comps = [c for c, _ in connected_components(g)]
    assert comps[0].n == 15 and comps[0].m == 37
    assert comps[1].n == 6 and comps[1].m == 5
    g = pivotal_planar(6, 7)  # budget 6 = remainder 6 -> 9-vertex block + stars
    comps = [c for c, _ in connected_components(g)]
    assert comps[0].n == 9 and comps[0].m == 21
    assert all(c.m == 5 for c in comps[1:])
    g = pivotal_planar(5, 6)  # budget 5 = two 5-vertex blocks + a star
    comps = [c for c, _ in connected_components(g)]
    assert [c.n for c in comps] == [5, 5, 5]
    assert [c.m for c in comps] == [9, 9, 4]


def test_extremal_components_are_stars_or_factor_critical():
    # the paper's structure: each component of an edge-extremal graph is a
    # star K_{1,k} (k >= 0) or factor-critical, as the oracle's caps assume
    parts = set()
    for d in range(2, 11):
        for nu in range(2, 41):
            for g in (pivotal_planar(d, nu), extremal_general(d, nu)):
                parts.update(c for c, _ in connected_components(g))
    forms = {}
    for c in parts:
        forms.setdefault(canonical_form(c), c)
    assert len(forms) == 20
    for c in forms.values():
        star_shaped = c.m == c.n - 1 and max(c.degrees) == c.n - 1
        assert star_shaped or is_factor_critical(c), c.edges()


def test_pivotal_edge_cases():
    assert pivotal_planar(6, 1).n == 0
    assert pivotal_planar(1, 5).n == 0
    g = pivotal_planar(2, 4)  # three disjoint edges
    assert g.n == 6 and g.m == 3
    assert max_degree(g) == 1
    g = pivotal_planar(3, 5)  # four triangles
    assert g.n == 12 and g.m == 12


def test_extremal_general_grid():
    for d in range(2, 11):
        for nu in range(2, 14):
            g = extremal_general(d, nu)
            maxdeg = max_degree(g)
            assert maxdeg < d
            assert matching_number(g) < nu
            assert g.m == max_edges_general(d, nu)


def test_extremal_general_not_always_planar():
    g = extremal_general(7, 4)  # complete blocks on 7 vertices
    assert not is_planar(g).verdict
    assert is_planar(extremal_general(3, 5)).verdict


def test_families_match_the_reference_builders():
    for d, nu in GRID:
        assert pivotal_planar(d, nu) == reference_pivotal_planar(d, nu), (d, nu)
        assert extremal_general(d, nu) == reference_extremal_general(d, nu), (d, nu)


def test_recipe_orders_match_the_built_graphs():
    families = ((_planar_recipe, pivotal_planar), (_general_recipe, extremal_general))
    for d, nu in GRID:
        for recipe, build in families:
            entries = recipe(d, nu)
            assert sum(copies * n for copies, n, _ in entries) == build(d, nu).n, (d, nu)
            for copies, n, make in entries:
                assert make().n == n, (d, nu)


def _forbid(monkeypatch, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    for name in names:
        monkeypatch.setattr(constructions, name, refuse)


def test_builders_refuse_unions_graph6_cannot_print(monkeypatch):
    _forbid(monkeypatch, "star", "complete", "k_prime", "atlas", "disjoint_union")
    for build, d, nu, order in (
        (pivotal_planar, 6, 10**8, 214285716),
        (extremal_general, 10**9, 2, 10**9),
        (extremal_general, 6, 10**8, 233333331),
    ):
        message = f"at most 258047 vertices, the construction has {order}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(d, nu)


def test_component_types_without_copies_are_not_built(monkeypatch):
    _forbid(monkeypatch, "complete")
    g = extremal_general(2001, 2)  # no K_2001, one 2000-star
    assert (g.n, g.m, max_degree(g)) == (2001, 2000, 2000)
    _forbid(monkeypatch, "star")
    assert pivotal_planar(6, 8).m == 37  # one A7 and no star
