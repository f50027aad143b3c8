from __future__ import annotations

import ast
import hashlib
from collections import Counter
from pathlib import Path

import pytest

from planarext import (
    BudgetExceededError,
    atlas,
    canonical_form,
    complete,
    enumerate_connected,
    is_connected,
    is_planar,
    max_degree,
)
from planarext import enumeration
from planarext.canon import canonical_form_masks
from planarext.graphs import from_masks

from oracles import (
    all_labeled_graphs,
    brute_is_planar,
    mask_connected,
    reference_accepts_new_vertex,
    reference_children,
)


def _brute_classes(n_max: int, deg_max: int, planar_only: bool) -> set[bytes]:
    forms: set[bytes] = set()
    for n in range(1, n_max + 1):
        for masks in all_labeled_graphs(n):
            if not mask_connected(n, masks):
                continue
            g = from_masks(n, masks)
            if max_degree(g) > deg_max:
                continue
            if planar_only and not brute_is_planar(g):
                continue
            forms.add(canonical_form(g))
    return forms


@pytest.mark.parametrize(
    "n_max,deg_max,planar_only",
    [
        (4, 3, False),
        (5, 4, False),
        (5, 4, True),
        (5, 2, False),
        (6, 3, True),
        (6, 5, True),
    ],
)
def test_matches_brute_force(n_max, deg_max, planar_only):
    got = [canonical_form(g) for g in enumerate_connected(n_max, deg_max, planar_only)]
    assert len(got) == len(set(got)), "duplicate isomorphism class emitted"
    assert set(got) == _brute_classes(n_max, deg_max, planar_only)


def test_spec_counts():
    assert sum(1 for _ in enumerate_connected(4, 3, planar_only=False)) == 10
    by_n = Counter(g.n for g in enumerate_connected(6, 5, planar_only=False))
    assert dict(by_n) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    by_n = Counter(g.n for g in enumerate_connected(7, 6, planar_only=True))
    assert dict(by_n) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 20, 6: 99, 7: 646}


def test_max_degree_five_planar_census(monkeypatch):
    # the per-order funnel at n = 8: candidates offered to the acceptance
    # test, accepted, decided for planarity (distinct), planar
    funnel = Counter()
    accepts = enumeration._accepts_new_vertex
    decide = enumeration._decide
    form = enumeration.canonical_form_masks
    marked_calls = 0

    def counted_accepts(n, masks, parent=None):
        result = accepts(n, masks, parent)
        if n == 8:
            funnel["candidates"] += 1
            funnel["accepted"] += result
        return result

    def counted_decide(n, masks):
        result = decide(n, masks)
        if n == 8:
            funnel["decided"] += 1
            funnel["planar"] += result
        return result

    def counted_form(n, masks, colors=None):
        nonlocal marked_calls
        marked_calls += colors is not None
        return form(n, masks, colors)

    monkeypatch.setattr(enumeration, "_accepts_new_vertex", counted_accepts)
    monkeypatch.setattr(enumeration, "_decide", counted_decide)
    monkeypatch.setattr(enumeration, "canonical_form_masks", counted_form)
    by_n = Counter(g.n for g in enumerate_connected(8, 5, planar_only=True))
    assert dict(by_n) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 20, 6: 99, 7: 566, 8: 4323}
    assert funnel == {
        "candidates": 50957,
        "accepted": 9251,
        "decided": 6125,
        "planar": 4323,
    }
    # marked forms run once per Aut(parent) orbit of neighbour subsets
    # (7,306 when every call ran its own)
    assert marked_calls == 4920


# SHA-256 of each grid's live "n row verdict" lines, in call order,
# computed while the earlier lazy and whole-rows acceptance rules still
# checked every call; the pins stand in for them
ACCEPT_STREAM_SHA256 = {
    (7, 5, True): "32319fa8e9875889a6b632a1a28ab5d785608ffcbbf9b62f75c2484b7e86eb58",
    (8, 3, True): "94fe4592d006a0b66526a8c70b3f1086ea6947a418b436fded7e9829d6e99299",
    (7, 6, False): "ee4e5e8f7b5a2cb6bfd53a5f27730a76c027ea239904cccbc0a24e63a349f0e5",
}


@pytest.mark.parametrize("n_max,deg_max,planar_only", list(ACCEPT_STREAM_SHA256))
def test_acceptance_matches_reference_rule(monkeypatch, n_max, deg_max, planar_only):
    # each live call, which reads its parent's record and the new row,
    # against the plain reference on the child's rows
    accepts = enumeration._accepts_new_vertex
    calls = Counter()
    digest = hashlib.sha256()
    mismatches = []

    def checked_accepts(n, row, parent):
        result = accepts(n, row, parent)
        calls[n] += 1
        digest.update(f"{n} {row} {int(result)}\n".encode("ascii"))
        masks = enumeration._child(parent.masks, row)
        if result != reference_accepts_new_vertex(n, masks):
            mismatches.append(masks)
        return result

    monkeypatch.setattr(enumeration, "_accepts_new_vertex", checked_accepts)
    for _ in enumerate_connected(n_max, deg_max, planar_only):
        pass
    assert calls[n_max] > 0
    assert mismatches == []
    assert digest.hexdigest() == ACCEPT_STREAM_SHA256[n_max, deg_max, planar_only]


@pytest.mark.parametrize(
    "n_max,deg_max,planar_only", [(7, 5, True), (6, 6, False), (7, 9, True)]
)
def test_children_match_form_dedup_reference(n_max, deg_max, planar_only):
    # orbit dedup keeps the same representative of each class as dropping
    # children by canonical form, so the masks, not just the forms, agree
    for level in enumeration._levels(n_max, deg_max, planar_only):
        for masks, _form, gens in level:
            n = len(masks)
            if gens is None:
                # the last level keeps no generators: it makes no children
                gens = enumeration._canonical_search(n, masks)[1]
            got = enumeration._children(n, masks, gens, deg_max, planar_only)
            forms = [canonical_form_masks(n + 1, child) for child in got]
            assert len(set(forms)) == len(forms), masks
            expected = reference_children(n, masks, deg_max, planar_only)
            assert sorted(zip(forms, got)) == [(f, c) for c, f in expected], masks


def _assert_pre_order(walk: list[tuple[int, ...]]) -> None:
    # each graph after the first, less its last vertex, is the last graph
    # yielded with one vertex fewer: the oracle seeds matchings from it
    last = {len(walk[0]): walk[0]}
    for masks in walk[1:]:
        n = len(masks)
        assert tuple(m & ~(1 << (n - 1)) for m in masks[:-1]) == last[n - 1], masks
        last[n] = masks


@pytest.mark.parametrize("n_max,deg_max", [(7, 5), (8, 3)])
def test_walks_yield_each_level_graph_once(n_max, deg_max):
    levels = list(enumeration._levels(n_max, deg_max, True))

    def by_order(walked, orders):
        return [sorted(masks for masks in walked if len(masks) == n) for n in orders]

    def listed(orders):
        return [sorted(masks for masks, _form, _gens in levels[n - 1]) for n in orders]

    # K1 has no generators to give
    from_k1 = list(enumeration._walk((0,), [], n_max, deg_max))
    _assert_pre_order(from_k1)
    assert by_order(from_k1, range(1, n_max + 1)) == listed(range(1, n_max + 1))
    # the walks from the order-4 graphs cover orders 5..n_max between them
    below = []
    for masks, _form, gens in levels[3]:
        walk = list(enumeration._walk(masks, gens, n_max, deg_max))
        assert walk[0] == masks
        _assert_pre_order(walk)
        below += walk[1:]
    assert len(below) == sum(map(len, levels[4:]))
    assert by_order(below, range(5, n_max + 1)) == listed(range(5, n_max + 1))


def test_degree_cap_one():
    got = list(enumerate_connected(3, 1, planar_only=False))
    # the single vertex and the single edge are the only degree-capped
    # connected graphs
    assert [g.n for g in got] == [1, 2]


def test_contains_k5_minus_but_not_k5():
    forms = {canonical_form(g) for g in enumerate_connected(5, 4, planar_only=True)}
    assert canonical_form(atlas("K5_MINUS")) in forms
    assert canonical_form(complete(5)) not in forms
    forms_nonplanar = {
        canonical_form(g) for g in enumerate_connected(5, 4, planar_only=False)
    }
    assert canonical_form(complete(5)) in forms_nonplanar


def test_every_yield_satisfies_filters():
    for g in enumerate_connected(6, 4, planar_only=True):
        assert is_connected(g)
        assert max_degree(g) <= 4
        assert is_planar(g).verdict


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        list(enumerate_connected(11, 3, planar_only=True))
    with pytest.raises(ValueError):
        list(enumerate_connected(0, 3, planar_only=True))
    with pytest.raises(ValueError):
        list(enumerate_connected(3, 0, planar_only=True))


@pytest.mark.parametrize(
    "child,at,fast,expected",
    [
        # the path 0-1-2, z = 3 hung on 0: vertex 0 (child degree 2) does
        # not cut P but cuts the child, and vertex 1 cuts P
        ((0b1010, 0b0101, 0b0010, 0b0001), [0b101, 0b101, 0, 0, 0], False, True),
        # the triangle, z = 3 hung on 0: vertices 1 and 2 (child degree 2)
        # cut neither graph
        ((0b1110, 0b0101, 0b0011, 0b0001), [0b111, 0b111, 0b111, 0, 0], True, False),
    ],
)
def test_one_and_rejection(monkeypatch, child, at, fast, expected):
    n = len(child)
    parent_masks = tuple(m & ~(1 << (n - 1)) for m in child[:-1])
    record = enumeration._parent_record(
        n - 1, parent_masks, enumeration._canonical_search(n - 1, parent_masks)[1]
    )
    assert record.at == at
    # the loop runs a cut test on the first higher-degree vertex, so no
    # cut test means the one AND rejected the child
    cut_tests = []
    cuts_child = enumeration._cuts_child

    def counted_cuts_child(row, v, comps):
        cut_tests.append(v)
        return cuts_child(row, v, comps)

    monkeypatch.setattr(enumeration, "_cuts_child", counted_cuts_child)
    assert enumeration._accepts_new_vertex(n, child[-1], record) is expected
    assert reference_accepts_new_vertex(n, child) is expected
    assert (cut_tests == []) is fast


def test_oracles_import_only_public_names():
    # a reference that imports a private package name shares the code it
    # checks, and pins a name the package may need to change
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text("utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "planarext"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
