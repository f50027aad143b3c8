from __future__ import annotations

import gc
import hashlib
import random

import pytest

from planarext import build_graph, canonical_form, complete, enumerate_connected, star
from planarext.canon import _canonical_search, canonical_form_masks
from planarext.graphs import from_masks

from oracles import (
    all_labeled_graphs,
    brute_automorphism_count,
    masks_of,
    min_perm_form,
    pair_group_class_count,
)


def _relabel(masks, perm):
    n = len(masks)
    out = [0] * n
    for v in range(n):
        m = masks[v]
        while m:
            b = m & -m
            out[perm[v]] |= 1 << perm[b.bit_length() - 1]
            m ^= b
    return tuple(out)


def test_canonical_form_matches_permutation_classes_small():
    # exhaustive: two labeled graphs get equal forms iff truly isomorphic
    for n in range(5):
        by_canon: dict[bytes, tuple] = {}
        for masks in all_labeled_graphs(n):
            g = from_masks(n, masks)
            form = canonical_form(g)
            ref = min_perm_form(g)
            if form in by_canon:
                assert by_canon[form] == ref
            else:
                for other_form, other_ref in by_canon.items():
                    assert other_ref != ref or other_form == form
                by_canon[form] = ref


def test_class_counts_match_burnside():
    for n in range(1, 7):
        forms = {
            canonical_form(from_masks(n, masks)) for masks in all_labeled_graphs(n)
        }
        assert len(forms) == pair_group_class_count(n)


def test_known_class_counts():
    counts = {
        n: len({canonical_form(from_masks(n, m)) for m in all_labeled_graphs(n)})
        for n in (4, 5, 6)
    }
    assert counts == {4: 11, 5: 34, 6: 156}


def test_invariance_under_random_relabeling():
    rng = random.Random(7)
    for n in (6, 7, 8):
        for _ in range(40):
            masks = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        masks[u] |= 1 << v
                        masks[v] |= 1 << u
            g = from_masks(n, tuple(masks))
            form = canonical_form(g)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(from_masks(n, _relabel(masks, perm))) == form


def test_nonisomorphic_pairs_distinguished():
    # same degree sequence, different graphs
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_form(c6) != canonical_form(two_triangles)
    assert canonical_form(star(3)) != canonical_form(
        build_graph(4, [(0, 1), (1, 2), (2, 3)])
    )
    assert canonical_form(complete(4)) == canonical_form(
        build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    )


def test_vertex_colors_split_classes():
    g = build_graph(2, [])
    marked = canonical_form(g, colors=[1, 0])
    swapped = canonical_form(g, colors=[0, 1])
    assert marked == swapped  # color multiset equal, structure symmetric
    path = build_graph(3, [(0, 1), (1, 2)])
    end_marked = canonical_form(path, colors=[1, 0, 0])
    mid_marked = canonical_form(path, colors=[0, 1, 0])
    assert end_marked != mid_marked


@pytest.mark.parametrize(
    "n,colors,message",
    [
        (256, None, "canonical_form supports at most 255 vertices"),
        (3, [0, 0], "colors must be one small non-negative int per vertex"),
        (3, [0, 256, 0], "colors must be one small non-negative int per vertex"),
    ],
    ids=["order-256", "short-colors", "color-256"],
)
def test_canonical_form_refusals(n, colors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        canonical_form(build_graph(n, []), colors)


def test_canonical_forms_pinned():
    # Sort order, witness tie-breaks and checkpoint keys all depend on the
    # exact bytes, so any change to them must be deliberate.
    digest = hashlib.sha256()
    count = 0
    for g in enumerate_connected(7, 5, planar_only=True):
        digest.update(canonical_form_masks(g.n, masks_of(g)))
        count += 1
        if g.n == 6:
            for v in range(g.n):
                marked = [1 if u == v else 0 for u in range(g.n)]
                digest.update(canonical_form_masks(g.n, masks_of(g), marked))
    assert count == 695
    assert digest.hexdigest() == (
        "0dfb02a92c3e255391395063a7bdb855f79ea7321c8a21b099302a56430d5c4d"
    )


def _group_order(n, gens):
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def test_search_generates_the_automorphism_group():
    # the generators are automorphisms, and together they reach all of Aut
    for n in range(7):
        for masks in all_labeled_graphs(n):
            gens = _canonical_search(n, masks)[1]
            for perm in gens:
                assert _relabel(masks, perm) == masks
            assert _group_order(n, gens) == brute_automorphism_count(n, masks)


def test_canonical_search_leaves_no_reference_cycle():
    # the search state is freed by reference counting, not left to the
    # cyclic garbage collector
    g = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)])
    gc.collect()
    gc.disable()
    try:
        canonical_form(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
