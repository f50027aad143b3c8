from __future__ import annotations

import ast
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import planarext

from planarext import (
    Graph,
    PlanarityResult,
    atlas,
    build_graph,
    canonical_form,
    classify_kuratowski,
    complement,
    complete,
    connected_components,
    enumerate_connected,
    enumeration,
    face_count,
    is_connected,
    is_outerplanar,
    is_planar,
    pivotal_planar,
    planarity,
    star,
)
from planarext.graphs import disjoint_union, from_masks
from planarext.planarity import _decide, _planar_rows

from oracles import (
    all_labeled_graphs,
    brute_is_planar,
    masks_of,
    reference_classify_kuratowski,
    reference_decide,
    reference_embedding,
    reference_face_count,
    reference_minimize_witness,
)


def test_exhaustive_agreement_n5():
    planar_forms = set()
    for masks in all_labeled_graphs(5):
        g = from_masks(5, masks)
        result = is_planar(g)
        assert result.verdict == brute_is_planar(g)
        assert _decide(5, masks) == result.verdict
        if result.verdict:
            planar_forms.add(canonical_form(g))
        else:
            assert classify_kuratowski(result.witness) in ("K5", "K33")
    assert len(planar_forms) == 33


def test_exhaustive_agreement_n6():
    planar_forms = set()
    for masks in all_labeled_graphs(6):
        g = from_masks(6, masks)
        result = is_planar(g)
        assert result.verdict == brute_is_planar(g)
        assert _decide(6, masks) == result.verdict
        if result.verdict:
            planar_forms.add(canonical_form(g))
    assert len(planar_forms) == 142


def test_random_agreement_n7():
    rng = random.Random(23)
    for _ in range(400):
        masks = [0] * 7
        for u in range(7):
            for v in range(u + 1, 7):
                if rng.random() < rng.choice((0.3, 0.5, 0.7)):
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
        g = from_masks(7, tuple(masks))
        assert is_planar(g).verdict == brute_is_planar(g)
        assert _decide(7, masks) == brute_is_planar(g)


def test_decide_on_disconnected_and_subdivided_input():
    # the sparse non-planar cases (K3,3 plus isolated vertices) pass a
    # cycle-rank shortcut such as m <= n + 2, so one would fail here
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    k5_path = build_graph(8, complete(5).edges() + ((4, 5), (5, 6), (6, 7)))
    k33_subdivided = build_graph(
        7, [e for e in k33.edges() if e != (0, 3)] + [(0, 6), (6, 3)]
    )
    k33_minus = build_graph(6, k33.edges()[1:])
    cases = [
        (disjoint_union(k33, build_graph(2, [])), False),
        (disjoint_union(build_graph(1, []), k33), False),
        (disjoint_union(complete(5), build_graph(3, [])), False),
        (k5_path, False),
        (k33_subdivided, False),
        (disjoint_union(k33_minus, build_graph(2, [])), True),
        (disjoint_union(atlas("K5_MINUS"), complete(4)), True),
    ]
    for g, planar in cases:
        assert _decide(g.n, masks_of(g)) == planar, g
        assert _planar_rows(g.adj) == planar, g
        assert is_planar(g).verdict == planar, g
    for n in range(5):
        assert all(_decide(n, masks) for masks in all_labeled_graphs(n))


def _wheel(k):
    """The wheel W_k: hub 0, rim 1..k."""
    rim = range(1, k + 1)
    return build_graph(k + 1, [(0, i) for i in rim] + [(i, i % k + 1) for i in rim])


def _hub_graph(rng):
    """A hub joined to every vertex of a random outerplanar rim, relabelled.

    The rim is a path with gaps plus non-crossing chords from a random
    nested split of the polygon, so the hub keeps it planar.
    """
    k = rng.randint(100, 160)
    edges = [(i, i + 1) for i in range(k - 1) if rng.random() < 0.9]
    splits = [(0, k - 1)]
    while splits:
        a, b = splits.pop()
        if b - a < 2:
            continue
        c = rng.randint(a + 1, b - 1)
        edges += [e for e in ((a, c), (c, b)) if rng.random() < 0.6]
        splits += [(a, c), (c, b)]
    edges += [(i, k) for i in range(k)]
    label = rng.sample(range(k + 1), k + 1)
    return build_graph(k + 1, [(label[u], label[v]) for u, v in edges])


def _lr_corpus(monkeypatch):
    """Seeded random graphs, the decide inputs of the n <= 7 census, pivotal_planar,
    the wheels W_3..W_300 and seeded random planar graphs with a hub."""
    rng = random.Random(2009)
    graphs = [_wheel(k) for k in range(3, 301)]
    graphs += [_hub_graph(rng) for _ in range(40)]
    for _ in range(1500):
        n = rng.randint(3, 14)
        p = rng.choice((0.1, 0.2, 0.3, 0.45, 0.6, 0.8))
        graphs.append(
            build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
        )
    decide = enumeration._decide

    def recorded_decide(n, masks):
        graphs.append(from_masks(n, masks[:n]))
        return decide(n, masks)

    monkeypatch.setattr(enumeration, "_decide", recorded_decide)
    for _ in enumeration._levels(7, 5, True):
        pass
    monkeypatch.undo()
    graphs += [pivotal_planar(d, nu) for d in range(2, 11) for nu in range(2, 41)]
    return graphs


def test_lr_kernel_matches_reference(monkeypatch):
    # the array-indexed kernel must give the dict-keyed reference's
    # verdicts, rotation systems and minimal witnesses, not just valid ones
    kinds = set()
    for g in _lr_corpus(monkeypatch):
        embedding = reference_embedding(g)
        result = is_planar(g)
        assert result.embedding == embedding, g.adj
        planar = reference_decide(g.n, masks_of(g))
        assert _decide(g.n, masks_of(g)) == planar and _planar_rows(g.adj) == planar
        if not result.verdict:
            # is_planar's witness is the output of _minimize_witness
            assert result.witness == reference_minimize_witness(g), g.adj
        kinds.add((result.verdict, not is_connected(g)))
    assert kinds == {(True, False), (True, True), (False, False), (False, True)}


def _counted_decide(monkeypatch):
    """Route planarity._planar_rows, the witness pass's decision, through a
    counter; returns the count so far."""
    calls = [0]
    decide = planarity._planar_rows

    def counted(rows):
        calls[0] += 1
        return decide(rows)

    monkeypatch.setattr(planarity, "_planar_rows", counted)
    return lambda: calls[0]


def test_witness_of_a_small_core_in_a_large_graph(monkeypatch):
    # a 40x40 grid with a K5 joined to vertex 0: 1,605 vertices, 3,131
    # edges; the witness pass settles runs of edges, not one edge a call
    k = 40
    n = k * k
    edges = [(v, v + 1) for v in range(n) if v % k < k - 1]
    edges += [(v, v + k) for v in range(n - k)]
    k5 = [(n + i, n + j) for i in range(5) for j in range(i + 1, 5)]
    g = build_graph(n + 5, edges + k5 + [(0, n)])
    calls = _counted_decide(monkeypatch)
    result = is_planar(g)
    assert result.witness == tuple(k5)
    assert calls() <= 100


def test_witness_pass_cost_on_small_graphs(monkeypatch):
    # the 221 non-planar connected graphs on at most 7 vertices: runs
    # must not cost much more than the 3,076 calls of an edge-by-edge pass
    graphs = [g for g in enumerate_connected(7, 6) if not _planar_rows(g.adj)]
    assert len(graphs) == 221
    calls = _counted_decide(monkeypatch)
    for g in graphs:
        planarity._minimize_witness(g)
    assert calls() <= 3845


def test_witness_in_a_large_wheel_pinned():
    # W_2000 with a K3,3 joined to its rim by one edge; computed while the
    # witness pass still decided on bitmask copies of the rows
    k = 2000
    k33 = [(k + 1 + i, k + 4 + j) for i in range(3) for j in range(3)]
    witness = is_planar(build_graph(k + 7, _wheel(k).edges() + ((1, k + 1),) + tuple(k33))).witness
    assert classify_kuratowski(witness) == "K33"
    assert hashlib.sha256(repr(witness).encode("ascii")).hexdigest() == (
        "0c6fe4a3eb831ab77b6bf153103b2718484d1c09ce720b7ccff7803e89482fd5"
    )


def test_pivotal_embeddings_pinned():
    # rotation systems are part of the output; computed before the
    # left-right kernel moved to integer edge ids
    digest = hashlib.sha256()
    for d in range(2, 11):
        for nu in range(2, 41):
            embedding = is_planar(pivotal_planar(d, nu)).embedding
            digest.update(repr(embedding).encode("ascii"))
    assert digest.hexdigest() == (
        "165cdb27ab6101fd8ad6368ba820b8abb2ecb1b183c6c9fdcd894cd76d4758eb"
    )


def test_results_on_small_connected_graphs_pinned():
    # verdict, embedding and witness of the 996 connected graphs on at
    # most 7 vertices, 221 of them non-planar; computed before graphs on
    # two vertices or fewer went through the LR test
    digest = hashlib.sha256()
    for g in enumerate_connected(7, 6):
        digest.update(repr(is_planar(g)).encode("ascii"))
    assert digest.hexdigest() == (
        "e615c52da562d5df3c6202cf2d16a26eab9f78711363c91426763768415f8012"
    )


@pytest.mark.parametrize(
    "g",
    [Graph(0, ()), Graph(1, ((),)), Graph(2, ((), ())), Graph(2, ((1,), (0,)))],
    ids=["K0", "K1", "2K1", "K2"],
)
def test_graphs_on_at_most_two_vertices(g):
    # the LR test embeds each one as its own adjacency rows
    assert is_planar(g) == PlanarityResult(True, g.adj, None)
    assert _decide(g.n, masks_of(g))


def test_kuratowski_witnesses_classified():
    k5 = complete(5)
    r5 = is_planar(k5)
    assert not r5.verdict
    assert classify_kuratowski(r5.witness) == "K5"
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    r33 = is_planar(k33)
    assert not r33.verdict
    assert classify_kuratowski(r33.witness) == "K33"
    # witnesses stay classifiable with extra structure around the core
    c7 = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    for g in (complement(c7),):
        r = is_planar(g)
        assert not r.verdict
        assert classify_kuratowski(r.witness) in ("K5", "K33")


def test_classify_rejects_non_witness():
    k5 = complete(5).edges()
    k33 = tuple((i, j) for i in range(3) for j in range(3, 6))
    prism = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))
    for witness in (
        ((0, 1), (1, 2)),
        # a true core with a disjoint cycle that no branch path reaches
        k5 + ((5, 6), (6, 7), (5, 7)),
        k33 + ((6, 7), (7, 8), (8, 9), (6, 9)),
        # a second path between two branch vertices
        k5 + ((0, 5), (5, 1)),
        k33 + ((0, 6), (6, 3)),
        # K5 less one edge, whose ends get a loop or a leaf each instead
        k5[1:] + ((0, 5), (5, 6), (6, 0), (1, 7), (7, 8), (8, 1)),
        k5[1:] + ((0, 5), (1, 6)),
        # six branch vertices of degree 3 that are not K3,3
        prism,
        # regular cores of the right degree and the wrong order: the
        # octahedron and the cube
        tuple((i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3),
        tuple((i, i ^ 1 << k) for i in range(8) for k in range(3) if not i >> k & 1),
    ):
        with pytest.raises(ValueError):
            classify_kuratowski(witness)


def _seeded_witnesses(count):
    """Witnesses of seeded random non-planar graphs, relabeled and reordered."""
    rng = random.Random(1930)
    witnesses = []
    while len(witnesses) < count:
        n = rng.randint(5, 11)
        p = rng.choice((0.35, 0.5, 0.7))
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        result = is_planar(g)
        if result.verdict:
            continue
        label = rng.sample(range(100), n)
        edges = [(label[u], label[v])[:: rng.choice((1, -1))] for u, v in result.witness]
        rng.shuffle(edges)
        witnesses.append(tuple(edges))
    return witnesses


def test_classify_matches_reference_on_seeded_witnesses():
    kinds = set()
    for witness in _seeded_witnesses(2000):
        kind = classify_kuratowski(witness)
        assert kind == reference_classify_kuratowski(witness), witness
        kinds.add(kind)
        # a disjoint triangle makes it more than a subdivision, and the
        # witness is edge-minimal, so without an edge it is planar
        for mutant in (witness + ((100, 101), (101, 102), (100, 102)), witness[1:]):
            with pytest.raises(ValueError):
                classify_kuratowski(mutant)
    assert kinds == {"K5", "K33"}


def test_embeddings_satisfy_euler():
    graphs = [
        complete(4),
        atlas("A5"),
        atlas("A7"),
        pivotal_planar(5, 6),
        build_graph(1, []),
        build_graph(6, [(0, 1), (2, 3)]),
    ]
    for g in graphs:
        result = is_planar(g)
        assert result.verdict
        faces = face_count(g, result.embedding)
        assert g.n - g.m + faces == 1 + len(connected_components(g))


def test_face_count_values():
    k4 = complete(4)
    emb = is_planar(k4).embedding
    assert face_count(k4, emb) == 4
    tree = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert face_count(tree, is_planar(tree).embedding) == 1
    edgeless = build_graph(3, [])
    assert face_count(edgeless, is_planar(edgeless).embedding) == 1
    assert face_count(build_graph(0, []), ()) == 1


def test_face_count_matches_dict_tracer_on_any_rotation_system():
    # planar embeddings, then the same rotations shuffled: any rotation
    # system has a face count, planar or not
    rng = random.Random(20)
    graphs = [pivotal_planar(d, nu) for d in (3, 5, 6) for nu in (2, 7, 12)]
    for _ in range(300):
        n = rng.randint(0, 9)
        p = rng.random() * 0.6
        graphs.append(
            build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    for g in graphs:
        result = is_planar(g)
        rotations = result.embedding if result.verdict else g.adj
        shuffled = tuple(tuple(rng.sample(row, len(row))) for row in rotations)
        for emb in (rotations, shuffled):
            assert face_count(g, emb) == reference_face_count(g, emb)


class _NoIndex(tuple):
    """A rotation row that cannot be searched: face tracing must not scan rows."""

    def index(self, *args):
        raise AssertionError("face_count scanned a rotation row")


@pytest.mark.parametrize("k", [3, 50, 2000, 20000])
def test_face_count_on_wheels_reads_each_rotation_once(k):
    # the wheel W_k, rim 0..k-1 and hub k, has k + 1 faces; the hub's
    # rotation holds k darts, so a per-dart row scan would be quadratic
    g = build_graph(k + 1, [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)])
    embedding = tuple(map(_NoIndex, is_planar(g).embedding))
    assert face_count(g, embedding) == reference_face_count(g, embedding) == k + 1


def test_face_count_refuses_a_one_sided_rotation_system():
    path, k2 = build_graph(3, [(0, 1), (1, 2)]), build_graph(2, [(0, 1)])
    cases = [
        (path, ((1,), (2,), (1,))),
        (path, tuple(map(_NoIndex, ((1,), (0, 2), ())))),
        # another graph's rotations, a self-loop row and a repeated neighbour
        (k2, is_planar(complete(4)).embedding),
        (build_graph(1, []), ((0,),)),
        (k2, ((1, 1), (0, 0))),
    ]
    for g, embedding in cases:
        with pytest.raises(ValueError):
            face_count(g, embedding)


def test_is_planar_builds_no_masks():
    # the Euler check takes its component count from the LR search's
    # roots, so a planar verdict floods nothing
    graphs = (complete(4), pivotal_planar(5, 6), build_graph(6, [(0, 1), (2, 3)]), _wheel(2000))
    for g in graphs + (Graph(0, ()),):
        assert is_planar(Graph(g.n, g.adj)).verdict


def test_outerplanarity():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_outerplanar(c5)
    assert is_outerplanar(build_graph(4, [(0, 1), (1, 2), (1, 3)]))
    assert is_outerplanar(star(6))
    assert not is_outerplanar(complete(4))
    k23 = build_graph(5, [(i, j) for i in range(2) for j in range(2, 5)])
    assert not is_outerplanar(k23)
    assert is_planar(k23).verdict


def test_outerplanarity_matches_an_apex_reference():
    # g is outerplanar iff g plus a universal apex is planar
    graphs = list(enumerate_connected(7, 6))
    assert len(graphs) == 996
    for g in graphs:
        apex = 1 << g.n
        masks = [m | apex for m in masks_of(g)] + [apex - 1]
        assert is_outerplanar(g) == reference_decide(g.n + 1, masks), g.adj


def test_large_planar_unions():
    g = pivotal_planar(10, 13)  # 120 vertices of stars
    assert is_planar(g).verdict
    assert is_planar(pivotal_planar(6, 13)).verdict


_OPTIMIZED_CHILD = """
import sys
from types import SimpleNamespace
from planarext import build_graph, coloring, constructions, oracle, planarity, realize, serialize


def raises(label, call):
    try:
        call()
    except AssertionError:
        print(label)


print("optimize", sys.flags.optimize)
# four A7s and a 5-star, built while planarity is sound; no later step uses A7
pivotal = constructions.pivotal_planar(6, 30)
cycle = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
planarity._trace_faces = lambda g, embedding: 0
raises("is_planar", lambda: planarity.is_planar(cycle))
real_matching_number = constructions.matching_number
constructions.matching_number = lambda g: -1
raises("atlas statistics", lambda: constructions.atlas("A4"))
constructions.matching_number = real_matching_number
constructions.is_planar = lambda g: planarity.PlanarityResult(False, None, None)
raises("atlas planarity", lambda: constructions.atlas("A5"))
constructions.max_edges_planar = lambda d, nu: -1
raises("pivotal_planar", lambda: constructions.pivotal_planar(5, 4))
constructions.max_edges_general = lambda d, nu: -1
raises("extremal_general", lambda: constructions.extremal_general(5, 4))
real_oracle_matching_number = oracle.matching_number
offered = set()


def second_opinion(g):
    # right when a graph is offered, off by one when its record is checked
    mu = real_oracle_matching_number(g) + (g in offered)
    offered.add(g)
    return mu


oracle.matching_number = second_opinion
raises("component_table", lambda: oracle.component_table(4, 5))
realize.is_planar = lambda g: planarity.PlanarityResult(False, None, None)
raises("realize", lambda: realize.realize_degree_sequence_planar([4] * 6))
triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
real_max_degree = coloring.max_degree
coloring.max_degree = lambda g: 0
raises("vizing_color", lambda: coloring.vizing_color(triangle))
coloring.max_degree = real_max_degree
coloring.vizing_color = lambda g: SimpleNamespace(palette_size=99)
raises("chromatic_index_exact", lambda: coloring.chromatic_index_exact(triangle))
# the face trace is still poisoned: each distinct component gets the Euler check
raises("certificate", lambda: serialize.certificate(pivotal, 6, 30))
"""


def test_certify_checks_survive_optimize():
    # python -O strips assert statements; these checks must still raise
    src = str(Path(planarext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHILD],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out == [
        "optimize 1",
        "is_planar",
        "atlas statistics",
        "atlas planarity",
        "pivotal_planar",
        "extremal_general",
        "component_table",
        "realize",
        "vizing_color",
        "chromatic_index_exact",
        "certificate",
    ]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may be one
    package = Path(planarext.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"
