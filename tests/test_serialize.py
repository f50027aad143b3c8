from __future__ import annotations

import hashlib
import json
import random
import re
import tracemalloc

import pytest

from planarext import (
    atlas,
    build_graph,
    certificate,
    complete,
    disjoint_union,
    dot_export,
    extremal_general,
    graph6_decode,
    graph6_encode,
    is_planar,
    pivotal_planar,
    serialize,
    star,
)
from planarext.graphs import Graph, _relabelled

from oracles import (
    reference_certificate,
    reference_graph6_decode,
    reference_graph6_encode,
)

# SHA-256 of the newline-joined encodings of _codec_corpus(), computed with
# the bit-by-bit reference encoder before the codec moved onto bitmasks
CODEC_CORPUS_SHA256 = "3a3d5a8fcfef1be8699d258e7c2dfd9fe175a8e366c65a180abfbf7eefa546c7"


def _codec_corpus():
    """Seeded random graphs for n = 0..70 plus every pivotal_planar(d, nu)."""
    rng = random.Random(2022)
    graphs = []
    for n in range(71):
        for p in (0.05, 0.3, 0.8):
            edges = [
                (u, v) for v in range(n) for u in range(v) if rng.random() < p
            ]
            graphs.append(build_graph(n, edges))
    graphs += [pivotal_planar(d, nu) for d in range(2, 11) for nu in range(2, 41)]
    return graphs


def _decode_outcome(decode, text):
    try:
        return ("ok", decode(text).adj)
    except ValueError as exc:
        return ("error", str(exc))


def _mutate(rng: random.Random, text: str) -> str:
    """Replace, delete or insert one character, often inside the header."""
    pos = rng.randrange(min(len(text), 5) if rng.random() < 0.4 else len(text))
    ch = (
        chr(rng.randint(63, 126))
        if rng.random() < 0.8
        else rng.choice(["\x00", " ", ">", "\x7f", "\xe9", "\u2603", "\ud800", "~"])
    )
    kind = rng.choice(("replace", "delete", "insert"))
    if kind == "replace":
        return text[:pos] + ch + text[pos + 1 :]
    if kind == "delete":
        return text[:pos] + text[pos + 1 :]
    return text[:pos] + ch + text[pos:]


def test_known_encodings():
    assert graph6_encode(build_graph(2, [(0, 1)])) == "A_"
    assert graph6_decode("A_").edges() == ((0, 1),)
    assert graph6_encode(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == "Bw"
    assert graph6_encode(build_graph(0, [])) == "?"
    assert graph6_decode("?").n == 0


def test_round_trips():
    graphs = [
        build_graph(1, []),
        star(7),
        complete(6),
        atlas("A7"),
        pivotal_planar(6, 9),
        pivotal_planar(4, 13),
    ]
    for g in graphs:
        assert graph6_decode(graph6_encode(g)).adj == g.adj


def test_long_form_round_trip():
    g = pivotal_planar(10, 13)  # 120 vertices
    text = graph6_encode(g)
    assert text.startswith("~")
    assert graph6_decode(text).adj == g.adj
    h = build_graph(63, [(0, 62)])
    assert graph6_decode(graph6_encode(h)).adj == h.adj
    # one vertex past the largest order the long form can name
    with pytest.raises(ValueError, match="^graph6 supports at most 258047 vertices$"):
        graph6_encode(build_graph(258048, []))


def test_decode_rejects_malformed():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("A_extra")
    with pytest.raises(ValueError):
        graph6_decode("A")  # truncated
    with pytest.raises(ValueError):
        graph6_decode("\x1f_")  # byte below 63
    with pytest.raises(ValueError):
        graph6_decode("~~??")  # oversized-order marker
    with pytest.raises(ValueError):
        graph6_decode("~??")  # truncated long header
    # nonzero padding: K2 uses only the first of six bits
    assert graph6_decode("A_").m == 1
    with pytest.raises(ValueError):
        graph6_decode("A" + chr(63 + 1))  # padding bit set


def test_short_header_is_used_below_63():
    g = build_graph(62, [(0, 61)])
    text = graph6_encode(g)
    assert not text.startswith("~")
    assert graph6_decode(text).adj == g.adj
    with pytest.raises(ValueError):
        graph6_decode("~??" + chr(63 + 10))  # long form for a small order
    with pytest.raises(ValueError):
        graph6_decode("~??" + chr(63 + 62) + text[1:])  # ... even at the boundary


def test_dot_export_shapes():
    single = dot_export(build_graph(1, []))
    assert single == "graph G {\n  0;\n}\n"
    k2 = dot_export(build_graph(2, [(0, 1)]))
    assert "  0 -- 1;" in k2 and k2.count("--") == 1
    a4 = dot_export(atlas("A4"))
    node_lines = [ln for ln in a4.splitlines() if ln.endswith(";") and "--" not in ln]
    edge_lines = [ln for ln in a4.splitlines() if "--" in ln]
    assert len(node_lines) == 9
    assert len(edge_lines) == 21


def test_certificate_fields_and_json():
    g = pivotal_planar(5, 4)
    rep = certificate(g, 5, 4)
    assert rep.tight
    assert rep.edge_count == rep.bound == 13
    assert rep.planar and rep.max_degree == 4 and rep.matching_number == 3
    payload = json.loads(rep.to_json())
    assert payload["params"] == {"d": 5, "nu": 4}
    assert payload["tight"] is True
    assert set(payload) == {
        "params",
        "graph_g6",
        "planar",
        "max_degree",
        "matching_number",
        "edge_count",
        "bound",
        "tight",
    }


def test_certificate_tight_requires_membership():
    k5 = complete(5)
    rep = certificate(k5, 5, 3)  # non-planar and over the bound
    assert rep.edge_count == 10 and rep.bound == 9
    assert not rep.planar
    assert not rep.tight
    # planar member below the bound: not tight either
    rep = certificate(star(4), 5, 3)
    assert rep.planar and rep.max_degree < 5 and rep.matching_number < 3
    assert not rep.tight


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _certificate_cases():
    """(graph, d, nu) triples on which certificate must match the whole-graph reference."""
    cases = [(pivotal_planar(d, nu), d, nu) for d in range(2, 11) for nu in range(2, 41)]
    # the general families have non-planar components
    cases += [(extremal_general(d, nu), d, nu) for d in range(2, 11) for nu in range(2, 14)]
    # labels shuffled, so that no component is contiguous
    rng = random.Random(9)
    for d, nu in ((3, 9), (4, 12), (5, 8), (6, 30), (6, 12), (7, 6), (10, 5)):
        for build in (pivotal_planar, extremal_general):
            cases.append((_shuffled(build(d, nu), rng), d, nu))
    # planar copies with one Kuratowski graph among them
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    a7, a4 = atlas("A7"), atlas("A4")
    for bad in (complete(5), k33):
        for parts in ([a7, a7, bad], [bad, a7, a4], [a7, bad, a7, star(5)]):
            g = disjoint_union(*parts)
            cases += [(g, 6, 20), (_shuffled(g, rng), 6, 20)]
    # isolated vertices, before, between and after the other components
    empty = build_graph(1, [])
    for parts in (
        [empty, a7, empty, a7],
        [a4, empty, empty, star(5), empty],
        [empty] * 4,
        [complete(5), empty, a7],
    ):
        g = disjoint_union(*parts)
        cases += [(g, 6, 12), (_shuffled(g, rng), 6, 12)]
    cases += [(build_graph(0, []), 6, 8), (empty, 6, 8), (empty, 1, 0)]
    return cases


def test_certificate_matches_whole_graph_reference():
    for g, d, nu in _certificate_cases():
        got, want = certificate(g, d, nu), reference_certificate(g, d, nu)
        assert got == want, (g, d, nu)
        assert got.to_json() == want.to_json()


def test_certificate_certifies_each_distinct_component_once(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(g):
            calls.append((fn.__name__, g.n))
            return fn(g)

        return wrapper

    monkeypatch.setattr(serialize, "is_planar", counted(serialize.is_planar))
    monkeypatch.setattr(serialize, "matching_number", counted(serialize.matching_number))
    # four A7s, then one 5-star: 29 components, 2 distinct
    rep = certificate(pivotal_planar(6, 30), 6, 30)
    assert rep.tight and rep.matching_number == 29
    assert sorted(calls) == [("is_planar", 6), ("is_planar", 15)] + [
        ("matching_number", 6),
        ("matching_number", 15),
    ]
    # planarity stops at the first non-planar component, by smallest vertex
    calls.clear()
    g = disjoint_union(star(5), complete(5), complete(5), atlas("A7"))
    rep = certificate(g, 6, 8)
    assert not rep.planar and rep.matching_number == 1 + 2 + 2 + 7
    assert [c for c in calls if c[0] == "is_planar"] == [("is_planar", 6), ("is_planar", 5)]


def test_certificate_takes_a_connected_graph_as_its_own_part(monkeypatch):
    built, certified = [], []

    def counted(n, adj):
        built.append(n)
        return Graph(n, adj)

    monkeypatch.setattr(serialize, "Graph", counted)
    monkeypatch.setattr(serialize, "is_planar", lambda g: certified.append(g) or is_planar(g))
    for g in (atlas("A7"), complete(5), build_graph(2, [(0, 1)]), build_graph(1, [])):
        certified.clear()
        certificate(g, 6, 8)
        assert built == [] and certified[0] is g
    # a disconnected graph's parts are still built from their rows
    certificate(disjoint_union(atlas("A7"), atlas("A4")), 6, 8)
    assert built == [atlas("A7").n, atlas("A4").n]


def test_certificate_floods_a_connected_graph_once(monkeypatch):
    # the grouping flood is the only one: is_planar counts components by
    # its LR roots, and a connected graph is certified as its own part
    calls = []

    def counted(*args):
        calls.append(args)
        return _relabelled(*args)

    for module in ("graphs", "planarity", "serialize"):
        monkeypatch.setattr(f"planarext.{module}._relabelled", counted)
    for g in (atlas("A7"), pivotal_planar(6, 5), build_graph(2, [(0, 1)])):
        calls.clear()
        assert certificate(g, 6, 8).planar
        assert len(calls) == 1


def test_codec_matches_reference():
    graphs = _codec_corpus()
    texts = [graph6_encode(g) for g in graphs]
    assert texts == [reference_graph6_encode(g) for g in graphs]
    digest = hashlib.sha256("\n".join(texts).encode("ascii")).hexdigest()
    assert digest == CODEC_CORPUS_SHA256
    for g, text in zip(graphs, texts):
        assert graph6_decode(text).adj == reference_graph6_decode(text).adj == g.adj
    # the decoders must accept and reject exactly the same mutated strings
    rng = random.Random(63)
    small = [t for g, t in zip(graphs, texts) if g.n <= 70]
    large = [t for g, t in zip(graphs, texts) if g.n > 70]
    outcomes = set()
    for i in range(3000):
        text = _mutate(rng, rng.choice(large if i % 20 == 0 else small))
        got = _decode_outcome(graph6_decode, text)
        assert got == _decode_outcome(reference_graph6_decode, text), repr(text)
        outcomes.add(re.sub(r"\d+", "#", got[1]) if got[0] == "error" else "ok")
    assert len(outcomes) == 8, outcomes  # acceptance and all seven rejections


def test_encoder_memory_and_digest():
    # 12,000 vertices: the output is the triangle's 11,999,004 characters,
    # and the encoder may hold little more than the output while it writes
    g = pivotal_planar(2, 6001)
    tracemalloc.start()
    try:
        text = graph6_encode(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 11_999_004
    assert peak <= 3 * len(text), peak / len(text)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == "b1092c8496d9b3255df4a665ee7d4cd02a1a4bbbac9c7c9fd0de0ece39d90b30"


def test_decoder_memory():
    # the same 12,000 vertices: the decoder walks the non-empty groups and
    # may hold little more than its input and the rows
    g = pivotal_planar(2, 6001)
    text = graph6_encode(g)
    tracemalloc.start()
    try:
        back = graph6_decode(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), peak / len(text)
    assert back == g
