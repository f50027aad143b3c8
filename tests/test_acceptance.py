"""Acceptance gate: one test per criterion, each printing its own verdict.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion. Criteria keep their stated runtime budgets as hard
assertions. The final criterion replays graph6 round trips on every
graph the earlier criteria produced (collected in _REGISTRY). The
long-running realizability criterion is opt-in via PLANAREXT_LONG=1.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from planarext import (
    atlas,
    build_graph,
    certificate,
    chromatic_index_exact,
    classify_kuratowski,
    complement,
    enumerate_connected,
    graph6_decode,
    graph6_encode,
    is_factor_critical,
    is_planar,
    matching_number,
    max_degree,
    max_edges_planar,
    maximum_matching,
    partition_bound_check,
    pivotal_planar,
    realize_degree_sequence_planar,
    verify_theorem,
    vizing_color,
)
from planarext.graphs import from_masks

from oracles import brute_matching_number

_REGISTRY: list = []


def _report(label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget"


def test_criterion_1_tightness_grid():
    started = time.monotonic()
    for d in range(2, 11):
        for nu in range(2, 14):
            g = pivotal_planar(d, nu)
            report = certificate(g, d, nu)
            assert report.planar, (d, nu)
            assert report.max_degree < d, (d, nu)
            assert report.matching_number < nu, (d, nu)
            assert report.edge_count == max_edges_planar(d, nu), (d, nu)
            assert report.tight, (d, nu)
            _REGISTRY.append(g)
    _report("1 tightness-grid", started, 10.0)


def test_criterion_2_atlas_statistics():
    started = time.monotonic()
    expected = {
        "K5_MINUS": (5, 9, 4, 2),
        "A4": (9, 21, 5, 4),
        "A5": (11, 26, 5, 5),
        "A6": (13, 31, 5, 6),
        "A7": (15, 37, 5, 7),
    }
    for name, (n, m, maxdeg, nu) in expected.items():
        g = atlas(name)
        assert (g.n, g.m) == (n, m), name
        assert max_degree(g) == maxdeg, name
        assert matching_number(g) == nu, name
        assert is_planar(g).verdict, name
        assert is_factor_critical(g), name
        _REGISTRY.append(g)
    _report("2 atlas-statistics", started, 1.0)


def test_criterion_3_published_bounds():
    started = time.monotonic()
    assert max_edges_planar(6, 8) == 37
    assert max_edges_planar(5, 3) == 9
    assert max_edges_planar(5, 4) == 13
    for nu in range(1, 101):
        k = nu - 1
        assert max_edges_planar(7, nu) == 6 * k
        assert max_edges_planar(4, nu) == 7 * (k // 2) + 3 * (k % 2)
    _report("3 published-bounds", started, 1.0)


def test_criterion_4_no_planar_four_regular_on_seven():
    started = time.monotonic()
    c7 = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    c4_c3 = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
    for g in (complement(c7), complement(c4_c3)):
        result = is_planar(g)
        assert not result.verdict
        assert classify_kuratowski(result.witness) in ("K5", "K33")
        _REGISTRY.append(g)
    outcome = realize_degree_sequence_planar([4] * 7, budget=25.0)
    assert outcome.status == "exhausted"
    _report("4 four-regular-seven", started, 30.0)


def test_criterion_5_oracle_verdicts():
    started = time.monotonic()
    for d, n_max in ((3, 5), (4, 7), (5, 7)):
        for nu in range(2, 9):
            verdict = verify_theorem(d, nu, n_max)
            assert verdict.status == "confirmed", (d, nu, verdict)
            assert verdict.oracle_value == verdict.formula_value
    expected_d6 = {
        2: ("confirmed", 5, 5),
        3: ("confirmed", 10, 10),
        4: ("confirmed", 15, 15),
        5: ("confirmed", 21, 21),
        6: ("realizable-only", 26, 26),
        7: ("realizable-only", 31, 31),
        8: ("inconclusive", 36, 37),
        9: ("realizable-only", 42, 42),
        10: ("realizable-only", 47, 47),
        11: ("realizable-only", 52, 52),
        12: ("inconclusive", 57, 58),
        13: ("realizable-only", 63, 63),
    }
    for nu, (status, oracle_value, formula_value) in expected_d6.items():
        verdict = verify_theorem(6, nu, 9)
        assert verdict.oracle_value <= verdict.formula_value, "bound violated"
        assert (verdict.status, verdict.oracle_value, verdict.formula_value) == (
            status,
            oracle_value,
            formula_value,
        ), nu
    from planarext.oracle import component_table

    for record in component_table(6, 9):
        _REGISTRY.append(record.witness)
    _report("5 oracle-verdicts", started, 600.0)


def test_criterion_6_blossom_equivalence():
    started = time.monotonic()
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = build_graph(n, pairs[: rng.randint(0, min(12, len(pairs)))])
        assert maximum_matching(g).size == brute_matching_number(g)
        _REGISTRY.append(g)
    _report("6 blossom-equivalence", started, 30.0)


def test_criterion_7_coloring_properties():
    started = time.monotonic()
    atlas_graphs = [atlas(n) for n in ("K5_MINUS", "A4", "A5", "A6", "A7")]
    planar_sample = [
        g for g in enumerate_connected(6, 5, planar_only=True) if g.m > 0
    ]
    assert len(planar_sample) >= 100
    instances = atlas_graphs + planar_sample[:100]
    for g in instances:
        coloring = vizing_color(g)  # EdgeColoring validates properness itself
        assert coloring.palette_size <= max_degree(g) + 1
        _REGISTRY.append(g)
    for g in instances:
        check = partition_bound_check(g)
        if check.exceeds and g.m <= 20:
            assert chromatic_index_exact(g) == max_degree(g) + 1
    _report("7 coloring-properties", started, 60.0)


def test_criterion_8_graph6_round_trip():
    started = time.monotonic()
    assert _REGISTRY, "earlier criteria must register their graphs"
    for g in _REGISTRY:
        assert graph6_decode(graph6_encode(g)).adj == g.adj
    _report("8 graph6-round-trip", started, 5.0)


@pytest.mark.skipif(
    os.environ.get("PLANAREXT_LONG") != "1",
    reason="long-running optional criterion; set PLANAREXT_LONG=1 to run",
)
def test_criterion_9_ten_fives_and_a_four():
    started = time.monotonic()
    outcome = realize_degree_sequence_planar([5] * 10 + [4], budget=3600.0 * 4)
    assert outcome.status == "exhausted"  # measured ~1s; see the realize demo
    assert outcome.graph is None
    print("ACCEPTANCE 9a realizability-5^10-4: exhausted")
    bigger = realize_degree_sequence_planar([5] * 12 + [4], budget=3600.0 * 4)
    assert bigger.status in ("exhausted", "timed-out")
    print(f"ACCEPTANCE 9b realizability-5^12-4: {bigger.status}")
    if bigger.status == "timed-out":
        pytest.skip("budget lapsed before exhaustion; recorded, not a failure")
    assert bigger.graph is None
    _report("9 realizability-long", started, 3600.0 * 5)
