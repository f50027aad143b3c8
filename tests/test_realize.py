from __future__ import annotations

import hashlib
import math
import random
import time
from types import SimpleNamespace

import pytest

from planarext import graph6_encode, is_planar, realize, realize_degree_sequence_planar
from planarext.realize import RealizeResult, _group_selections, _residual_feasible

from oracles import reference_group_selections, reference_residual_feasible


def _check_found(result, target):
    assert result.status == "found"
    assert result.graph is not None
    assert sorted(result.graph.degrees, reverse=True) == sorted(target, reverse=True)
    assert is_planar(result.graph).verdict


def test_triangle():
    result = realize_degree_sequence_planar([2, 2, 2])
    _check_found(result, [2, 2, 2])
    assert result.graph.m == 3


def test_no_planar_four_regular_on_seven():
    result = realize_degree_sequence_planar([4] * 7)
    assert result.status == "exhausted"
    assert result.graph is None


def test_octahedron_exists():
    _check_found(realize_degree_sequence_planar([4] * 6), [4] * 6)


def test_k5_sequence_exhausted():
    # the only realization of 4-regular on five vertices is K5
    assert realize_degree_sequence_planar([4] * 5).status == "exhausted"


def test_five_regular_on_six_exhausted():
    # K6 is forced and is not planar
    assert realize_degree_sequence_planar([5] * 6).status == "exhausted"


def test_icosahedron_degrees():
    result = realize_degree_sequence_planar([5] * 12, budget=60.0)
    assert result.status == "found"
    assert result.graph.m == 30
    assert is_planar(result.graph).verdict


def test_stars_and_paths():
    _check_found(realize_degree_sequence_planar([6, 1, 1, 1, 1, 1, 1]), [6] + [1] * 6)
    _check_found(realize_degree_sequence_planar([2, 2, 1, 1]), [2, 2, 1, 1])
    _check_found(realize_degree_sequence_planar([0, 0]), [0, 0])
    result = realize_degree_sequence_planar([])
    assert result.status == "found" and result.graph.n == 0


def test_input_checks_keep_their_messages():
    # any order is accepted; a negative degree and an odd sum are refused
    _check_found(realize_degree_sequence_planar((1, 3, 2, 2)), [3, 2, 2, 1])
    with pytest.raises(ValueError, match="^degrees must be non-negative$"):
        realize_degree_sequence_planar([-1, 1])
    with pytest.raises(ValueError, match="^degree sum must be even$"):
        realize_degree_sequence_planar([1, 1, 1])


def test_non_graphical_inputs():
    with pytest.raises(ValueError):
        realize_degree_sequence_planar([3, 1, 1])  # odd sum
    assert realize_degree_sequence_planar([3, 1]).status == "exhausted"
    assert realize_degree_sequence_planar([4, 0, 0, 0, 0]).status == "exhausted"
    assert realize_degree_sequence_planar([3, 3, 1, 1]).status == "exhausted"


def test_timeout_is_a_result(monkeypatch):
    result = realize_degree_sequence_planar([4] * 7, budget=0.0)
    assert result.status == "timed-out"
    assert result.graph is None
    assert realize_degree_sequence_planar([4] * 7, budget=float("inf")).status == "exhausted"
    # NaN compares false against the clock, so it would never time out
    for budget in (float("nan"), -1.0, float("-inf")):
        with pytest.raises(ValueError, match="budget"):
            realize_degree_sequence_planar([5] * 10 + [4], budget=budget)
    # a clock that lapses after the root's own check, before the next one
    readings = iter([0.0, 0.0])
    monkeypatch.setattr(realize, "time", SimpleNamespace(monotonic=lambda: next(readings, 2.0)))
    assert realize_degree_sequence_planar([4] * 6, budget=1.0).status == "timed-out"


def _pinned_sequences():
    """400 seeded sequences, n <= 9 and degrees <= 5 with an even sum, then five fixed ones."""
    rng = random.Random(19)
    seqs = []
    for _ in range(400):
        seq = [rng.randint(0, 5) for _ in range(rng.randint(0, 9))]
        if sum(seq) % 2:
            seq[0] += 1 if seq[0] < 5 else -1
        seqs.append(seq)
    return seqs + [[5] * 10 + [4], [4] * 7, [5] * 12, [3] * 8, [4] * 6]


def test_unbudgeted_results_pinned():
    # status and graph6 of each result, computed before the search lost
    # its adjacency filter, its short-candidate guard and the residual
    # check's early returns; 163 found and 242 exhausted
    digest = hashlib.sha256()
    for seq in _pinned_sequences():
        result = realize_degree_sequence_planar(seq, budget=math.inf)
        g6 = "-" if result.graph is None else graph6_encode(result.graph)
        digest.update(f"{result.status} {g6}\n".encode("ascii"))
    assert digest.hexdigest() == (
        "540c331e3d1ea187065f7d75611d94467bd7ee2e7a8cbc5b11b47715397a2ca6"
    )


def test_residual_check_matches_quadratic_reference():
    rng = random.Random(8)
    for _ in range(4000):
        n = rng.randint(0, 14)
        top = rng.randint(0, 15)
        demands = [rng.randint(0, top) for _ in range(n)]
        assert _residual_feasible(demands) == reference_residual_feasible(demands), demands
    for demands in ([5] * 12, [5] * 10 + [4], [6] * 6, [3, 3, 3, 1], [2, 2, 2, 2, 0]):
        assert _residual_feasible(demands) == reference_residual_feasible(demands)


def test_residual_check_is_linear_after_the_sort():
    # the quadratic check took about 9.6 s on this sequence (2 vCPUs,
    # CPython 3.11), all of it before the first deadline test of the search
    start = time.perf_counter()
    assert _residual_feasible([5] * 8000 + [4])
    assert time.perf_counter() - start < 1.0
    result = realize_degree_sequence_planar([5] * 8000 + [4], budget=0.2)
    assert result.status == "timed-out"


def test_group_selections_match_eager_reference_in_order():
    rng = random.Random(9)
    for _ in range(400):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 7))]
        labels = iter(range(100))
        groups = [[next(labels) for _ in range(size)] for size in sizes]
        need = rng.randint(0, 6)
        assert list(_group_selections(groups, need)) == reference_group_selections(groups, need)


def test_first_selection_comes_without_listing_the_rest():
    # checked on a tiny input first: an eager list of the big one below
    # would not fit in memory
    assert not isinstance(_group_selections([[0], [1]], 1), list)
    # 2,000 singleton groups hold about 6.6e11 ways to take four
    groups = [[v] for v in range(2000)]
    assert next(_group_selections(groups, 4)) == [1996, 1997, 1998, 1999]


def test_deep_searches_run_without_recursion():
    # each saturated pivot was one call of a recursive search, and each
    # group of a selection one nested generator: the 2,000 pivots of 1^4000
    # and a first selection over 1,500 groups passed the recursion limit
    _check_found(realize_degree_sequence_planar([1] * 4000, budget=math.inf), [1] * 4000)
    assert isinstance(realize_degree_sequence_planar([2] * 1800, budget=1.0), RealizeResult)
    # a threshold sequence: degrees 1..1501 and 751 again
    threshold = list(range(1, 1502)) + [751]
    assert isinstance(realize_degree_sequence_planar(threshold, budget=1.0), RealizeResult)
    assert len(next(_group_selections([[v] for v in range(2000)], 1500))) == 1500
