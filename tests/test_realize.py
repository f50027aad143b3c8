from __future__ import annotations

import pytest

from planarext import (
    DegreeSequence,
    degree_stats,
    is_planar,
    realize_degree_sequence_planar,
)


def _check_found(result, target):
    assert result.status == "found"
    assert result.graph is not None
    assert list(degree_stats(result.graph)[1].entries) == sorted(target, reverse=True)
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


def test_accepts_degree_sequence_object():
    result = realize_degree_sequence_planar(DegreeSequence([2, 2, 2]))
    assert result.status == "found"


def test_non_graphical_inputs():
    with pytest.raises(ValueError):
        realize_degree_sequence_planar([3, 1, 1])  # odd sum
    assert realize_degree_sequence_planar([3, 1]).status == "exhausted"
    assert realize_degree_sequence_planar([4, 0, 0, 0, 0]).status == "exhausted"
    assert realize_degree_sequence_planar([3, 3, 1, 1]).status == "exhausted"


def test_timeout_is_a_result():
    result = realize_degree_sequence_planar([4] * 7, budget=0.0)
    assert result.status == "timed-out"
    assert result.graph is None
    assert realize_degree_sequence_planar([4] * 7, budget=float("inf")).status == "exhausted"
    # NaN compares false against the clock, so it would never time out
    for budget in (float("nan"), -1.0, float("-inf")):
        with pytest.raises(ValueError, match="budget"):
            realize_degree_sequence_planar([5] * 10 + [4], budget=budget)
