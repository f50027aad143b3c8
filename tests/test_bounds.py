from __future__ import annotations

from planarext import max_edges_general, max_edges_outerplanar, max_edges_planar


def test_published_planar_values():
    assert max_edges_planar(6, 8) == 37
    assert max_edges_planar(5, 3) == 9
    assert max_edges_planar(5, 4) == 13
    assert max_edges_planar(2, 2) == 1
    assert max_edges_planar(3, 4) == 9


def test_linear_cases_match_closed_forms():
    for nu in range(1, 101):
        k = nu - 1
        assert max_edges_planar(7, nu) == 6 * k
        assert max_edges_planar(4, nu) == 7 * (k // 2) + 3 * (k % 2)
        assert max_edges_planar(3, nu) == 3 * k
        assert max_edges_planar(2, nu) == k


def test_d6_piecewise_structure():
    # period-7 piece: 5k plus 2 per full block of 7, plus 1 when the
    # remainder reaches 4
    for k in range(0, 60):
        q, r = divmod(k, 7)
        expected = 5 * k + 2 * q + (1 if r >= 4 else 0)
        assert max_edges_planar(6, k + 1) == expected


def test_d5_and_d4_halves():
    for nu in range(1, 60):
        k = nu - 1
        assert max_edges_planar(5, nu) == 4 * k + k // 2


def test_clamping():
    for d in (-3, 0, 1):
        for nu in (1, 5):
            assert max_edges_planar(d, nu) == 0
            assert max_edges_general(d, nu) == 0
            assert max_edges_outerplanar(d, nu) == 0
    for d in (2, 3, 6, 9):
        assert max_edges_planar(d, 1) == 0
        assert max_edges_planar(d, 0) == 0
        assert max_edges_planar(d, -2) == 0


def test_general_bound_values():
    for d in range(2, 12):
        c = d // 2
        for nu in range(2, 30):
            k = nu - 1
            assert max_edges_general(d, nu) == (d - 1) * k + (d - 1) // 2 * (k // c)


def test_domination_chain():
    for d in range(2, 13):
        for nu in range(1, 41):
            outer = max_edges_outerplanar(d, nu)
            planar = max_edges_planar(d, nu)
            general = max_edges_general(d, nu)
            assert outer <= planar <= general
            if d == 3:
                assert outer == planar == general


def test_monotonicity():
    for d in range(2, 12):
        for nu in range(2, 30):
            assert max_edges_planar(d, nu) >= max_edges_planar(d, nu - 1)
            assert max_edges_planar(d + 1, nu) >= max_edges_planar(d, nu)
            assert max_edges_general(d, nu) >= max_edges_general(d, nu - 1)


def test_outerplanar_values():
    for nu in range(1, 30):
        k = nu - 1
        assert max_edges_outerplanar(3, nu) == 3 * k
        assert max_edges_outerplanar(5, nu) == 4 * k
        assert max_edges_outerplanar(8, nu) == 7 * k
