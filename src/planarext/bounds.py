"""Closed-form maximum edge counts for degree- and matching-bounded classes.

All evaluators use the same strict membership convention: the class for
parameters (d, nu) holds the graphs with maximum degree < d and matching
number < nu. Arguments with d < 2 or nu < 1 describe classes that are
edgeless or empty, so every function clamps them to 0 instead of raising;
total functions keep grid sweeps simple.
"""

from __future__ import annotations


def max_edges_planar(d: int, nu: int) -> int:
    """Maximum edge count over planar graphs with Δ < d and ν < nu."""
    if d < 2 or nu < 1:
        return 0
    k = nu - 1
    if d == 3:
        return 3 * k
    if d in (4, 5):
        return (d - 1) * k + k // 2
    if d == 6:
        return 5 * k + 2 * (k // 7) + (1 if k % 7 >= 4 else 0)
    return (d - 1) * k


def max_edges_general(d: int, nu: int) -> int:
    """Maximum edge count with Δ < d and ν < nu, no planarity constraint."""
    if d < 2 or nu < 1:
        return 0
    k = nu - 1
    # ceil((d-1)/2) == d//2 for d >= 1
    return (d - 1) * k + ((d - 1) // 2) * (k // (d // 2))


def max_edges_outerplanar(d: int, nu: int) -> int:
    """Maximum edge count over outerplanar graphs with Δ < d and ν < nu."""
    if d < 2 or nu < 1:
        return 0
    k = nu - 1
    return 3 * k if d == 3 else (d - 1) * k

