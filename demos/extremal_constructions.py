"""Building the graphs that meet the edge bounds exactly.

A bound is only half a theorem; the other half is a family of graphs
achieving it. This script builds the planar extremal families for every
degree cap, inspects the five hand-built exhibits they are assembled
from, has the certificate checker confirm tightness independently, and
exports one exhibit to DOT for a drawing tool.

Run: python3 demos/extremal_constructions.py
"""

from __future__ import annotations

from planarext import (
    atlas,
    certificate,
    connected_components,
    dot_export,
    extremal_general,
    is_factor_critical,
    is_planar,
    k_prime,
    matching_number,
    max_degree,
    max_edges_general,
    max_edges_planar,
    pivotal_planar,
)

# ---------------------------------------------------------------------------
# The atlas: five fixed planar graphs that appear as components of the
# extremal families. K5_MINUS is K5 with one edge removed; A4..A7 are
# the degree-5 exhibits with matching numbers 4..7. All five are
# factor-critical: deleting any single vertex leaves a perfect matching.

print("atlas exhibits")
for name in ("K5_MINUS", "A4", "A5", "A6", "A7"):
    g = atlas(name)
    print(
        f"  {name:9s} n={g.n:2d} m={g.m:2d} maxdeg={max_degree(g)} "
        f"nu={matching_number(g)} planar={is_planar(g).verdict} "
        f"factor_critical={is_factor_critical(g)}"
    )

# ---------------------------------------------------------------------------
# Pivotal families. pivotal_planar(d, nu) returns a planar graph with
# maximum degree < d, matching number < nu, and exactly
# max_edges_planar(d, nu) edges. The recipe changes with d:
#   d = 3: disjoint triangles
#   d = 4: K4-with-a-subdivided-edge blocks plus a claw for odd remainder
#   d = 5: K5-minus-an-edge blocks plus a 4-star for odd remainder
#   d = 6: A7 blocks, then an A4 when the remainder is at least 4, stars after
#   d >= 7: disjoint (d-1)-stars

for d, nu in ((3, 6), (4, 7), (5, 7), (6, 10), (8, 5)):
    g = pivotal_planar(d, nu)
    sizes = sorted((len(c) for c in connected_components(g)), reverse=True)
    print(f"\npivotal_planar({d}, {nu}): n={g.n} m={g.m} components {sizes}")
    report = certificate(g, d, nu)
    assert report.tight
    print(f"  certificate: bound={report.bound} edges={report.edge_count} tight")

# ---------------------------------------------------------------------------
# Certificates are computed from scratch: the checker re-runs planarity,
# recomputes the maximum matching with the blossom algorithm, recounts
# degrees, and compares against the closed-form bound. Its JSON form is
# what the command line's `check` subcommand prints.

print("\ncertificate JSON for pivotal_planar(5, 4):")
print(certificate(pivotal_planar(5, 4), 5, 4).to_json())

# ---------------------------------------------------------------------------
# Dropping planarity: extremal_general packs copies of K_d (odd d) or of
# k_prime(d) (even d: K_{d+1} stripped of a near-perfect matching and one
# more edge so every degree lands on d-1). These meet the general bound
# but are usually non-planar.

for d, nu in ((5, 4), (6, 4), (7, 4)):
    g = extremal_general(d, nu)
    assert g.m == max_edges_general(d, nu)
    print(
        f"extremal_general({d}, {nu}): m={g.m} "
        f"planar={is_planar(g).verdict}"
    )

kp = k_prime(6)
print(
    f"\nk_prime(6): n={kp.n} m={kp.m} maxdeg={max_degree(kp)} "
    f"nu={matching_number(kp)} factor_critical={is_factor_critical(kp)}"
)

# ---------------------------------------------------------------------------
# DOT export for drawing. Paste the output into any DOT renderer.

print("\nDOT for the 5-vertex exhibit:")
print(dot_export(atlas("K5_MINUS")), end="")
