"""Searching for planar graphs with a prescribed degree sequence.

realize_degree_sequence_planar answers "does any planar simple graph
have exactly these degrees?" by backtracking over adjacency choices with
Erdos-Gallai residual pruning, planarity pruning, and symmetry folding.
Three outcomes: found (with the graph), exhausted (a proof by search
that none exists), timed-out (budget lapsed first).

Run: python3 demos/degree_realizability.py
"""

from __future__ import annotations

import time

from planarext import (
    graph6_encode,
    is_planar,
    realize_degree_sequence_planar,
)

# ---------------------------------------------------------------------------
# Small positives. The octahedron realizes six 4s; the icosahedron
# realizes twelve 5s.

for label, seq in (("octahedron", [4] * 6), ("icosahedron", [5] * 12)):
    t0 = time.monotonic()
    out = realize_degree_sequence_planar(seq)
    assert out.status == "found"
    g = out.graph
    assert is_planar(g).verdict
    print(
        f"{label}: found n={g.n} m={g.m} in {time.monotonic() - t0:.2f}s "
        f"graph6={graph6_encode(g)}"
    )

# ---------------------------------------------------------------------------
# Small negatives, each exhausted rather than guessed:
#   [4]*5  needs K5, which is not planar;
#   [5]*6  needs K6;
#   [4]*7  is the seven-vertex 4-regular case, where both candidates
#          (complements of C7 and of C4+C3) are non-planar.

for label, seq in (("K5 degrees", [4] * 5), ("K6 degrees", [5] * 6),
                   ("4-regular on 7", [4] * 7)):
    t0 = time.monotonic()
    out = realize_degree_sequence_planar(seq)
    print(f"{label}: {out.status} in {time.monotonic() - t0:.2f}s")
    assert out.status == "exhausted"
    assert out.graph is None

# ---------------------------------------------------------------------------
# Degenerate and invalid input. An odd degree sum or a negative degree
# is a caller error (ValueError); a sequence that merely fails
# Erdos-Gallai is a clean "exhausted".

print()
for bad in ([3, 1, 1], [-1, 1]):
    try:
        realize_degree_sequence_planar(bad)
    except ValueError as exc:
        print(f"{bad} rejected: {exc}")

out = realize_degree_sequence_planar([3, 1])
print(f"[3, 1]: {out.status} (no simple graph at all, planar or not)")

# ---------------------------------------------------------------------------
# The showcase negatives. Ten 5s and one 4 asks for an 11-vertex planar
# graph with 27 edges, which is exactly the triangulation ceiling
# 3n - 6, so every partial graph must stay planar and the search space
# collapses: exhausted in about a second. Twelve 5s and one 4 (13
# vertices, 32 edges) takes on the order of a minute; run it yourself or
# let the optional long acceptance test do it. The budget knob reports
# timed-out honestly when it fires first instead of pretending to a
# proof.

t0 = time.monotonic()
out = realize_degree_sequence_planar([5] * 10 + [4], budget=60.0)
print(f"\n[5^10, 4]: {out.status} after {time.monotonic() - t0:.2f}s")
assert out.status == "exhausted"

seq = [5] * 12 + [4]
print(f"[5^12, 4] stats: n={len(seq)}, degree sum {sum(seq)}, "
      f"m={sum(seq) // 2} vs ceiling {3 * len(seq) - 6} "
      f"(exhausted too, in about 80s; not run here)")

# The same searcher finds the realizable neighbors at triangulation
# density, so the exhaustions above are not an artifact of overzealous
# pruning: contracting one icosahedron edge yields an 11-vertex
# triangulation with degrees (6, 5^8, 4^2), and the search finds one.
out = realize_degree_sequence_planar([6] + [5] * 8 + [4] * 2, budget=60.0)
assert out.status == "found"
print(f"[6, 5^8, 4^2] (icosahedron with one edge contracted): {out.status}")

# A found graph's own degrees round-trip the request.
out = realize_degree_sequence_planar([4] * 6)
assert sorted(out.graph.degrees, reverse=True) == [4] * 6
print("\nthe found graph's degrees match the realized sequence")
