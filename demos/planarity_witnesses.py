"""Planarity testing that never asks to be trusted.

Every planarity answer ships with a checkable artifact: a combinatorial
embedding (rotation system) whose face count must satisfy Euler's
identity n - m + f = 2 per connected piece, or a Kuratowski witness, an
edge subset forming a subdivision of K5 or K3,3. This script exercises
both directions, including the two classic 4-regular non-planar graphs
on seven vertices.

Run: python3 demos/planarity_witnesses.py
"""

from __future__ import annotations

from planarext import (
    build_graph,
    classify_kuratowski,
    complement,
    complete,
    connected_components,
    face_count,
    induced_subgraph,
    is_outerplanar,
    is_planar,
    pivotal_planar,
)

# ---------------------------------------------------------------------------
# A planar verdict comes with a rotation system. Tracing its faces and
# plugging into Euler's identity verifies the embedding without trusting
# the test's internals.

g = pivotal_planar(5, 4)
result = is_planar(g)
assert result.verdict
faces = face_count(g, result.embedding)
print(f"pivotal_planar(5, 4): n={g.n} m={g.m} faces={faces}")
components = len(connected_components(g))
print(f"Euler identity holds: {g.n - g.m + faces == 1 + components}")

# ---------------------------------------------------------------------------
# A non-planar verdict comes with a witness. K5 itself:

k5 = complete(5)
result = is_planar(k5)
assert not result.verdict
print(f"\nK5 witness edges: {sorted(result.witness)}")
print(f"witness type: {classify_kuratowski(result.witness)}")

# The witness is a genuine subgraph certificate: the edge set alone,
# re-tested, is still non-planar.
witness_graph = build_graph(k5.n, result.witness)
assert not is_planar(witness_graph).verdict

# The type is read from the witness's own branch paths, each walked from
# both ends, so an edge set that is more than a subdivision is refused:
# here the K5 witness plus a disjoint triangle.
try:
    classify_kuratowski(result.witness + ((5, 6), (6, 7), (5, 7)))
except ValueError as exc:
    print(f"K5 witness plus a triangle: {exc}")

# ---------------------------------------------------------------------------
# Seven vertices, all degrees 4, is impossible in the plane: 14 edges
# obeys m <= 3n - 6 = 15, so edge counting alone cannot rule it out.
# The two 4-regular graphs on 7 vertices are the complements of C7 and
# of C4 + C3, and the full test finds a K3,3 or K5 subdivision in each.

c7 = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
c4_c3 = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
for label, cyc in (("complement(C7)", c7), ("complement(C4+C3)", c4_c3)):
    h = complement(cyc)
    assert h.m <= 3 * h.n - 6
    result = is_planar(h)
    kind = classify_kuratowski(result.witness)
    print(f"\n{label}: planar={result.verdict} witness={kind}")
    print(f"  witness edges: {sorted(result.witness)}")

# ---------------------------------------------------------------------------
# Outerplanarity is tested by the apex trick: G is outerplanar exactly
# when G plus a vertex joined to everything is planar.

path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
k4 = complete(4)
print(f"\nP4 outerplanar: {is_outerplanar(path)}")
print(f"K4 outerplanar: {is_outerplanar(k4)} (planar: {is_planar(k4).verdict})")

# ---------------------------------------------------------------------------
# Induced subgraphs of planar graphs stay planar; embeddings come along
# for free on every call.

sub = induced_subgraph(g, list(range(5)))
assert is_planar(sub).verdict
print(f"\n5-vertex induced subgraph of the pivotal graph is planar, "
      f"faces={face_count(sub, is_planar(sub).embedding)}")
