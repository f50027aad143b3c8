"""Edge coloring: the constructive route and the exact one.

vizing_color builds a proper edge coloring with at most maxdeg+1 colors
by fan rotation and alternating-path recoloring; the result object
validates itself (coverage and properness) on construction, so a bug
cannot return quietly. chromatic_index_exact settles maxdeg versus
maxdeg+1 by branch and bound on small instances, and
partition_bound_check supplies the counting certificate: more than
maxdeg * nu edges cannot possibly be split into maxdeg matchings.

Run: python3 demos/edge_coloring.py
"""

from __future__ import annotations

from collections import Counter

from planarext import (
    atlas,
    chromatic_index_exact,
    complete,
    matching_number,
    max_degree,
    partition_bound_check,
    pivotal_planar,
    vizing_color,
)

# ---------------------------------------------------------------------------
# Coloring the atlas exhibits. Each is degree-5-capped, so six colors
# always suffice; the 5-vertex exhibit is forced up to five colors with
# maximum degree four.

print("atlas colorings")
for name in ("K5_MINUS", "A4", "A5", "A6", "A7"):
    g = atlas(name)
    coloring = vizing_color(g)
    sizes = Counter(coloring.color_of.values())
    print(
        f"  {name:9s} maxdeg={max_degree(g)} "
        f"palette={coloring.palette_size} "
        f"class sizes={sorted(sizes.values(), reverse=True)}"
    )

# ---------------------------------------------------------------------------
# Why K5_MINUS cannot be colored with four colors: it has 9 edges but a
# maximum matching of size 2, and four matchings of size at most 2 cover
# at most 8 edges. partition_bound_check packages exactly this argument.

g = atlas("K5_MINUS")
check = partition_bound_check(g)
print(
    f"\nK5_MINUS: m={g.m}, maxdeg*nu={check.threshold}, "
    f"exceeds={check.exceeds}"
)
assert check.exceeds
assert chromatic_index_exact(g) == max_degree(g) + 1
print("exact solver agrees: chromatic index = maxdeg + 1 = 5")

# ---------------------------------------------------------------------------
# The same certificate explains why the extremal families stop short of
# maxdeg * (nu-1) edges in most cases... except at d = 3, where triangle
# packings hit the partition bound exactly without exceeding it.

t = pivotal_planar(3, 5)
check = partition_bound_check(t)
print(
    f"\npivotal_planar(3, 5): m={t.m} threshold={check.threshold} "
    f"exceeds={check.exceeds} (class 2 by parity, not by counting)"
)
assert chromatic_index_exact(t) == 3

# ---------------------------------------------------------------------------
# Exact vs constructive on complete graphs: K_{2k} is class 1, K_{2k+1}
# is class 2. The constructive colorer may or may not find the optimum;
# the exact solver always does.

print("\ncomplete graphs")
for n in range(3, 8):
    g = complete(n)
    exact = chromatic_index_exact(g)
    constructive = vizing_color(g).palette_size
    print(
        f"  K{n}: maxdeg={n - 1} exact={exact} constructive={constructive}"
    )
    assert exact == (n - 1 if n % 2 == 0 else n)
    assert constructive <= n

# ---------------------------------------------------------------------------
# nu on its own, for reference: the matching numbers behind the
# thresholds above.

for name in ("K5_MINUS", "A4"):
    g = atlas(name)
    print(f"\n{name}: matching number {matching_number(g)}, edges {g.m}")
