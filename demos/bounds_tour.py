"""Tour of the closed-form edge bounds.

For graphs with maximum degree strictly below d and matching number
strictly below nu, the library answers "how many edges can such a graph
have?" in three nested settings: outerplanar, planar and general. This
script walks the formulas, shows the domination chain between them, and
zooms in on d = 6 where the planar answer has period-7 steps instead of
a single linear rule.

Run: python3 demos/bounds_tour.py
"""

from __future__ import annotations

from planarext import max_edges_general, max_edges_outerplanar, max_edges_planar

# ---------------------------------------------------------------------------
# The planar bound across small parameter pairs. Rows are d, columns nu.
# d = 3 gives 3(nu-1); d in {4,5} gives (d-1)(nu-1) + floor((nu-1)/2);
# d = 6 is the stepped case; d >= 7 settles at (d-1)(nu-1).

print("planar bound  m <= f(d, nu)")
header = "d\\nu " + "".join(f"{nu:5d}" for nu in range(2, 11))
print(header)
for d in range(2, 9):
    row = f"{d:4d} " + "".join(f"{max_edges_planar(d, nu):5d}" for nu in range(2, 11))
    print(row)

# ---------------------------------------------------------------------------
# Domination chain: every outerplanar graph is planar, every planar graph
# is a graph. The bounds are ordered accordingly, pointwise.

print("\ndomination chain outer <= planar <= general")
for d in range(2, 12):
    for nu in range(1, 30):
        a = max_edges_outerplanar(d, nu)
        b = max_edges_planar(d, nu)
        c = max_edges_general(d, nu)
        assert a <= b <= c, (d, nu)
print("checked for d in [2,11], nu in [1,29]: holds everywhere")

# At d = 3 all three collapse: a triangle packing is simultaneously
# outerplanar-extremal, planar-extremal, and general-extremal.
for nu in range(1, 20):
    vals = {
        max_edges_outerplanar(3, nu),
        max_edges_planar(3, nu),
        max_edges_general(3, nu),
    }
    assert vals == {3 * (nu - 1)}, nu
print("d = 3: all three bounds equal 3(nu-1)")

# ---------------------------------------------------------------------------
# The d = 6 profile. Writing k = nu-1 = 7q + r, the bound is
# 5k + 2q + (1 if r >= 4 else 0): every full block of 7 matching units
# buys two extra edges, and a remainder of 4 or more buys one more.

print("\nd = 6 planar bound minus the naive 5(nu-1), by nu-1 mod 7:")
for k in range(1, 22):
    bonus = max_edges_planar(6, k + 1) - 5 * k
    marker = " <- new block" if k % 7 == 0 else ""
    print(f"  nu-1 = {k:2d}: bonus {bonus}{marker}")

# ---------------------------------------------------------------------------
# Degenerate corners are defined, not errors: with d < 2 or nu < 1 no
# graph has an edge, so the bounds are zero.

assert max_edges_planar(1, 5) == 0
assert max_edges_planar(6, 1) == 0
assert max_edges_general(0, 0) == 0
print("\ndegenerate corners (d < 2 or nu < 1) give 0")
