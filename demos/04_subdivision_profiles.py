#!/usr/bin/env python3
"""Multisubdivision numbers: how many subdivisions of one edge move gamma.

profile() tabulates gamma of G with an edge subdivided t = 0..cap times.
msd(e) is the first t that changes gamma; msd+/msd- ask for the first
increase/decrease; graph-level numbers take edge-wise minima. For
hereditary properties closed under adding an isolated vertex, msd(G) <= 3,
which splits all graphs into three classes.

Run:  python demos/04_subdivision_profiles.py
"""

from domlab import (
    ANY_GRAPH,
    EDGELESS,
    check_multi4,
    complete_multipartite,
    cycle,
    msd_graph,
    path,
    profile,
    s_class,
)

# Paths: the first change depends on length mod 3.
for n in (6, 5, 4):
    g = path(n)
    pr = profile(g, (0, 1), ANY_GRAPH, cap=3)
    print(f"P{n} edge (0,1): values {list(pr.values)}  msd(e) = {pr.msd}")

# K_{3,3,3} under the edgeless constraint reproduces the worked profile:
# deletion-equivalent dips at t = 1,2, recovery at 3..5, growth at 6.
k333 = complete_multipartite([3, 3, 3])
pr = profile(k333, (0, 3), EDGELESS, cap=6)
print(f"\nK3,3,3 / O edge (0,3): values {list(pr.values)}")
print(f"  msd(e) = {pr.msd}, msd+(e) = {pr.msd_plus}, msd-(e) = {pr.msd_minus}")
print("  graph level:", msd_graph(k333, EDGELESS, cap=6))

# For the unrestricted property gamma never drops under subdivision, so the
# minus number is certified infinite rather than merely "beyond the cap".
pr = profile(cycle(4), (0, 1), ANY_GRAPH, cap=3)
print(f"\nC4 edge: msd-(e) = {pr.msd_minus!r} (certified)")
pr = profile(cycle(4), (0, 1), EDGELESS, cap=3)
print(f"C4 edge under O: msd-(e) = {pr.msd_minus!r} (theory silent)")

# The per-edge master check: when deleting the edge costs exactly one
# vertex, the whole seven-term profile is forced.
m = check_multi4(k333, (0, 3), EDGELESS)
print(f"\nK3,3,3 master check: iff={m.iff_holds} chain={m.chain} "
      f"msd<=3: {m.msd_le_3}")

# The three subdivision classes, for paths and cycles.
print("\nclass of P_n / C_n by n (unrestricted property):")
header = "  n:      " + "  ".join(f"{n:>2}" for n in range(3, 15))
print(header)
print("  paths:  " + "  ".join(
    f"{s_class(path(n), ANY_GRAPH):>2}" for n in range(3, 15)))
print("  cycles: " + "  ".join(
    f"{s_class(cycle(n), ANY_GRAPH):>2}" for n in range(3, 15)))
