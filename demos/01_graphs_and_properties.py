#!/usr/bin/env python3
"""Tour of the graph type, text formats, and the property catalog.

Run:  python demos/01_graphs_and_properties.py
"""

from domlab import (
    CATALOG,
    Graph,
    audit_flags,
    components,
    cycle,
    delete_vertex,
    holds,
    load_corpus,
    members,
    parse_edge_list,
    parse_graph6,
    star,
    subdivide_edge,
    to_graph6,
)

# Graphs are immutable, with dense ids 0..n-1 and bit-packed adjacency.
# Build them from edges, from generators, or from text formats.
g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("C4 from edges:        ", g, "->", to_graph6(g))
print("C4 from graph6 'Cl':  ", parse_graph6("Cl"))
print("P3 from an edge list: ", parse_edge_list("0 1\n1 2"))

# Edit operations return new graphs. Subdivision vertices are appended at
# the end, in path order from the smaller endpoint.
sub = subdivide_edge(cycle(3), (0, 1), 2)
print("\nC3 with edge (0,1) subdivided twice:", sub, "edges", sub.edges())

smaller, kept = delete_vertex(cycle(5), 2)
print("C5 minus vertex 2:", smaller, "| kept ids:", kept)
print("components:", [members(c) for c in components(smaller)])

# The property catalog. Each property knows whether it is hereditary,
# induced-hereditary, closed under adding an isolated vertex, and whether
# every edgeless graph has it (nondegenerate).
print("\nproperty catalog:")
for p in CATALOG:
    flags = [
        name
        for name in ("hereditary", "induced_hereditary", "closed_union_K1",
                     "nondegenerate")
        if getattr(p, name)
    ]
    print(f"  {p.key:<4} {p.name:<28} {', '.join(flags) or '(none)'}")

print("\nstar K1,4 is a forest:", holds(CATALOG[4], star(4)))
print("C4 is a forest:", holds(CATALOG[4], cycle(4)))

# The flags are hard-coded; audit_flags is the empirical cross-check. On
# every graph with up to five vertices, each claimed flag survives an exact
# test of its defining implication (every one-step deletion from every
# subgraph that has the property, up to isomorphism), and the flags claimed
# False reveal concrete witnesses.
n5 = load_corpus("n5all")
for p in CATALOG:
    broken = {flag for flag, hits in audit_flags(p, n5).items() if hits}
    claimed = {f for f in broken if getattr(p, f)}
    print(f"audit {p.key:<4} definitional failures: {sorted(broken) or 'none'}"
          f"  claimed-flag breaks: {sorted(claimed) or 'none'}")
