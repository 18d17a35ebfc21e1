"""Ordered edge orbits read off networkx's automorphisms, the reference for
domlab.canon.edge_orbit_representatives in the tests."""

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher


def ordered_edge_orbit_representatives(g):
    """The least edge (u < v) of each ordered edge orbit of g, in edge order:
    (x, y) is in the orbit of (u, v) when some automorphism s of g has
    s(u) = x and s(v) = y."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    automorphisms = list(GraphMatcher(h, h).isomorphisms_iter())
    covered, out = set(), []
    for u, v in g.edges():
        if (u, v) not in covered:
            out.append((u, v))
            covered.update((s[u], s[v]) for s in automorphisms)
    return out
