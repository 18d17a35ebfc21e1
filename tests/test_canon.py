"""Canonical forms: equal certificates exactly for isomorphic graphs.

A graph's certificate here is the adjacency of its canonical relabelling.
"""

import random
from collections import defaultdict

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import Graph, complete, complete_multipartite, cycle, load_corpus, path
from domlab.canon import canonical_adjacency, edge_orbit_representatives
from orbit_reference import ordered_edge_orbit_representatives

# 2-regular and 4-regular, but not vertex-transitive: refinement leaves one
# cell that is not an orbit
C3_PLUS_C4 = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
C3_PLUS_C4_COMPLEMENT = Graph.from_edges(
    7, [(u, v) for v in range(7) for u in range(v) if not C3_PLUS_C4.has_edge(u, v)])
PETERSEN = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)])


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def certificate(g):
    return canonical_adjacency(g.adj, g.vertex_mask)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_equal_certificates_exactly_for_isomorphic_graphs():
    # every graph on up to six vertices, and a shuffled copy of each
    rng = random.Random(6)
    graphs = []
    for g in load_corpus("n6all"):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [g, relabel(g, perm)]
    by_size = defaultdict(list)
    for g in graphs:
        by_size[g.n, g.edge_count()].append((certificate(g), to_nx(g)))
    # graphs of different order or size are neither isomorphic nor share a
    # certificate, which encodes both
    assert len({c for group in by_size.values() for c, _ in group}) == len(graphs) // 2
    for group in by_size.values():
        for i, (ci, gi) in enumerate(group):
            for cj, gj in group[i + 1:]:
                assert (ci == cj) == nx.is_isomorphic(gi, gj)


def test_n7c_certificates_are_distinct_and_survive_relabelling():
    rng = random.Random(7)
    certs = set()
    for g in load_corpus("n7c"):
        perm = list(range(g.n))
        rng.shuffle(perm)
        certs.add(certificate(g))
        assert certificate(relabel(g, perm)) == certificate(g)
    assert len(certs) == 995


@pytest.mark.parametrize("g", [
    complete(1), complete(2), complete(7), complete(8),
    Graph(0, ()), Graph(1, (0,)), Graph(8, (0,) * 8),
    cycle(3), cycle(5), cycle(8),
    complete_multipartite([3, 3]),
    C3_PLUS_C4, C3_PLUS_C4_COMPLEMENT,
    PETERSEN,
], ids=["K1", "K2", "K7", "K8", "empty", "E1", "E8", "C3", "C5", "C8", "K33",
        "C3+C4", "co-(C3+C4)", "Petersen"])
def test_symmetric_graphs(g):
    canon = certificate(g)
    assert nx.is_isomorphic(to_nx(Graph(g.n, canon)), to_nx(g))
    rng = random.Random(g.n)
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certificate(relabel(g, perm)) == canon


def test_induced_subgraph_is_canonised_in_place():
    # the subgraph induced by a vertex mask has the certificate of the
    # compacted graph
    g = PETERSEN
    for v in range(g.n):
        smaller = Graph.from_edges(
            g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)])
        assert canonical_adjacency(g.adj, g.vertex_mask & ~(1 << v)) == certificate(smaller)


@st.composite
def graph_and_permutation(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = [e for e in pairs if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, edges), perm


@settings(max_examples=300, deadline=None)
@given(graph_and_permutation())
def test_relabelling_keeps_certificate(case):
    g, perm = case
    assert certificate(relabel(g, perm)) == certificate(g)


def test_edge_orbits_match_networkx_on_n6all():
    corpus = load_corpus("n6all")
    reps = [edge_orbit_representatives(g) for g in corpus]
    assert reps == [ordered_edge_orbit_representatives(g) for g in corpus]
    assert sum(map(len, reps)) == 766  # of 1,380 edges


def test_edge_orbits_are_ordered():
    # reversing P4 maps edge (0, 1) onto (2, 3) only with its endpoints
    # swapped, so the two lie in different ordered orbits
    assert edge_orbit_representatives(path(4)) == [(0, 1), (1, 2), (2, 3)]
    assert edge_orbit_representatives(cycle(5)) == [(0, 1)]


@pytest.mark.parametrize("g", [complete(7), cycle(8), PETERSEN,
                               complete_multipartite([3, 3, 3])],
                         ids=["K7", "C8", "Petersen", "K333"])
def test_edge_orbits_of_symmetric_graphs_match_networkx(g):
    rng = random.Random(g.n)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert edge_orbit_representatives(h) == ordered_edge_orbit_representatives(h)


def test_one_cell_colouring_is_the_default():
    for g in load_corpus("n5all"):
        assert canonical_adjacency(g.adj, g.vertex_mask, [g.vertex_mask] if g.n else []) \
            == canonical_adjacency(g.adj, g.vertex_mask)
