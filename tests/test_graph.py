"""Graph construction, edit operations, and neighborhood queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import (
    Graph,
    add_edge,
    bitmask,
    closed_neighborhood,
    complete,
    components,
    cycle,
    degree,
    delete_edge,
    delete_vertex,
    induced_subgraph,
    is_connected,
    members,
    open_neighborhood,
    path,
    private_neighbors,
    star,
    subdivide_edge,
    translate_set,
)
from domlab.corpus import load_corpus


def small_graphs(max_n=6):
    """Hypothesis strategy: a random labeled graph on up to max_n vertices."""
    def build(n, bits):
        edges = []
        k = 0
        for v in range(1, n):
            for u in range(v):
                if (bits >> k) & 1:
                    edges.append((u, v))
                k += 1
        return Graph.from_edges(n, edges)

    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, 2 ** (n * (n - 1) // 2) - 1).map(
            lambda bits: build(n, bits)
        )
    )


class TestConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.edge_count() == 2

    def test_empty_graph_is_valid(self):
        g = Graph(0, ())
        assert g.n == 0
        assert g.edges() == []
        assert is_connected(g)  # by convention
        assert components(g) == []

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_loop_bit(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_equality_ignores_label(self):
        a = Graph.from_edges(2, [(0, 1)], label="one")
        b = Graph.from_edges(2, [(0, 1)], label="two")
        assert a == b
        assert hash(a) == hash(b)


class TestNeighborhoods:
    def test_p3_center(self):
        g = path(3)
        assert members(closed_neighborhood(g, 1)) == [0, 1, 2]
        assert members(open_neighborhood(g, 1)) == [0, 2]

    def test_k1(self):
        g = path(1)
        assert open_neighborhood(g, 0) == 0
        assert degree(g, 0) == 0

    def test_c5_degrees(self):
        g = cycle(5)
        assert all(degree(g, v) == 2 for v in range(5))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            degree(path(2), 2)


class TestDeleteEdge:
    def test_k3_becomes_p3(self):
        g = delete_edge(complete(3), (0, 1))
        assert g.edge_count() == 2
        assert sorted(degree(g, v) for v in range(3)) == [1, 1, 2]

    def test_p3_splits(self):
        g = delete_edge(path(3), (0, 1))
        assert len(components(g)) == 2

    def test_c4_becomes_p4(self):
        g = delete_edge(cycle(4), (0, 1))
        assert g.edge_count() == 3 and is_connected(g)

    def test_absent_edge_rejected(self):
        with pytest.raises(ValueError):
            delete_edge(path(3), (0, 2))

    def test_delete_then_add_is_identity(self):
        g = cycle(5)
        assert add_edge(delete_edge(g, (1, 2)), (1, 2)) == g


class TestDeleteVertex:
    def test_p3_center_leaves_2k1(self):
        g, kept = delete_vertex(path(3), 1)
        assert g.n == 2 and g.edge_count() == 0
        assert kept == (0, 2)

    def test_k4_gives_k3(self):
        g, _ = delete_vertex(complete(4), 2)
        assert g == complete(3)

    def test_k1_gives_empty(self):
        g, kept = delete_vertex(path(1), 0)
        assert g.n == 0 and kept == ()

    def test_remap_translates_back(self):
        g = cycle(5)
        smaller, kept = delete_vertex(g, 2)
        assert translate_set(bitmask([0, 2]), kept) == bitmask([0, 3])

    def test_out_of_range(self):
        for v in (5, -1):
            with pytest.raises(ValueError, match="out of range"):
                delete_vertex(path(2), v)


class TestSubdivideEdge:
    def test_p2_once_gives_p3(self):
        g = subdivide_edge(path(2), (0, 1), 1)
        assert g.n == 3
        assert sorted(g.edges()) == [(0, 2), (1, 2)]  # new vertex gets id 2

    def test_c3_thrice_gives_c6(self):
        g = subdivide_edge(cycle(3), (0, 1), 3)
        assert g.n == 6 and g.edge_count() == 6
        assert all(degree(g, v) == 2 for v in range(6))
        assert is_connected(g)

    def test_star_leg(self):
        g = subdivide_edge(star(3), (0, 1), 1)
        assert g.n == 5
        assert degree(g, 0) == 3 and degree(g, 4) == 2 and degree(g, 1) == 1

    def test_new_vertices_in_path_order(self):
        g = subdivide_edge(path(2), (0, 1), 3)
        # chain 0 - 2 - 3 - 4 - 1
        assert sorted(g.edges()) == [(0, 2), (1, 4), (2, 3), (3, 4)]

    def test_absent_edge_rejected(self):
        with pytest.raises(ValueError):
            subdivide_edge(path(3), (0, 2), 1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            subdivide_edge(path(2), (0, 1), 0)


class TestEditMemo:
    """Edits are memoised on the normalised edge: a list edge (as in a
    violation's JSON line) and the reversed pair hit the same entry."""

    def test_delete_edge(self):
        g = cycle(5)
        delete_edge.cache_clear()
        first = delete_edge(g, [1, 0])
        assert delete_edge(g, (0, 1)) is first
        assert first == Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (0, 4)])
        info = delete_edge.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_subdivide_edge(self):
        g = cycle(5)
        subdivide_edge.cache_clear()
        first = subdivide_edge(g, [1, 0], 2)
        assert subdivide_edge(g, (0, 1), 2) is first
        assert subdivide_edge(g, (1, 0), 3) is not first
        assert first.n == 7 and first.has_edge(0, 5) and first.has_edge(6, 1)
        info = subdivide_edge.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_delete_vertex(self):
        g = cycle(5)
        delete_vertex.cache_clear()
        assert delete_vertex(g, 2) is delete_vertex(g, 2)
        assert delete_vertex.cache_info().hits == 1


class TestPrivateNeighbors:
    def test_p3_center_alone(self):
        g = path(3)
        assert members(private_neighbors(g, 1, bitmask([1]))) == [0, 1, 2]

    def test_k2_both_in(self):
        g = complete(2)
        assert private_neighbors(g, 0, bitmask([0, 1])) == 0

    def test_p4_pair(self):
        g = path(4)
        assert members(private_neighbors(g, 1, bitmask([1, 2]))) == [0]

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            private_neighbors(path(3), 0, bitmask([1]))

    def test_matches_quantifier_definition_exhaustively(self):
        # direct evaluation of "closed neighborhood meets X exactly in {x}",
        # every graph on up to six vertices, every set, every member
        for g in load_corpus("n6all"):
            for X in range(1 << g.n):
                for x in members(X):
                    expected = 0
                    for y in range(g.n):
                        if members((g.adj[y] | 1 << y) & X) == [x]:
                            expected |= 1 << y
                    assert private_neighbors(g, x, X) == expected


class TestComponentsInduced:
    def test_components_of_k2_plus_k1(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert components(g) == [bitmask([0, 1]), bitmask([2])]
        assert not is_connected(g)

    def test_induced_adjacent_pair_of_c4(self):
        sub, kept = induced_subgraph(cycle(4), bitmask([0, 1]))
        assert sub == complete(2)
        assert kept == (0, 1)

    def test_induced_empty_set(self):
        sub, kept = induced_subgraph(cycle(4), 0)
        assert sub.n == 0 and kept == ()

    def test_induced_preserves_order(self):
        sub, kept = induced_subgraph(path(4), bitmask([1, 3]))
        assert kept == (1, 3)
        assert sub.edge_count() == 0


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_subdivision_counts_and_reconstruction(g):
    edges = g.edges()
    if not edges:
        return
    e = edges[0]
    t = 2
    s = subdivide_edge(g, e, t)
    assert s.n == g.n + t
    assert s.edge_count() == g.edge_count() + t
    # contract the added path back: drop the new vertices, restore the edge
    h = s
    for _ in range(t):
        h, _ = delete_vertex(h, h.n - 1)
    assert add_edge(h, e) == g


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_delete_then_add_edge_roundtrip(g):
    edges = g.edges()
    if not edges:
        return
    e = edges[-1]
    assert add_edge(delete_edge(g, e), e) == g
