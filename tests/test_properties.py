"""Property predicates, flag metadata, and the empirical flag audit."""

import pytest

from domlab import (
    ANY_GRAPH,
    CATALOG,
    CLIQUE_COMPONENTS,
    CONNECTED,
    EDGELESS,
    FOREST,
    NO_ISOLATED,
    Graph,
    PropertyDescriptor,
    ScopeError,
    audit_flags,
    bitmask,
    complete,
    cycle,
    holds,
    holds_induced,
    max_degree,
    parse_property,
    path,
)
from domlab.corpus import load_corpus
from domlab.solver import is_dominating

DISJOINT_K3_K2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])


class TestHolds:
    def test_edgeless(self):
        assert holds(EDGELESS, Graph(3, (0, 0, 0)))
        assert not holds(EDGELESS, complete(2))

    def test_clique_components(self):
        assert holds(CLIQUE_COMPONENTS, DISJOINT_K3_K2)
        assert not holds(CLIQUE_COMPONENTS, path(3))

    def test_max_degree_one(self):
        assert holds(max_degree(1), TWO_K2)  # perfect matching
        assert not holds(max_degree(1), path(3))

    def test_any_graph(self):
        assert holds(ANY_GRAPH, cycle(5))

    def test_connected(self):
        assert holds(CONNECTED, path(4))
        assert not holds(CONNECTED, TWO_K2)

    def test_no_isolated(self):
        assert holds(NO_ISOLATED, TWO_K2)
        assert not holds(NO_ISOLATED, Graph(1, (0,)))

    def test_forest(self):
        assert holds(FOREST, path(5))
        assert not holds(FOREST, cycle(3))

    def test_empty_graph_convention(self):
        empty = Graph(0, ())
        for p in (ANY_GRAPH, EDGELESS, FOREST, CLIQUE_COMPONENTS, max_degree(0)):
            assert holds(p, empty)
        assert not holds(CONNECTED, empty)
        assert not holds(NO_ISOLATED, empty)


class TestHoldsInduced:
    def test_pair_of_triangle_is_forest(self):
        assert holds_induced(FOREST, complete(3), bitmask([0, 1]))

    def test_p3_endpoints_edgeless(self):
        assert holds_induced(EDGELESS, path(3), bitmask([0, 2]))

    def test_cross_component_pair_not_connected(self):
        assert not holds_induced(CONNECTED, TWO_K2, bitmask([0, 2]))

    def test_agrees_with_predicate_on_full_set(self):
        props = list(CATALOG) + [max_degree(2)]
        for g in load_corpus("n6all"):
            for p in props:
                assert holds_induced(p, g, g.vertex_mask) == holds(p, g)

    def test_rejects_foreign_vertices(self):
        with pytest.raises(ValueError):
            holds_induced(FOREST, path(2), bitmask([5]))


class TestFlagTable:
    def test_hereditary_implies_induced(self):
        with pytest.raises(ValueError):
            PropertyDescriptor("F", "broken", hereditary=True)

    def test_catalog_flags(self):
        for p in (ANY_GRAPH, FOREST, max_degree(1), max_degree(2)):
            assert p.nondegenerate and p.hereditary
        assert CLIQUE_COMPONENTS.nondegenerate
        assert CLIQUE_COMPONENTS.induced_hereditary
        assert not CLIQUE_COMPONENTS.hereditary
        for p in (CONNECTED, NO_ISOLATED):
            assert not p.induced_hereditary and not p.nondegenerate
        for p in (ANY_GRAPH, EDGELESS, FOREST, CLIQUE_COMPONENTS, max_degree(0)):
            assert p.closed_union_K1
        for p in (CONNECTED, NO_ISOLATED):
            assert not p.closed_union_K1

    def test_parse_property(self):
        assert parse_property("I") is ANY_GRAPH
        assert parse_property("UK") is CLIQUE_COMPONENTS
        assert parse_property("D:2") == max_degree(2)
        assert parse_property("D").k == 1
        with pytest.raises(ValueError):
            parse_property("X")
        with pytest.raises(ValueError):
            parse_property("D:ما")

    def test_scope_rule(self):
        from domlab.properties import out_of_scope, require

        assert out_of_scope(FOREST, "hereditary") is None
        assert out_of_scope(CLIQUE_COMPONENTS, "induced_hereditary") is None
        assert out_of_scope(CLIQUE_COMPONENTS, "hereditary") == (
            "property UK is not hereditary and closed under union with K1")
        assert out_of_scope(CONNECTED, "induced_hereditary") == (
            "property C is not induced-hereditary and closed under union with K1")
        require(EDGELESS, "nondegenerate")
        with pytest.raises(ScopeError, match="^property T is not nondegenerate "
                                             "and closed under union with K1$"):
            require(NO_ISOLATED, "nondegenerate")

    def test_max_degree_requires_k(self):
        with pytest.raises(ValueError):
            PropertyDescriptor("D", "no k")
        with pytest.raises(ValueError):
            max_degree(-1)


@pytest.fixture(scope="module")
def n5():
    return load_corpus("n5all")


class TestAuditFlags:
    def test_clique_components_not_hereditary(self, n5):
        report = audit_flags(CLIQUE_COMPONENTS, n5)
        assert report.violations["hereditary"]  # e.g. a triangle contains P3
        assert report.claims_confirmed  # the flag is claimed False, so no claim broken

    def test_forest_flags_all_confirmed(self, n5):
        report = audit_flags(FOREST, n5)
        assert report.claims_confirmed
        assert not any(report.violations.values())

    def test_no_isolated_degenerate_witness(self, n5):
        report = audit_flags(NO_ISOLATED, n5)
        witnesses = [g6 for g6, _ in report.violations["nondegenerate"]]
        assert "@" in witnesses  # the single vertex

    def test_connected_breaks_k1_closure(self, n5):
        report = audit_flags(CONNECTED, n5)
        assert report.violations["closed_union_K1"]

    def test_all_claimed_flags_hold_on_n5(self, n5):
        for p in list(CATALOG) + [max_degree(2)]:
            assert audit_flags(p, n5).claims_confirmed, p.key


def _maximal_independent_sets(g):
    full = g.vertex_mask
    for S in range(full + 1):
        if not holds_induced(EDGELESS, g, S):
            continue
        if any(
            holds_induced(EDGELESS, g, S | (1 << v))
            for v in range(g.n)
            if not (S >> v) & 1
        ):
            continue
        yield S


def test_maximal_independent_sets_have_nondegenerate_properties():
    props = [p for p in list(CATALOG) + [max_degree(2)] if p.nondegenerate]
    for g in load_corpus("n6all"):
        for S in _maximal_independent_sets(g):
            assert is_dominating(g, S)
            for p in props:
                assert holds_induced(p, g, S)
