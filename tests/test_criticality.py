"""Edge criticality flags and the structural condition checks."""

import pytest

from domlab import (
    ANY_GRAPH,
    CONNECTED,
    EDGELESS,
    FOREST,
    ScopeError,
    bitmask,
    check_theorem1_conditions,
    class_membership,
    classify_edge,
    complete,
    complete_multipartite,
    cycle,
    is_s_plus_critical_iff_conditions,
    path,
    s_minus_equiv_er_minus,
    star,
    three_stars_triangle,
)

K333 = complete_multipartite([3, 3, 3])


class TestClassifyEdge:
    def test_star_is_s_plus(self):
        c = classify_edge(star(3), (0, 1), ANY_GRAPH)
        assert (c.gamma, c.gamma_subdivided) == (1, 2)
        assert c.s_plus and not c.s_minus and not c.er_minus
        assert c.in_scope

    def test_k333_is_s_minus_and_er_minus(self):
        c = classify_edge(K333, (0, 3), EDGELESS)
        assert (c.gamma, c.gamma_subdivided, c.gamma_deleted) == (3, 2, 2)
        assert c.s_minus and c.er_minus and not c.s_plus

    def test_c4_all_flags_false(self):
        for e in cycle(4).edges():
            c = classify_edge(cycle(4), e, ANY_GRAPH)
            assert (c.gamma, c.gamma_subdivided, c.gamma_deleted) == (2, 2, 2)
            assert not (c.s_plus or c.s_minus or c.er_minus)

    def test_undefined_side_reported_not_asserted(self):
        # deleting the only edge of P2 disconnects it: the connected-set
        # gamma of the deleted graph is undefined
        c = classify_edge(path(2), (0, 1), CONNECTED)
        assert c.gamma_deleted is None
        assert not c.in_scope
        assert not (c.s_plus or c.s_minus or c.er_minus)

    def test_absent_edge(self):
        with pytest.raises(ValueError):
            classify_edge(path(3), (0, 2), ANY_GRAPH)

    def test_condition_report_covers_every_minimum_set(self):
        c = classify_edge(cycle(4), (0, 1), ANY_GRAPH)
        assert len(c.condition_report) == 6


class TestConditions:
    def test_p3_condition_ii(self):
        cond = check_theorem1_conditions(path(3), (1, 2), ANY_GRAPH, bitmask([1]))
        assert cond.ii and not cond.i
        assert cond.any

    def test_k2_no_condition(self):
        cond = check_theorem1_conditions(complete(2), (0, 1), ANY_GRAPH, bitmask([0]))
        assert not (cond.i or cond.ii or cond.iii)

    def test_c4_condition_i_depends_on_edge(self):
        g = cycle(4)
        M = bitmask([0, 2])
        assert not check_theorem1_conditions(g, (0, 1), ANY_GRAPH, M).i
        # no C4 edge avoids the diagonal pair {0,2}, so (i) never holds for it
        assert all(
            not check_theorem1_conditions(g, e, ANY_GRAPH, M).i for e in g.edges()
        )

    def test_rejects_non_minimum_set(self):
        with pytest.raises(ValueError):
            check_theorem1_conditions(path(3), (0, 1), ANY_GRAPH, bitmask([0, 2]))

    def test_literal_mode_weakens_iii(self):
        # symmetric (iii) mirrors (ii); the literal reading inspects the
        # private neighbors of the endpoint outside M, which are empty
        g = path(3)
        M = bitmask([1])
        sym = check_theorem1_conditions(g, (0, 1), ANY_GRAPH, M)
        lit = check_theorem1_conditions(g, (0, 1), ANY_GRAPH, M, literal=True)
        assert sym.iii and not lit.iii


class TestIff:
    def test_star_edges(self):
        g = star(3)
        assert all(
            is_s_plus_critical_iff_conditions(g, e) == (True, True)
            for e in g.edges()
        )

    def test_k2(self):
        assert is_s_plus_critical_iff_conditions(complete(2), (0, 1)) == (False, False)

    def test_c4(self):
        g = cycle(4)
        assert all(
            is_s_plus_critical_iff_conditions(g, e) == (False, False)
            for e in g.edges()
        )

    def test_lhs_needs_no_gamma_of_the_deleted_graph(self):
        # P3 minus (0,1) is disconnected, so classify_edge is out of scope
        # and s_plus is False; subdividing (0,1) still raises gamma_c 1 -> 2
        g = path(3)
        assert not classify_edge(g, (0, 1), CONNECTED).s_plus
        assert is_s_plus_critical_iff_conditions(g, (0, 1), CONNECTED).lhs


class TestMinusEquivalence:
    def test_k333(self):
        assert s_minus_equiv_er_minus(K333, (0, 3), EDGELESS) == (True, True)

    def test_p4(self):
        g = path(4)
        assert all(
            s_minus_equiv_er_minus(g, e, ANY_GRAPH) == (False, False)
            for e in g.edges()
        )

    def test_three_stars_triangle_edge(self):
        g = three_stars_triangle(3)
        assert s_minus_equiv_er_minus(g, (0, 1), FOREST) == (True, True)

    def test_scope_enforced(self):
        with pytest.raises(ScopeError):
            s_minus_equiv_er_minus(path(3), (0, 1), CONNECTED)


class TestClassMembership:
    def test_k333_in_both_classes(self):
        assert class_membership(K333, EDGELESS) == (True, True)

    def test_k2_in_neither(self):
        assert class_membership(complete(2), ANY_GRAPH) == (False, False)

    def test_c4_edgeless_property(self):
        assert class_membership(cycle(4), EDGELESS) == (False, False)

    def test_edgeless_graph_rejected(self):
        from domlab import Graph

        with pytest.raises(ValueError):
            class_membership(Graph(2, (0, 0)), ANY_GRAPH)
