"""Edge criticality flags and the structural condition checks."""

import pytest

from domlab import (
    ANY_GRAPH,
    CATALOG,
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
    load_corpus,
    max_degree,
    parse_graph6,
    path,
    s_minus_equiv_er_minus,
    star,
    three_stars_triangle,
)
from domlab.properties import out_of_scope

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


    def test_rhs_stops_at_the_first_set_without_a_condition(self, monkeypatch):
        # K2 has the minimum sets {0} and {1}; {0} satisfies no condition
        # for the edge, so the conditions of {1} are never checked
        from domlab import criticality

        checked = []

        def checking(g, e, p, M, literal=False):
            checked.append(M)
            return real(g, e, p, M, literal=literal)

        real = criticality.check_theorem1_conditions
        monkeypatch.setattr(criticality, "check_theorem1_conditions", checking)
        assert is_s_plus_critical_iff_conditions(complete(2), (0, 1)).rhs is False
        assert checked == [bitmask([0])]


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

    def test_a_critical_first_edge_is_not_enough(self):
        # only the first edge of Flea? is S--critical and ER--critical
        g = parse_graph6("Flea?")
        flags = [classify_edge(g, e, EDGELESS) for e in g.edges()]
        assert [(c.s_minus, c.er_minus) for c in flags].count((True, True)) == 1
        assert flags[0].s_minus and flags[0].er_minus
        assert class_membership(g, EDGELESS) == (False, False)

    def test_edgeless_graph_rejected(self):
        from domlab import Graph

        with pytest.raises(ValueError):
            class_membership(Graph(2, (0, 0)), ANY_GRAPH)

    def test_each_edge_is_checked_once(self, monkeypatch):
        # every edge of K_{3,3,3} is in both classes under O, so the one pass
        # visits all 27 edges, each once
        from domlab import criticality

        calls = []
        real = criticality._minus_check
        monkeypatch.setattr(criticality, "_minus_check",
                            lambda g, e, p: calls.append(e) or real(g, e, p))
        assert class_membership(K333, EDGELESS) == (True, True)
        assert len(calls) == 27 and sorted(calls) == K333.edges()


def test_helpers_agree_with_classify_edge():
    # the helpers compute only the gammas and conditions they read; on every
    # edge of every n6all graph, for every property, they must agree with
    # the full classification
    for g in load_corpus("n6all"):
        for p in (*CATALOG, max_degree(2)):
            flags = [classify_edge(g, e, p) for e in g.edges()]
            for c in flags:
                at = (g.label, c.edge, p.key)
                for literal in (False, True):
                    full = classify_edge(g, c.edge, p, literal=literal)
                    lhs = (None not in (full.gamma, full.gamma_subdivided)
                           and full.gamma_subdivided > full.gamma)
                    rhs = (full.gamma is not None
                           and all(cond.any for _, cond in full.condition_report))
                    iff = is_s_plus_critical_iff_conditions(g, c.edge, p, literal)
                    assert iff == (lhs, rhs), (*at, literal)
                if out_of_scope(p, "induced_hereditary") is None:
                    assert s_minus_equiv_er_minus(g, c.edge, p) == (c.s_minus, c.er_minus), at
            if flags:
                expected = (all(c.s_minus for c in flags), all(c.er_minus for c in flags))
                assert class_membership(g, p) == expected, (g.label, p.key)
