"""Subdivision profiles, multisubdivision numbers, and the chain checks."""

import pytest

from domlab import (
    ANY_GRAPH,
    BEYOND_CAP,
    CLIQUE_COMPONENTS,
    EDGELESS,
    PROVEN_INFINITE,
    BoundViolation,
    ScopeError,
    check_multi1,
    check_multi4,
    complete,
    complete_multipartite,
    cycle,
    ext_min,
    msd_graph,
    path,
    profile,
    s_class,
    star,
)

K333 = complete_multipartite([3, 3, 3])


class TestProfile:
    def test_p3_first_subdivision_raises(self):
        pr = profile(path(3), (0, 1), ANY_GRAPH, cap=3)
        assert pr.values == (1, 2, 2, 2)
        assert pr.msd == 1 and pr.msd_plus == 1
        assert pr.msd_minus is PROVEN_INFINITE
        assert pr.in_scope

    def test_p4_every_edge_needs_three(self):
        g = path(4)
        for e in g.edges():
            pr = profile(g, e, ANY_GRAPH, cap=3)
            assert pr.values == (2, 2, 2, 3)
            assert pr.msd == 3

    def test_k333_full_profile(self):
        for e in K333.edges():
            pr = profile(K333, e, EDGELESS, cap=6)
            assert pr.values == (3, 2, 2, 3, 3, 3, 4)
            assert pr.msd == 1 and pr.msd_minus == 1 and pr.msd_plus == 6

    def test_beyond_cap_marker(self):
        # within cap 3 nothing rises above gamma for this edge
        pr = profile(K333, (0, 3), EDGELESS, cap=3)
        assert pr.msd_plus is BEYOND_CAP
        assert pr.msd == 1

    def test_proven_infinite_only_for_unrestricted(self):
        pr = profile(K333, (0, 3), EDGELESS, cap=2)
        assert pr.msd_minus == 1
        pr2 = profile(cycle(4), (0, 1), EDGELESS, cap=3)
        assert pr2.msd_minus is BEYOND_CAP  # theory is silent here
        pr3 = profile(cycle(4), (0, 1), ANY_GRAPH, cap=3)
        assert pr3.msd_minus is PROVEN_INFINITE

    def test_includes_t0(self):
        pr = profile(complete(2), (0, 1), ANY_GRAPH, cap=2)
        assert pr.values[0] == 1

    def test_validates_edge_and_cap(self):
        with pytest.raises(ValueError):
            profile(path(3), (0, 2), ANY_GRAPH)
        with pytest.raises(ValueError):
            profile(path(3), (0, 1), ANY_GRAPH, cap=0)


class TestMsdGraph:
    def test_cycles_mod_three(self):
        assert msd_graph(cycle(6), ANY_GRAPH, cap=3).msd == 1
        assert msd_graph(cycle(5), ANY_GRAPH, cap=3).msd == 2
        assert msd_graph(cycle(4), ANY_GRAPH, cap=3).msd == 3

    def test_k2(self):
        got = msd_graph(complete(2), ANY_GRAPH, cap=3)
        assert got.msd == 2 and got.msd_plus == 2
        assert got.msd_minus is PROVEN_INFINITE

    def test_edgeless_rejected(self):
        from domlab import Graph

        with pytest.raises(ValueError):
            msd_graph(Graph(3, (0, 0, 0)), ANY_GRAPH)

    def test_ext_min_ordering(self):
        assert ext_min([BEYOND_CAP, 2, PROVEN_INFINITE]) == 2
        assert ext_min([BEYOND_CAP, PROVEN_INFINITE]) is BEYOND_CAP
        assert ext_min([PROVEN_INFINITE, PROVEN_INFINITE]) is PROVEN_INFINITE


class TestSClass:
    def test_paths_under_edgeless(self):
        assert s_class(path(6), EDGELESS) == 1
        assert s_class(path(5), EDGELESS) == 2
        assert s_class(path(7), EDGELESS) == 3

    def test_star_and_cycle(self):
        assert s_class(star(3), ANY_GRAPH) == 1
        assert s_class(cycle(7), ANY_GRAPH) == 3

    def test_refuses_non_hereditary(self):
        with pytest.raises(ScopeError):
            s_class(path(4), CLIQUE_COMPONENTS)

    def test_refuses_edgeless(self):
        with pytest.raises(ValueError, match="the subdivision class needs at least one edge"):
            s_class(path(1), ANY_GRAPH)

    def test_msd_above_3_raises_bound_violation(self, monkeypatch):
        from domlab import multisubdivision

        monkeypatch.setattr(multisubdivision, "msd_graph",
                            lambda g, p, cap: multisubdivision.MsdGraph(BEYOND_CAP, None, None))
        with pytest.raises(BoundViolation, match="expected within 1..3") as err:
            s_class(path(3), ANY_GRAPH)
        assert (err.value.graph6, err.value.property_key) == ("Bg", "I")

    def test_bound_violation_carries_replay_data(self):
        err = BoundViolation("Bw", "I", "test detail")
        assert err.graph6 == "Bw" and err.property_key == "I"


class TestMulti1:
    def test_k333(self):
        # deleting an edge saves a vertex while the triple subdivision does
        # not, so all three conditions are false together: the equivalence
        # holds even though none of them is satisfied
        m = check_multi1(K333, (0, 3), EDGELESS)
        assert (m.gamma, m.gamma_deleted, m.gamma_sub3) == (3, 2, 3)
        assert m.sandwich
        assert m.a1 is False and m.a2 is False and m.a3 is False

    def test_k2(self):
        # gamma of the two isolated vertices is 2, as is gamma of P5
        m = check_multi1(complete(2), (0, 1), ANY_GRAPH)
        assert m.sandwich and m.a1 and m.a2 and m.a3
        assert (m.gamma, m.gamma_deleted, m.gamma_sub3) == (1, 2, 2)

    def test_p3(self):
        for e in path(3).edges():
            m = check_multi1(path(3), e, ANY_GRAPH)
            assert m.sandwich
            assert m.a1 == m.a2 == m.a3  # hereditary property

    def test_scope(self):
        from domlab import CONNECTED

        with pytest.raises(ScopeError):
            check_multi1(path(3), (0, 1), CONNECTED)


class TestMulti4:
    def test_k333_chain(self):
        for e in K333.edges():
            m = check_multi4(K333, e, EDGELESS)
            assert m.iff_holds and m.chain is True and m.msd_le_3

    def test_c4_iff_vacuous(self):
        m = check_multi4(cycle(4), (0, 1), ANY_GRAPH)
        assert m.iff_holds  # both sides false
        assert m.chain is None
        assert m.msd_le_3 and m.profile.msd == 3

    def test_p3_small_msd(self):
        m = check_multi4(path(3), (0, 1), ANY_GRAPH)
        assert m.msd_le_3 and m.profile.msd == 1

    def test_scope(self):
        with pytest.raises(ScopeError):
            check_multi4(path(3), (0, 1), CLIQUE_COMPONENTS)
