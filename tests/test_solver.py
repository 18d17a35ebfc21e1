"""Solver against frozen oracle values and cross-validation invariants."""

import gc
import itertools
import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import (
    ANY_GRAPH,
    CATALOG,
    CLIQUE_COMPONENTS,
    CONNECTED,
    EDGELESS,
    FOREST,
    NO_ISOLATED,
    GammaResult,
    Graph,
    OracleCapError,
    PropertyDescriptor,
    UndefinedGammaError,
    add_edge,
    all_minimum_sets,
    bitmask,
    complete,
    complete_multipartite,
    components,
    cycle,
    delete_edge,
    delete_vertex,
    gamma,
    gamma_oracle,
    gamma_value,
    holds_induced,
    in_some_minimum_set,
    induced_subgraph,
    is_dominating,
    max_degree,
    members,
    parse_property,
    path,
    private_neighbors,
    star,
    subdivide_edge,
    three_stars_triangle,
    translate_set,
    v_minus_set,
)
from domlab import solver
from domlab.corpus import load_corpus

from test_graph import small_graphs

TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])
ALL_PROPS = [ANY_GRAPH, EDGELESS, CONNECTED, NO_ISOLATED, FOREST,
             CLIQUE_COMPONENTS, max_degree(1), max_degree(2)]


def clear_solver_memos():
    for memo in (solver._gamma_value, solver.all_minimum_sets, solver._closed_rows):
        memo.cache_clear()


class TestIsDominating:
    def test_p3_center(self):
        assert is_dominating(path(3), bitmask([1]))

    def test_p3_endpoint(self):
        assert not is_dominating(path(3), bitmask([0]))

    def test_whole_vertex_set(self):
        g = cycle(6)
        assert is_dominating(g, g.vertex_mask)

    def test_empty_graph(self):
        assert is_dominating(Graph(0, ()), 0)


class TestGamma:
    def test_k333_edgeless_property(self):
        assert gamma_value(complete_multipartite([3, 3, 3]), EDGELESS) == 3

    def test_star_is_one(self):
        for p in range(2, 7):
            for prop in (ANY_GRAPH, EDGELESS, FOREST):
                assert gamma_value(star(p), prop) == 1

    def test_connected_undefined_on_2k2(self):
        result = gamma(TWO_K2, CONNECTED)
        assert result.value is None and result.witness is None

    def test_three_stars_forest(self):
        for p in range(2, 5):
            assert gamma_value(three_stars_triangle(p), FOREST) == 2 + p

    def test_empty_graph_convention(self):
        empty = Graph(0, ())
        assert gamma(empty, ANY_GRAPH).value == 0
        assert gamma(empty, ANY_GRAPH).witness == 0
        assert gamma(empty, CONNECTED).value is None

    def test_witness_is_lex_least(self):
        # C4 has six minimum dominating sets; {0,1} is lexicographically first
        assert gamma(cycle(4), ANY_GRAPH).witness == bitmask([0, 1])

    def test_result_is_value_and_witness(self):
        # no echo of the inputs: two relabelled copies give equal results
        c4 = cycle(4)
        assert gamma(c4.relabel("a"), ANY_GRAPH) == GammaResult(2, bitmask([0, 1]))
        assert gamma_oracle(c4.relabel("b"), ANY_GRAPH) == GammaResult(2, bitmask([0, 1]))
        assert gamma(Graph(0, ()), CONNECTED) == GammaResult(None, None)


class TestIncrementalPrune:
    def test_extends_equals_holds_induced_on_the_larger_set(self):
        # the search adds one vertex u to a set S that has p; its test of
        # S + u must read exactly what holds_induced reads
        cases = 0
        for p in (EDGELESS, max_degree(0), max_degree(1), max_degree(2),
                  FOREST, CLIQUE_COMPONENTS):
            for g in load_corpus("n6all"):
                extends = solver._Search(g, p).extends
                for S in range(1 << g.n):
                    if not holds_induced(p, g, S):
                        continue
                    for u in range(g.n):
                        if not S >> u & 1:
                            assert extends(p, g.adj, S, u) == holds_induced(
                                p, g, S | 1 << u), (g.label, p.key, S, u)
                            cases += 1
        assert cases == 135_410

    def test_unknown_property_id_raises(self):
        with pytest.raises(ValueError, match="unknown property id"):
            gamma_value(path(3), PropertyDescriptor("X", "unknown"))

    def test_forced_prefix_is_tested_through_extends(self, monkeypatch):
        # minimum_sets and in_some_minimum_set force a start set one vertex
        # larger than a set find accepted before; find tests that vertex
        # alone, never the whole set
        calls = []
        real = solver.holds_induced
        monkeypatch.setattr(solver, "holds_induced",
                            lambda *args: calls.append(args) or real(*args))
        graphs = [g for g in load_corpus("n6all") if g.n]
        clear_solver_memos()
        for p in (ANY_GRAPH, EDGELESS, FOREST, CLIQUE_COMPONENTS, max_degree(1),
                  max_degree(2)):
            for g in graphs:
                sets = all_minimum_sets(g, p)
                assert [in_some_minimum_set(g, p, v) for v in range(g.n)] == [
                    any(S >> v & 1 for S in sets) for v in range(g.n)]
        assert calls == []

    def test_minimum_sets_leave_no_search_behind(self):
        # the walk over minimum sets holds its search without a reference
        # cycle, so a finished walk frees its search without the cyclic
        # collector
        def searches():
            return sum(isinstance(o, solver._Search) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = searches()
            for _ in range(5):
                walk = solver._Search(cycle(4), ANY_GRAPH).minimum_sets(0, 0, 2)
                assert len(list(walk)) == 6
            del walk
            assert searches() == before
        finally:
            gc.enable()

    def test_reused_search_carries_no_state(self):
        # a walk over the minimum sets, suspended between sets (as gamma
        # leaves it), reuses its search for every find; between its sets run
        # the membership of every vertex, which recomputes gamma after the
        # value memo is emptied, and misses on the vertex-deleted graphs.
        # Each answer must equal one computed with every memo empty.
        graphs = [g for g in load_corpus("n6all") if g.n]
        for p in ALL_PROPS:
            clear_solver_memos()
            warm = []
            for g in graphs:
                value = gamma_value(g, p)
                if value is None:
                    warm.append(None)
                    continue
                walk = solver._Search(g, p).minimum_sets(0, 0, value)
                sets, inside, smaller = [next(walk)], [], []
                for v in range(g.n):
                    solver._gamma_value.cache_clear()
                    inside.append(in_some_minimum_set(g, p, v))
                    smaller.append(gamma_value(delete_vertex(g, v)[0], p))
                    sets.extend(itertools.islice(walk, 1))
                sets.extend(walk)
                warm.append((value, sets, inside, smaller))
            cold = []
            for g in graphs:
                clear_solver_memos()
                value = gamma_value(g, p)
                if value is None:
                    cold.append(None)
                    continue
                sets = list(solver._Search(g, p).minimum_sets(0, 0, value))
                smaller = []
                for v in range(g.n):
                    clear_solver_memos()
                    smaller.append(gamma_value(delete_vertex(g, v)[0], p))
                inside = [any(S >> v & 1 for S in sets) for v in range(g.n)]
                cold.append((value, sets, inside, smaller))
            assert warm == cold, p.key


def _memo_keys(keys):
    """Fresh property descriptors for the given keys, then P5 and one graph
    from each edit of it."""
    g = path(5)
    return [*map(parse_property, keys), g, g.relabel("P5"), delete_edge(g, (1, 2)),
            add_edge(g, (0, 4)), delete_vertex(g, 2)[0], subdivide_edge(g, (3, 4), 2),
            induced_subgraph(g, 0b10110)[0]]


def _misses_in_fresh_process(received):
    """The positions where an object pickled into this process is not equal
    to, hashed like, and a dict hit for its fresh counterpart."""
    fresh = _memo_keys([x.key for x in received if isinstance(x, PropertyDescriptor)])
    return [i for i, (a, b) in enumerate(zip(received, fresh, strict=True))
            if not (a == b and hash(a) == hash(b) and {b: i}.get(a) == i)]


class TestMemoKeys:
    def test_hashes_survive_pickling_into_a_spawned_process(self):
        # str hashes are salted per process, so a descriptor's cached hash
        # must be recomputed on arrival; a spawned process has its own salt
        keys = [p.key for p in ALL_PROPS] + ["D:0", "D:3"]
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            result = pool.apply_async(_misses_in_fresh_process, (_memo_keys(keys),))
            assert result.get(timeout=120) == []


class TestGammaOracle:
    def test_p4(self):
        assert gamma_oracle(path(4), ANY_GRAPH).value == 2

    def test_k1(self):
        for p in (ANY_GRAPH, EDGELESS, FOREST, max_degree(1)):
            assert gamma_oracle(path(1), p).value == 1

    def test_c5_total_domination(self):
        from domlab import NO_ISOLATED

        assert gamma_oracle(cycle(5), NO_ISOLATED).value == 3

    def test_cap(self):
        with pytest.raises(OracleCapError):
            gamma_oracle(Graph(21, (0,) * 21), ANY_GRAPH)

    def test_empty_graph_matches_solver(self):
        empty = Graph(0, ())
        for p in (ANY_GRAPH, CONNECTED):
            fast, slow = gamma(empty, p), gamma_oracle(empty, p)
            assert (fast.value, fast.witness) == (slow.value, slow.witness)


class TestAllMinimumSets:
    def test_p3_unique(self):
        assert all_minimum_sets(path(3), ANY_GRAPH) == (bitmask([1]),)

    def test_c4_all_six_pairs(self):
        got = [members(S) for S in all_minimum_sets(cycle(4), ANY_GRAPH)]
        assert got == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_k2_edgeless(self):
        assert all_minimum_sets(complete(2), EDGELESS) == (bitmask([0]), bitmask([1]))

    def test_undefined_raises(self):
        with pytest.raises(UndefinedGammaError):
            all_minimum_sets(TWO_K2, CONNECTED)

    def test_memo_hands_out_the_same_tuple(self):
        # a tuple cannot be changed by a caller, so the memo hands out its own
        first = all_minimum_sets(cycle(4), ANY_GRAPH)
        hits = all_minimum_sets.cache_info().hits
        second = all_minimum_sets(cycle(4), ANY_GRAPH)
        assert all_minimum_sets.cache_info().hits == hits + 1
        assert second is first and isinstance(first, tuple) and len(first) == 6
        for _ in range(2):  # an undefined gamma raises on every call
            with pytest.raises(UndefinedGammaError):
                all_minimum_sets(TWO_K2, CONNECTED)

    def test_lexicographic_order_matches_oracle(self):
        import itertools

        for name in ("n5all", "n6all"):
            for g in load_corpus(name):
                for p in (*CATALOG, max_degree(2)):
                    value = gamma_value(g, p)
                    if value is None:
                        continue
                    expected = tuple(
                        bitmask(c)
                        for c in itertools.combinations(range(g.n), value)
                        if is_dominating(g, bitmask(c)) and holds_induced(p, g, bitmask(c))
                    )
                    assert all_minimum_sets(g, p) == expected
                    assert gamma(g, p).witness == expected[0]


class TestInSomeMinimumSet:
    def test_p3(self):
        g = path(3)
        assert in_some_minimum_set(g, ANY_GRAPH, 1)
        assert not in_some_minimum_set(g, ANY_GRAPH, 0)

    def test_complete_graph_symmetry(self):
        g = complete(5)
        assert all(in_some_minimum_set(g, ANY_GRAPH, v) for v in range(5))

    def test_p4_endpoint(self):
        assert in_some_minimum_set(path(4), ANY_GRAPH, 0)

    def test_matches_enumeration(self):
        for g in load_corpus("n5all"):
            for p in (ANY_GRAPH, EDGELESS, max_degree(1)):
                present = 0
                for S in all_minimum_sets(g, p):
                    present |= S
                for v in range(g.n):
                    assert in_some_minimum_set(g, p, v) == bool((present >> v) & 1)

    def test_matches_enumeration_connected_and_total(self):
        # C and T search from a forced start vertex, not by closed-row pruning
        for g in load_corpus("n6all"):
            for p in (CONNECTED, NO_ISOLATED):
                if gamma_value(g, p) is None:
                    continue
                present = 0
                for S in all_minimum_sets(g, p):
                    present |= S
                for v in range(g.n):
                    assert in_some_minimum_set(g, p, v) == bool((present >> v) & 1), (
                        g.label, p.key, v)

    def test_undefined_raises(self):
        with pytest.raises(UndefinedGammaError):
            in_some_minimum_set(TWO_K2, CONNECTED, 0)


class TestVMinusSet:
    def test_p4_endpoints(self):
        assert members(v_minus_set(path(4), ANY_GRAPH)) == [0, 3]

    def test_k1(self):
        # deleting the only vertex leaves the empty graph with gamma 0 < 1
        assert members(v_minus_set(path(1), ANY_GRAPH)) == [0]

    def test_c4_every_vertex(self):
        # gamma(C4) = 2 and every deletion leaves P3 with gamma 1
        assert members(v_minus_set(cycle(4), ANY_GRAPH)) == [0, 1, 2, 3]


class TestSolverOracleAgreement:
    def test_full_n5_corpus(self):
        for g in load_corpus("n5all"):
            for p in ALL_PROPS:
                fast, slow = gamma(g, p), gamma_oracle(g, p)
                assert fast.value == slow.value, (g.label, p.key)
                assert fast.witness == slow.witness, (g.label, p.key)

    def test_full_n6_corpus_max_degree_0_and_3(self):
        # the acceptance criterion covers D:1 and D:2 on n6all
        for g in load_corpus("n6all"):
            for p in (max_degree(0), max_degree(3)):
                fast, slow = gamma(g, p), gamma_oracle(g, p)
                assert (fast.value, fast.witness) == (slow.value, slow.witness), (
                    g.label, p.key)

    @given(small_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, g):
        for p in (ANY_GRAPH, EDGELESS, CONNECTED, NO_ISOLATED,
                  CLIQUE_COMPONENTS, max_degree(1)):
            fast, slow = gamma(g, p), gamma_oracle(g, p)
            assert fast.value == slow.value
            assert fast.witness == slow.witness


def seeded_gnm(n, m, tag):
    """G(n, m): m of the vertex pairs, drawn from random.Random(tag)."""
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, random.Random(tag).sample(pairs, m), label=tag)


class TestConnectedAboveToySizes:
    """C on seeded G(n, 9n/4): the gain bound meets disconnected forced
    prefixes in the witness walk and in membership queries."""

    GRAPHS = [seeded_gnm(n, 9 * n // 4, f"connected oracle G({n}) #{i}")
              for n in range(10, 21) for i in range(4)]

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.label)
    def test_matches_oracle(self, g):
        result = gamma(g, CONNECTED)
        if len(components(g)) > 1:
            # no connected set dominates; the oracle would try all 2^n sets
            assert result == GammaResult(None, None)
            return
        assert result == gamma_oracle(g, CONNECTED)
        expected = tuple(
            bitmask(c) for c in itertools.combinations(range(g.n), result.value)
            if is_dominating(g, bitmask(c)) and holds_induced(CONNECTED, g, bitmask(c)))
        assert all_minimum_sets(g, CONNECTED) == expected
        present = 0
        for S in expected:
            present |= S
        assert [in_some_minimum_set(g, CONNECTED, v) for v in range(g.n)] == [
            bool(present >> v & 1) for v in range(g.n)]

    def test_value_and_witness_search_visit_few_nodes(self, monkeypatch):
        # the search before the gain bound and the gain-ranked order made
        # 71,812 calls on these five graphs (one is disconnected)
        calls = []
        real = solver._Search._connected
        monkeypatch.setattr(solver._Search, "_connected",
                            lambda self, *args: calls.append(1) or real(self, *args))
        clear_solver_memos()
        for i in range(5):
            gamma(seeded_gnm(28, 63, f"connected nodes #{i}"), CONNECTED)
        assert len(calls) <= 71_812 // 2


class TestClosedFormsBeyondOracle:
    """Known values on paths and cycles above the oracle's n <= 20 cap."""

    ORDERS = (24, 32, 40)

    @staticmethod
    def check(g, p, expected):
        result = gamma(g, p)
        assert result.value == expected, (g.label, p.key)
        assert is_dominating(g, result.witness)
        assert holds_induced(p, g, result.witness)
        assert result.witness.bit_count() == expected

    @pytest.mark.parametrize("n", ORDERS)
    def test_connected_paths_and_cycles(self, n):
        self.check(path(n), CONNECTED, n - 2)
        self.check(cycle(n), CONNECTED, n - 2)

    @pytest.mark.parametrize("n", ORDERS)
    def test_total_cycles(self, n):
        self.check(cycle(n), NO_ISOLATED, n // 2 + -(-n // 4) - n // 4)

    @pytest.mark.parametrize("n", ORDERS)
    def test_plain_and_independent_paths_and_cycles(self, n):
        for g in (path(n), cycle(n)):
            for p in (ANY_GRAPH, EDGELESS):
                self.check(g, p, -(-n // 3))


@given(small_graphs(max_n=9), st.data())
@settings(max_examples=40, deadline=None)
def test_relabeling_invariance(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    for p in CATALOG:
        assert gamma_value(relabeled, p) == gamma_value(g, p), p.key


@given(small_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_witness_validity(g):
    for p in ALL_PROPS:
        result = gamma(g, p)
        if result.value is not None:
            assert is_dominating(g, result.witness)
            assert holds_induced(p, g, result.witness)
            assert result.witness.bit_count() == result.value


def test_vertex_deletion_monotone_sandwich():
    # for nondegenerate K1-closed properties a deletion never saves more
    # than one vertex, and any savings lifts back with a private witness
    props = [ANY_GRAPH, EDGELESS, FOREST, max_degree(1)]
    for g in load_corpus("n5all"):
        for p in props:
            base = gamma_value(g, p)
            for v in range(g.n):
                smaller, kept = delete_vertex(g, v)
                reduced = gamma_value(smaller, p)
                if reduced < base:
                    assert reduced == base - 1
                    for M in all_minimum_sets(smaller, p):
                        lifted = translate_set(M, kept) | (1 << v)
                        assert lifted.bit_count() == base
                        assert is_dominating(g, lifted)
                        assert holds_induced(p, g, lifted)
                        assert private_neighbors(g, v, lifted) == 1 << v
                if not in_some_minimum_set(g, p, v):
                    assert reduced == base
