"""Property predicates, flag metadata, and the empirical flag audit."""

import io
import itertools
import json
import re

import networkx as nx
import pytest
from networkx.algorithms import isomorphism

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
    delete_edge,
    delete_vertex,
    emit_report,
    holds,
    holds_induced,
    induced_subgraph,
    max_degree,
    members,
    parse_graph6,
    parse_property,
    path,
    run_suite,
    to_graph6,
)
from domlab.corpus import load_corpus
from domlab.properties import FLAGS, flag_violations
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
        # only ASCII digits after "D:", though int() accepts all of these
        for text in ("D:1_0", "D:١", "D:+2", "D: 3", "D:-0"):
            with pytest.raises(ValueError, match="bad max-degree parameter"):
                parse_property(text)

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

    def test_unknown_property_id_raises(self):
        # rejected when the descriptor is built, not deep inside a search
        with pytest.raises(ValueError, match="unknown property id"):
            PropertyDescriptor("X", "unknown")


@pytest.fixture(scope="module")
def n5():
    return load_corpus("n5all")


@pytest.fixture(scope="module")
def n6():
    return load_corpus("n6all")


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def exhaustive_audit(p, corpus):
    """Reference for audit_flags: the violation graph6 lists of each flag,
    found by testing every edge subset of every induced subgraph."""
    violations = {flag: [] for flag in
                  ("hereditary", "induced_hereditary", "closed_union_K1", "nondegenerate")}
    for g in corpus:
        g6 = to_graph6(g)
        if g.edge_count() == 0 and not holds(p, g):
            violations["nondegenerate"].append(g6)
        if not holds(p, g):
            continue
        if not holds(p, Graph(g.n + 1, g.adj + (0,))):
            violations["closed_union_K1"].append(g6)
        induced_hit = hereditary_hit = False
        for S in range(g.vertex_mask + 1):
            if induced_hit and hereditary_hit:
                break
            sub, _ = induced_subgraph(g, S)
            induced_hit = induced_hit or not holds(p, sub)
            sub_edges = sub.edges()
            hereditary_hit = hereditary_hit or any(
                not holds(p, Graph.from_edges(sub.n, chosen))
                for r in range(len(sub_edges) + 1)
                for chosen in itertools.combinations(sub_edges, r))
        if induced_hit:
            violations["induced_hereditary"].append(g6)
        if hereditary_hit:
            violations["hereditary"].append(g6)
    return violations


def claim_violations(p, violations):
    """The flags of an audit_flags result that p claims and that have
    witnesses: a claimed flag must come out clean."""
    return {flag: hits for flag, hits in violations.items() if hits and getattr(p, flag)}


def overclaimed(p, **flags):
    return PropertyDescriptor(p.id, f"{p.name} (overclaimed)", k=p.k, **{
        "hereditary": p.hereditary, "induced_hereditary": p.induced_hereditary,
        "closed_union_K1": p.closed_union_K1, "nondegenerate": p.nondegenerate,
        **flags})


# UK is not hereditary: K3 minus an edge is P3. C is not induced-hereditary,
# but every one-vertex deletion of C5 is the connected P4, so the walk must
# go two deletions deep.
OVERCLAIMED = [
    (overclaimed(CLIQUE_COMPONENTS, hereditary=True), complete(3), "hereditary"),
    (overclaimed(CONNECTED, induced_hereditary=True), cycle(5), "induced_hereditary"),
]
# connected, claimed to have every flag: C5 and P3 have it, and each loses it
# with an isolated vertex added, after an edge deletion and after a vertex
# deletion
OVERCLAIMED_CONNECTED = overclaimed(CONNECTED, hereditary=True, induced_hereditary=True,
                                    closed_union_K1=True, nondegenerate=True)


def _complete_multipartite(p, g, S):
    """The predicate of the id KM: complete multipartite graphs, where
    non-adjacent vertices have the same neighbours. KM is induced-hereditary
    but not hereditary, and K4 first fails it two edge deletions deep (K4
    minus two edges at one vertex)."""
    return all(g.adj[u] & S == g.adj[v] & S
               for u in members(S) for v in members(S & ~g.adj[u]))


def replay(p, detail):
    """Check a witness from its text alone: the named parent has p, and
    deleting the named vertex or edge from it gives the named child, which
    lacks p. Returns (parent, child)."""
    match = WITNESS.fullmatch(detail)
    assert match, detail
    parent = parse_graph6(match["parent"])
    if match["vertex"] is not None:
        child, _ = delete_vertex(parent, int(match["vertex"]))
    else:
        child = delete_edge(parent, (int(match["u"]), int(match["v"])))
    assert to_graph6(child) == match["child"]
    assert holds(p, parent) and not holds(p, child)
    return parent, child


WITNESS = re.compile(r"deleting (?:vertex (?P<vertex>\d+)|edge (?P<u>\d+)-(?P<v>\d+)) "
                     r"from (?P<parent>\S+) \(has the property\) "
                     r"gives (?P<child>\S+) \(lacks it\)")


@pytest.fixture
def cold_failure_memos():
    """Empty the flag audit's memos before and after the test, so no entry
    computed under a patched predicate outlives it."""
    from domlab import properties

    memos = (properties._induced_failure, properties._spanning_failure)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestAuditFlags:
    def test_clique_components_not_hereditary(self, n5):
        violations = audit_flags(CLIQUE_COMPONENTS, n5)
        assert violations["hereditary"]  # e.g. a triangle contains P3
        # the flag is claimed False, so no claim broken
        assert claim_violations(CLIQUE_COMPONENTS, violations) == {}

    def test_forest_flags_all_confirmed(self, n5):
        violations = audit_flags(FOREST, n5)
        assert list(violations) == list(FLAGS)  # every flag, in FLAGS order
        assert claim_violations(FOREST, violations) == {}
        assert not any(violations.values())

    def test_no_isolated_degenerate_witness(self, n5):
        witnesses = [g6 for g6, _ in audit_flags(NO_ISOLATED, n5)["nondegenerate"]]
        assert "@" in witnesses  # the single vertex

    def test_connected_breaks_k1_closure(self, n5):
        assert audit_flags(CONNECTED, n5)["closed_union_K1"]

    def test_all_claimed_flags_hold_on_n5(self, n5):
        for p in list(CATALOG) + [max_degree(2)]:
            assert claim_violations(p, audit_flags(p, n5)) == {}, p.key

    @pytest.mark.parametrize("corpus", ["n5all", "n6all"])
    @pytest.mark.parametrize("p", list(CATALOG) + [max_degree(2)], ids=str)
    def test_matches_exhaustive_reference(self, p, corpus):
        graphs = load_corpus(corpus)
        got = {flag: [g6 for g6, _ in hits] for flag, hits in audit_flags(p, graphs).items()}
        assert got == exhaustive_audit(p, graphs)

    @pytest.mark.parametrize("p, g, flag", OVERCLAIMED, ids=["UK-K3", "C-C5"])
    def test_overclaimed_flag_matches_exhaustive_reference(self, p, g, flag):
        violations = audit_flags(p, [g])
        assert list(claim_violations(p, violations)) == [flag]
        got = {f: [g6 for g6, _ in hits] for f, hits in violations.items()}
        assert got == exhaustive_audit(p, [g])

    def test_edge_deletions_two_deep(self, cold_failure_memos, monkeypatch, n5):
        from domlab import properties

        monkeypatch.setitem(properties.RULES, "KM",
                            properties.Rule(_complete_multipartite, None, "closed"))
        # claims hereditary, which the audit must refute
        p = PropertyDescriptor("KM", "complete multipartite",
                               hereditary=True, induced_hereditary=True)
        violations = audit_flags(p, [complete(4)])
        (_, detail), = violations["hereditary"]
        parent, child = replay(p, detail)
        assert (parent.n, parent.edge_count(), child.edge_count()) == (4, 5, 4)
        assert not violations["induced_hereditary"]
        got = {f: [g6 for g6, _ in hits] for f, hits in audit_flags(p, n5).items()}
        assert got == exhaustive_audit(p, n5)
        assert got["hereditary"]

    @pytest.mark.parametrize("p, g, flag", OVERCLAIMED, ids=["UK-K3", "C-C5"])
    def test_claim_violation_replays_from_its_json_line(self, p, g, flag):
        sink = io.StringIO()
        emit_report(run_suite("FLAG-audit", p, [g]), sink)
        record = json.loads(sink.getvalue())
        assert record["status"] == "fail"
        for violation in record["violations"]:
            replay(p, violation["detail"])
        assert [v["flag"] for v in record["violations"]] == [flag]

    @pytest.mark.parametrize("overclaimed_first", [True, False])
    def test_memo_serves_the_real_and_the_overclaimed_descriptor(
            self, cold_failure_memos, overclaimed_first):
        # both share memo entries: the claimed flags filter only afterwards
        p, g, flag = OVERCLAIMED[0]
        order = [p, CLIQUE_COMPONENTS][::1 if overclaimed_first else -1]
        got = {q.name: claim_violations(q, audit_flags(q, [g])) for q in order}
        assert list(got[p.name]) == [flag]
        assert got[CLIQUE_COMPONENTS.name] == {}

    @pytest.mark.parametrize(
        "p", list(CATALOG) + [max_degree(2)] + [p for p, _, _ in OVERCLAIMED]
        + [OVERCLAIMED_CONNECTED],
        ids=[p.key for p in CATALOG] + ["D:2", "UK-K3", "C-C5", "C-all"])
    def test_asked_flags_equal_the_full_result_filtered(self, cold_failure_memos, p, n6):
        # each graph's subsets run before its full call, singletons first,
        # so hereditary alone enters each class the corpus reaches first
        # before the induced walk has memoised it
        subsets = [flags for r in range(len(FLAGS) + 1)
                   for flags in itertools.combinations(FLAGS, r)]
        for g in n6:
            got = {flags: flag_violations(p, g, flags) for flags in subsets}
            full = flag_violations(p, g)
            assert got[FLAGS] == full
            for flags, hits in got.items():
                assert hits == [(f, d) for f, d in full if f in flags], (to_graph6(g), flags)

    def test_vertex_deletions_two_deep(self):
        p, g, _ = OVERCLAIMED[1]
        (_, detail), = audit_flags(p, [g])["induced_hereditary"]
        parent, child = replay(p, detail)
        # the parent is a P4 (it is connected), the child K2 + K1
        assert (parent.n, parent.edge_count(), child.edge_count()) == (4, 3, 1)

    def test_every_witness_replays_and_is_a_subgraph(self, n6):
        for p in CATALOG:
            for flag in ("hereditary", "induced_hereditary"):
                for g6, detail in audit_flags(p, n6)[flag]:
                    parent, _ = replay(p, detail)
                    matcher = isomorphism.GraphMatcher(_nx(parse_graph6(g6)), _nx(parent))
                    if flag == "hereditary":
                        assert matcher.subgraph_is_monomorphic(), (p.key, g6, detail)
                    else:
                        assert matcher.subgraph_is_isomorphic(), (p.key, g6, detail)


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
