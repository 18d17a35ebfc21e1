"""Suite machinery: scoping, reports, determinism, scans, ingestion."""

import io
import json
import sys

import pytest

from domlab import (
    ANY_GRAPH,
    ASSERTIONS,
    CATALOG,
    CLIQUE_COMPONENTS,
    CONNECTED,
    EDGELESS,
    NO_ISOLATED,
    CorpusError,
    Graph,
    MsdMarker,
    PropertyDescriptor,
    STATEMENT_COVERAGE,
    SUITES,
    VerifyOptions,
    all_reports_pass,
    classify_edge,
    complete,
    complete_multipartite,
    components,
    cycle,
    delete_edge,
    delete_vertex,
    emit_report,
    gamma_value,
    load_corpus,
    msd_graph,
    parse_property,
    path,
    resolve_corpus,
    run_suite,
    run_suites,
    scan_counterexamples,
    star,
    to_graph6,
)

from orbit_reference import ordered_edge_orbit_representatives
from test_properties import OVERCLAIMED_CONNECTED

SMALL = [path(2), path(3), cycle(3), cycle(4), star(3)]


class TestRegistry:
    def test_every_statement_has_suites_and_vice_versa(self):
        covered = [s for suites in STATEMENT_COVERAGE.values() for s in suites]
        assert covered == list(SUITES)
        assert list(STATEMENT_COVERAGE.items()) == [
            ("single-subdivision-bound", ("T1-bound", "T1-necessity")),
            ("s-plus-iff-ordinary-domination", ("COR2-iff",)),
            ("s-minus-iff-er-minus", ("T3-equiv",)),
            ("criticality-classes-coincide", ("COR4-classes",)),
            ("triple-subdivision-sandwich", ("T5-sandwich", "T5-A1A2", "T5-A1A3")),
            ("multisubdivision-master", ("T6-iff", "T6-chain", "T6-msd3")),
            ("vertex-removal-lemma", ("TA-vertex",)),
            ("edge-addition-lemma", ("TB-edgeadd",)),
            ("plus-one-edge-lemma", ("TC-plus1-lemma",)),
            ("property-flag-audit", ("FLAG-audit",)),
            ("solver-oracle-equivalence", ("ORACLE-equiv",)),
        ]

    def test_expected_suite_ids(self):
        assert set(SUITES) == {
            "T1-bound", "T1-necessity", "COR2-iff", "T3-equiv", "COR4-classes",
            "T5-sandwich", "T5-A1A2", "T5-A1A3", "T6-iff", "T6-chain",
            "T6-msd3", "TA-vertex", "TB-edgeadd", "TC-plus1-lemma",
            "FLAG-audit", "ORACLE-equiv",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("T9-imaginary", ANY_GRAPH, SMALL)


class TestScoping:
    def test_connected_is_skipped_not_passed(self):
        r = run_suite("T1-bound", CONNECTED, SMALL)
        assert r.status == "skip"
        assert "closed under union with K1" in r.reason
        assert r.graphs_checked == 0

    def test_cor2_only_for_unrestricted(self):
        assert run_suite("COR2-iff", EDGELESS, SMALL).status == "skip"
        assert run_suite("COR2-iff", ANY_GRAPH, SMALL).status == "pass"

    def test_uk_gets_induced_suites_but_not_hereditary_ones(self):
        assert run_suite("T3-equiv", CLIQUE_COMPONENTS, SMALL).status == "pass"
        assert run_suite("T5-A1A3", CLIQUE_COMPONENTS, SMALL).status == "skip"


class TestReports:
    def test_pass_report_shape(self):
        r = run_suite("T3-equiv", ANY_GRAPH, SMALL)
        assert r.status == "pass"
        assert r.graphs_checked == len(SMALL)
        assert r.violations == []

    def test_emit_json_line(self):
        r = run_suite("T5-sandwich", EDGELESS, SMALL)
        sink = io.StringIO()
        emit_report(r, sink)
        record = json.loads(sink.getvalue())
        assert record["suite"] == "T5-sandwich"
        assert record["property"] == "O"
        assert record["status"] == "pass"
        assert record["violations"] == []

    def test_flag_audit_fail_path(self):
        # a descriptor whose claims are wrong must produce a failing report
        broken = PropertyDescriptor(
            "UK", "disjoint union of cliques (overclaimed)",
            hereditary=True, induced_hereditary=True,
            closed_union_K1=True, nondegenerate=True,
        )
        r = run_suite("FLAG-audit", broken, [complete(3)])
        assert r.status == "fail"
        assert r.violations[0]["flag"] == "hereditary"
        assert r.violations[0]["graph6"] == "Bw"
        assert not all_reports_pass([r])

    def test_fail_fast_stops_early(self, monkeypatch):
        from domlab import verifier

        def always(g, p, opt, e):
            yield {"detail": "always"}

        probe = verifier._Suite("test-statement", lambda p: None, always)
        monkeypatch.setitem(SUITES, "TEST-fail", probe)
        r = run_suite("TEST-fail", ANY_GRAPH, SMALL, VerifyOptions(fail_fast=True))
        assert r.status == "fail"
        assert r.graphs_checked == 1
        assert len(r.violations) == 1

    def test_determinism_excluding_elapsed(self):
        corpus = load_corpus("n5all")[:30]
        suites = ["T3-equiv", "ORACLE-equiv", "T6-msd3"]
        props = [ANY_GRAPH, CLIQUE_COMPONENTS]

        def normalize(reports):
            out = []
            for r in reports:
                d = r.to_json_dict()
                d.pop("elapsed")
                out.append(json.dumps(d))
            return out

        first = normalize(run_suites(suites, props, corpus))
        second = normalize(run_suites(suites, props, corpus))
        assert first == second

    def test_literal_iii_reports_conditions_i_and_ii_alone(self):
        # literal (iii) never holds, so the literal COR2-iff run compares S+
        # criticality with "every minimum set meets (i) or (ii)"
        corpus = load_corpus("n6all")
        expected = []
        for g in corpus:
            for e in g.edges():
                c = classify_edge(g, e, ANY_GRAPH)
                rhs = all(cond.i or cond.ii for _, cond in c.condition_report)
                if c.s_plus != rhs:
                    expected.append((to_graph6(g), list(e), c.s_plus, rhs))
        r = run_suite("COR2-iff", ANY_GRAPH, corpus, VerifyOptions(literal_iii=True))
        got = [(v["graph6"], v["edge"], v["s_plus"], v["conditions_all"])
               for v in r.violations]
        assert got == expected
        assert len(got) == 372

    def test_parallel_matches_serial(self):
        corpus = load_corpus("n5all")[:20]
        serial = run_suites(["T1-bound"], [ANY_GRAPH], corpus)
        parallel = run_suites(["T1-bound"], [ANY_GRAPH], corpus,
                              VerifyOptions(jobs=2))
        for a, b in zip(serial, parallel):
            da, db = a.to_json_dict(), b.to_json_dict()
            da.pop("elapsed"), db.pop("elapsed")
            assert da == db


def _without_elapsed(reports):
    out = []
    for r in reports:
        d = r.to_json_dict()
        d.pop("elapsed")
        out.append(d)
    return out


# every suite but FLAG-audit, which the tests below check apart: its walk
# over deletion closures would swamp the edit and build counts
PER_GRAPH_SUITES = [s for s in SUITES if s != "FLAG-audit"]


def _cold_memos():
    """Empty the memos of the graph edits and the per-edge checks."""
    from domlab import graph, multisubdivision

    for memo in (graph.delete_edge, graph.delete_vertex, graph.subdivide_edge,
                 multisubdivision.check_multi1, multisubdivision.check_multi4):
        memo.cache_clear()


def test_gamma_memo_holds_one_graph_task():
    # Flknw has the largest set of distinct gamma queries of any n7c graph
    # under these pairs; the memo must hold all of them, or the task would
    # silently compute some twice
    from domlab import parse_graph6, solver
    from domlab.verifier import _check_graph

    _cold_memos()
    solver._gamma_value.cache_clear()
    solver.all_minimum_sets.cache_clear()
    props = [parse_property(k) for k in "I,O,F,UK,D:1".split(",")]
    pairs = [(s, p) for s in PER_GRAPH_SUITES for p in props if SUITES[s].scope(p) is None]
    _check_graph(pairs, VerifyOptions(), parse_graph6("Flknw"))
    info = solver._gamma_value.cache_info()
    assert info.hits > 0 and info.misses == info.currsize


def test_a_graph_task_leaves_no_search_alive():
    # every query builds its own search and drops it: once Flknw's task is
    # done, no search is left, not even as garbage for the cyclic collector
    import gc

    from domlab import parse_graph6, solver
    from domlab.verifier import _check_graph
    from test_solver import clear_solver_memos

    _cold_memos()
    clear_solver_memos()
    props = [parse_property(k) for k in "I,O,F,UK,D:1".split(",")]
    pairs = [(s, p) for s in PER_GRAPH_SUITES for p in props if SUITES[s].scope(p) is None]
    gc.collect()
    gc.disable()
    try:
        _check_graph(pairs, VerifyOptions(), parse_graph6("Flknw"))
        assert solver._gamma_value.cache_info().misses > 0
        assert [o for o in gc.get_objects() if isinstance(o, solver._Search)] == []
    finally:
        gc.enable()


def test_ta_vertex_asks_membership_only_where_gamma_changes(monkeypatch):
    # a vertex in no minimum set is a violation only if deleting it changes
    # gamma, so the membership search runs only for those vertices
    from domlab import verifier

    corpus, props = load_corpus("n6all"), [ANY_GRAPH, EDGELESS]
    plain = _without_elapsed(run_suites(["TA-vertex"], props, corpus))
    asked, real = [], verifier.in_some_minimum_set

    def counting(g, p, v):
        asked.append((g, p, v))
        return real(g, p, v)

    monkeypatch.setattr(verifier, "in_some_minimum_set", counting)
    assert _without_elapsed(run_suites(["TA-vertex"], props, corpus)) == plain
    assert asked == [(g, p, v) for g in corpus for p in props for v in range(g.n)
                     if gamma_value(delete_vertex(g, v)[0], p) != gamma_value(g, p)]
    assert asked


class TestPerGraphLoop:
    def test_jobs_and_per_pair_runs_agree(self):
        corpus = load_corpus("n5all")
        props = [parse_property(k) for k in "I,O,C,T,F,UK,D:1,D:2".split(",")]
        serial = _without_elapsed(run_suites(PER_GRAPH_SUITES, props, corpus))
        assert len(PER_GRAPH_SUITES) == 15 and len(serial) == 120
        assert serial == _without_elapsed(
            run_suites(PER_GRAPH_SUITES, props, corpus, VerifyOptions(jobs=2)))
        assert serial == _without_elapsed(
            [run_suite(s, p, corpus) for s in PER_GRAPH_SUITES for p in props])

    def test_per_edge_check_runs_once_per_orbit_and_property(self, monkeypatch):
        # computations, not calls: a call the memo answers is not counted
        from domlab import criticality, multisubdivision, verifier

        corpus = load_corpus("n5all")[:20]
        props = [ANY_GRAPH, EDGELESS]
        expected = {(to_graph6(g), e, p.key) for g in corpus for p in props
                    for e in ordered_edge_orbit_representatives(g)}
        assert len(expected) < sum(2 * g.edge_count() for g in corpus)
        for name, suites in (("check_multi4", ["T6-iff", "T6-chain", "T6-msd3"]),
                             ("check_multi1", ["T5-sandwich", "T5-A1A2", "TB-edgeadd"])):
            asked = set()
            memo = getattr(multisubdivision, name)

            def asking(g, e, p, _memo=memo):
                asked.add((to_graph6(g), e, p.key))
                return _memo(g, e, p)

            monkeypatch.setattr(verifier, name, asking)
            _cold_memos()
            run_suites(suites, props, corpus)
            info = memo.cache_info()
            # no suite has a hit, so each of the three asks for every (graph,
            # property, orbit representative) once, and only the first ask
            # computes
            assert asked == expected
            assert (info.misses, info.hits) == (len(expected), 2 * len(expected))

        # an edited graph is built once per corpus graph, whichever suites,
        # per-edge checks and properties ask for it: the graphs built equal
        # the distinct edits asked for
        # K_{3,3,3} has edges whose deletion lowers the edgeless-property
        # gamma, so TC goes on to delete their endpoints; criticality binds no
        # delete_vertex
        corpus = load_corpus("n5all") + [complete_multipartite([3, 3, 3])]
        edits, built = set(), []
        for module in (verifier, multisubdivision, criticality):
            for name in ("subdivide_edge", "delete_edge", "delete_vertex"):
                if not hasattr(module, name):
                    continue

                def asking_edit(g, x, *args, _name=name, _real=getattr(module, name)):
                    key = x if _name == "delete_vertex" else tuple(sorted(x))
                    edits.add((to_graph6(g), _name, key, *args))
                    return _real(g, x, *args)

                monkeypatch.setattr(module, name, asking_edit)
        real_init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        _cold_memos()
        run_suites(PER_GRAPH_SUITES, props, corpus)
        assert len(built) == len(edits)
        assert {x[1] for x in edits} == {"subdivide_edge", "delete_edge", "delete_vertex"}
        assert {x[3] for x in edits if x[1] == "subdivide_edge"} == {1, 2, 3, 4, 5, 6}

    @pytest.mark.parametrize("literal", [False, True], ids=["symmetric", "literal"])
    def test_orbit_run_equals_run_on_every_edge(self, literal):
        # every per-edge check called on every edge of every graph, and every
        # graph-level check on every graph, each finding written into a
        # record as the per-graph task writes it, is the reference
        corpus = load_corpus("n6all")
        props = [parse_property(k) for k in "I,O,C,T,F,UK,D:1,D:2".split(",")]
        opt = VerifyOptions(literal_iii=literal)
        expected = [(suite_id, p.key, []) for suite_id in PER_GRAPH_SUITES for p in props]
        keys = set()
        for g in corpus:  # graph by graph, as the memos are sized for
            for suite_id, key, found in expected:
                suite, p = SUITES[suite_id], parse_property(key)
                if suite.scope(p) is not None:
                    continue
                if suite.per_edge:
                    at = [({"edge": list(e)}, finding)
                          for e in g.edges() for finding in suite.check(g, p, opt, e)]
                else:
                    at = [({}, finding) for finding in suite.check(g, p, opt)]
                keys.update(k for _, finding in at for k in finding)
                found += [{"graph6": to_graph6(g), **edge, **finding} for edge, finding in at]
        assert not keys & {"graph6", "edge"}
        got = [(r.suite, r.property_key, r.violations)
               for r in run_suites(PER_GRAPH_SUITES, props, corpus, opt)]
        assert got == expected
        # the literal run has violations whose edges the reduction must keep
        assert any(found for _, _, found in expected) == literal

    def test_hits_on_a_whole_orbit_are_reported_on_every_edge(self, monkeypatch):
        from domlab import verifier

        # C4 0-1-2-3 with the chord 0-2: swapping 1 and 3 or 0 and 2 gives
        # the ordered orbits {(0, 1), (0, 3)}, {(0, 2)} and {(1, 2), (2, 3)}
        diamond = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert ordered_edge_orbit_representatives(diamond) == [(0, 1), (0, 2), (1, 2)]
        orbit = {(1, 2), (2, 3)}
        asked = []

        def probe(g, p, options, e):
            asked.append(e)
            if g == diamond and e in orbit:
                yield {}

        monkeypatch.setitem(SUITES, "TEST-orbit",
                            verifier._Suite("test-statement", lambda p: None, probe))
        [report] = run_suites(["TEST-orbit"], [ANY_GRAPH], [cycle(3), diamond])
        g6 = to_graph6(diamond)
        assert report.violations == [{"graph6": g6, "edge": [1, 2]},
                                     {"graph6": g6, "edge": [2, 3]}]
        # K3 is one orbit and has no hit; the diamond's representatives have
        # one, so it runs again on every edge
        assert asked == [(0, 1), (0, 1), (0, 2), (1, 2), *diamond.edges()]

    def test_per_edge_check_gets_one_edge_per_call(self, monkeypatch):
        from domlab import verifier

        diamond = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        asked = []

        def probe(g, p, options, e):  # hits at (0, 2), an orbit of its own
            asked.append(e)
            if e == (0, 2):
                yield {"detail": "probe"}

        monkeypatch.setitem(SUITES, "TEST-edge",
                            verifier._Suite("test-statement", lambda p: None, probe))
        [report] = run_suites(["TEST-edge"], [ANY_GRAPH], [diamond])
        assert report.violations == [
            {"graph6": to_graph6(diamond), "edge": [0, 2], "detail": "probe"}]
        # the representatives first, then, after their hit, every edge in order
        assert asked == [(0, 1), (0, 2), (1, 2),
                         (0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]

    def test_graph_level_check_runs_once_per_graph_and_property(self, monkeypatch):
        from domlab import verifier

        asked = []

        def probe(g, p, options):  # a hit on every graph: no rerun follows it
            asked.append((to_graph6(g), p.key))
            yield {}

        monkeypatch.setitem(SUITES, "TEST-graph", verifier._Suite(
            "test-statement", lambda p: None, probe, per_edge=False))
        corpus = load_corpus("n5all")[:10] + [complete(4)]
        props = [ANY_GRAPH, EDGELESS]
        reports = run_suites(["T3-equiv", "TEST-graph"], props, corpus)
        assert sorted(asked) == sorted((to_graph6(g), p.key) for g in corpus for p in props)
        assert [len(r.violations) for r in reports] == [0, 0, len(corpus), len(corpus)]

    def test_the_task_writes_every_record_around_the_finding(self, monkeypatch):
        from domlab import verifier

        diamond = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        # P3's ordered orbits are its two edges, so its representative run is
        # reported; the diamond's hit is reported from the rerun on every edge
        assert ordered_edge_orbit_representatives(path(3)) == path(3).edges()
        hitting = [path(3), diamond]

        def per_edge(g, p, options, e):
            if g in hitting:
                yield {}

        def per_graph(g, p, options):
            if g in hitting:
                yield {}

        monkeypatch.setitem(SUITES, "TEST-edge",
                            verifier._Suite("test-statement", lambda p: None, per_edge))
        monkeypatch.setitem(SUITES, "TEST-graph", verifier._Suite(
            "test-statement", lambda p: None, per_graph, per_edge=False))
        written = []
        monkeypatch.setattr(verifier, "to_graph6", lambda g: written.append(g) or to_graph6(g))
        edge_report, graph_report = run_suites(["TEST-edge", "TEST-graph"], [ANY_GRAPH],
                                               [cycle(3), *hitting])
        assert edge_report.violations == [
            {"graph6": to_graph6(g), "edge": list(e)} for g in hitting for e in g.edges()]
        assert {tuple(v) for v in edge_report.violations} == {("graph6", "edge")}
        assert graph_report.violations == [{"graph6": to_graph6(g)} for g in hitting]
        assert {tuple(v) for v in graph_report.violations} == {("graph6",)}
        # one graph6 string per graph with a hit, none for K3
        assert written == hitting

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_stops_only_the_failing_pair(self, monkeypatch, jobs):
        from domlab import verifier

        corpus = load_corpus("n5all")[:12]
        k = 7
        target = to_graph6(corpus[k])

        def hits_target(g, p, options):
            if to_graph6(g) == target:
                yield {"detail": "probe"}

        probe = verifier._Suite("test-statement", lambda p: None, hits_target,
                                per_edge=False)
        monkeypatch.setitem(SUITES, "TEST-probe", probe)
        opt = VerifyOptions(fail_fast=True, jobs=jobs)
        alone = run_suites(["T3-equiv"], [ANY_GRAPH], corpus, opt)
        failed, real = run_suites(["TEST-probe", "T3-equiv"], [ANY_GRAPH],
                                  corpus, opt)
        assert failed.status == "fail"
        assert failed.graphs_checked == k + 1
        assert failed.violations == [{"graph6": target, "detail": "probe"}]
        assert _without_elapsed([real]) == _without_elapsed(alone)
        assert real.graphs_checked == len(corpus)

    def test_pool_has_at_most_one_worker_per_graph(self, monkeypatch):
        import multiprocessing

        sizes = []

        class RecordingPool:  # records its size and starts no process
            def __init__(self, processes):
                sizes.append(processes)

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

            def terminate(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        corpus = load_corpus("n5all")
        serial = _without_elapsed(run_suites(["T3-equiv"], [ANY_GRAPH], corpus[:2]))
        pooled = run_suites(["T3-equiv"], [ANY_GRAPH], corpus[:2], VerifyOptions(jobs=3))
        assert sizes == [2]
        assert _without_elapsed(pooled) == serial
        run_suites(["T3-equiv"], [ANY_GRAPH], corpus[:1], VerifyOptions(jobs=3))
        run_suites(["T3-equiv"], [ANY_GRAPH], corpus[:5], VerifyOptions(jobs=2))
        assert sizes == [2, 2]


def _has_cut_vertex(g):
    base = len(components(g))
    return g.n > 1 and any(len(components(delete_vertex(g, v)[0])) > base
                           for v in range(g.n))


def _first_er_minus_edge(g, p):
    base = gamma_value(g, p)
    if base is None:
        return None
    for e in g.edges():
        deleted = gamma_value(delete_edge(g, e), p)
        if deleted is not None and deleted < base:
            return {"deleted_edge": list(e), "gamma": base, "gamma_deleted": deleted}
    return None


def _scan_reference(g, p):
    """Each assertion's hit details on g, read off its definition; None: no hit."""
    m = msd_graph(g, p, cap=3).msd if g.edges() else None
    return {
        "in-S1": {"msd": 1} if m == 1 else None,
        "in-S2": {"msd": 2} if m == 2 else None,
        "in-S3": {"msd": 3} if m == 3 else None,
        "msd-above-3": {"msd": str(m)} if isinstance(m, MsdMarker) else None,
        "er-minus-exists": _first_er_minus_edge(g, p),
        "s2-with-cut-vertex": {"msd": 2} if m == 2 and _has_cut_vertex(g) else None,
    }


class TestFlagAuditInTheWalk:
    def test_jobs_agree(self):
        from domlab import properties

        corpus = load_corpus("n6all")
        props = list(CATALOG) + [parse_property("D:2")]
        serial = _without_elapsed(run_suites(["FLAG-audit"], props, corpus))
        for memo in (properties._induced_failure, properties._spanning_failure):
            memo.cache_clear()  # so each worker fills its own
        assert serial == _without_elapsed(
            run_suites(["FLAG-audit"], props, corpus, VerifyOptions(jobs=2)))
        assert [(r["status"], r["graphs_checked"]) for r in serial] == [
            ("pass", len(corpus))] * len(props)

    def test_violations_are_graph_major_then_by_flag(self):
        [report] = run_suites(["FLAG-audit"], [OVERCLAIMED_CONNECTED],
                              [cycle(5), path(3)])
        flags = ["closed_union_K1", "hereditary", "induced_hereditary"]
        assert [(v["graph6"], v["flag"]) for v in report.violations] == [
            (to_graph6(g), flag) for g in (cycle(5), path(3)) for flag in flags]

    @pytest.mark.parametrize("props, walked", [
        ([CONNECTED, NO_ISOLATED], set()),  # they claim no flag
        ([CLIQUE_COMPONENTS], {"_induced_failure"}),  # not hereditary
    ], ids=["C,T", "UK"])
    def test_walks_only_the_closures_of_claimed_flags(self, props, walked):
        from domlab import properties

        memos = {"_induced_failure", "_spanning_failure"}
        for name in memos:
            getattr(properties, name).cache_clear()
        run_suites(["FLAG-audit"], props, load_corpus("n6all"))
        assert {name for name in memos
                if getattr(properties, name).cache_info().misses} == walked

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_stops_after_the_first_violating_graph(self, jobs):
        [report] = run_suites(["FLAG-audit"], [OVERCLAIMED_CONNECTED],
                              [cycle(5), path(3)],
                              VerifyOptions(fail_fast=True, jobs=jobs))
        assert report.status == "fail" and report.graphs_checked == 1
        assert {v["graph6"] for v in report.violations} == {to_graph6(cycle(5))}


class TestScans:
    def test_no_finding_holds_a_record_key(self):
        # only the per-graph task writes "graph6" and "edge": no suite check,
        # each per-edge one run on every edge, and no scan may yield them.
        # FLAG-audit skips K_{3,3,3}, whose deletion closure under I alone
        # takes over a minute on a 2-vCPU machine; the catalog's flags hold,
        # so it finds nothing there.
        props = [parse_property(k) for k in "I,O,C,T,F,UK,D:1".split(",")]
        opt, keys = VerifyOptions(), set()
        k333 = complete_multipartite([3, 3, 3])
        for g in [*load_corpus("n5all"), k333]:
            for p in props:
                findings = [f for scan in ASSERTIONS.values() for f in scan(g, p, opt)]
                for suite_id, suite in SUITES.items():
                    if suite.scope(p) is not None or (g is k333 and suite_id == "FLAG-audit"):
                        continue
                    if suite.per_edge:
                        findings += [f for e in g.edges() for f in suite.check(g, p, opt, e)]
                    else:
                        findings += suite.check(g, p, opt)
                keys.update(k for f in findings for k in f)
        assert "deleted_edge" in keys and not keys & {"graph6", "edge"}

    @pytest.mark.parametrize("key", ["I", "O", "C", "T", "F", "UK", "D:1", "D:2"])
    def test_scans_match_their_definitions(self, key):
        p = parse_property(key)
        corpus = load_corpus("n6all")
        expected = {a: [] for a in ASSERTIONS}
        for g in corpus:
            for a, found in _scan_reference(g, p).items():
                if found is not None:
                    expected[a].append({"graph6": to_graph6(g), "label": g.label, **found})
        assert expected["in-S1"]  # the reference is not vacuous
        for a in ASSERTIONS:
            assert scan_counterexamples(a, p, corpus) == expected[a], a

    def test_paths_in_s2(self):
        paths = [path(n) for n in range(2, 15)]
        hits = scan_counterexamples("in-S2", ANY_GRAPH, paths)
        # the residue-2 paths; P2 qualifies as well since two subdivisions
        # of its edge are the first to change gamma
        assert [h["label"] for h in hits] == ["P2", "P5", "P8", "P11", "P14"]

    def test_cycles_in_s1(self):
        cycles = [cycle(n) for n in range(3, 13)]
        hits = scan_counterexamples("in-S1", EDGELESS, cycles)
        assert [h["label"] for h in hits] == ["C3", "C6", "C9", "C12"]

    def test_k2_not_in_s3(self):
        assert scan_counterexamples("in-S3", ANY_GRAPH, [complete(2)]) == []

    def test_no_msd_above_3_on_small_corpus(self):
        assert scan_counterexamples("msd-above-3", ANY_GRAPH, SMALL) == []

    @pytest.mark.parametrize("p", [CONNECTED, NO_ISOLATED], ids=["C", "T"])
    def test_msd_above_3_skips_undefined_msd(self, p):
        # graphs where some edge profile has an undefined gamma have no msd
        assert scan_counterexamples("msd-above-3", p, load_corpus("n6all")) == []

    def test_er_minus_exists_finds_k333(self):
        from domlab import complete_multipartite

        hits = scan_counterexamples("er-minus-exists", EDGELESS,
                                    [path(4), complete_multipartite([3, 3, 3])])
        assert len(hits) == 1 and hits[0]["gamma"] == 3

    def test_unknown_assertion(self):
        with pytest.raises(ValueError):
            scan_counterexamples("in-S9", ANY_GRAPH, SMALL)


class TestIngest:
    def test_three_lines(self, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("A_\nBw\nCh\n")
        got = resolve_corpus(f"g6:{f}")
        assert [g.n for g in got] == [2, 3, 4]
        assert got[1].label.endswith(":2 Bw")

    def test_bad_line_skipped_with_warning(self, tmp_path, capsys):
        f = tmp_path / "c.g6"
        f.write_text("A_\n~broken\nBw\n")
        got = resolve_corpus(f"g6:{f}", skip_bad=True)
        warnings = capsys.readouterr().err.splitlines()
        assert len(got) == 2 and len(warnings) == 1 and f"{f}:2:" in warnings[0]

    def test_bad_line_raises_with_line_number(self, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("A_\n~broken\n")
        with pytest.raises(CorpusError, match=":2:"):
            resolve_corpus(f"g6:{f}")

    def test_empty_file_gives_empty_suite(self, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("")
        graphs = resolve_corpus(f"g6:{f}")
        assert graphs == []
        r = run_suite("T1-bound", ANY_GRAPH, graphs)
        assert r.status == "pass" and r.graphs_checked == 0

    def test_stream_sources(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nBw\n"))
        got = resolve_corpus("g6:-")
        assert len(got) == 2
        monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 2\n"))
        one = resolve_corpus("edges:-")
        assert len(one) == 1 and one[0].n == 3

    def test_unknown_format(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        with pytest.raises(CorpusError):
            resolve_corpus("dot:-")
