"""Corpus-driven verification suites and counterexample scans.

Each suite evaluates one universally quantified statement instance by
instance over a graph stream and collects violations; an empty violation
list means the statement held on the whole corpus. Suites are gated by the
property flags their statement assumes: running a suite outside its scope
yields a "skip" status (never a silent pass), because a violation outside
the hypotheses would be meaningless. Each suite names the statement it
checks, and STATEMENT_COVERAGE, statement -> suites, is read off SUITES.

Every suite check and scan assertion is a generator of findings, each a
dict of one hit's details: a per-edge check (g, p, options, e) yields those
at edge e of g, a graph-level check or a scan (g, p, options) those of g.
The per-graph task writes every record, {"graph6": ..., "edge": [u, v],
**finding}, with "edge" only for a per-edge check, so no finding holds
"graph6" or "edge". A check restates no statement another module codes:
COR2-iff, T3-equiv and COR4-classes call the criticality helpers,
T1-necessity reads condition_report, and T5, T6 and TB read check_multi1 or
check_multi4. The memos live with what checks call (the edits in graph.py,
those two in multisubdivision.py, gamma's value and the minimum sets in
solver.py, one memo each, the flag verdicts per isomorphism class in
properties.py), so a graph or value computed for one check or property
serves every other.

One walk serves suites and scans: each graph is one task (_check_graph)
that runs every selected (check, property) pair on it, and that task is the
only place that picks the edges a per-edge check visits. Every per-edge
value a suite compares is invariant under automorphisms of g, so a check
has a hit at an edge exactly when it has one at the edge's image. A check
therefore runs on the least edge of each ordered edge orbit
(canon.edge_orbit_representatives): no hit there means no hit on any edge.
When that run has a hit the check runs again on every edge and that run is
reported, so violation records name the same labelled edges and minimum
sets, in the same order, as a run on every edge. The orbits are ordered
(an automorphism maps u to x and v to y, for edges (u, v) and (x, y) with
u < v and x < y) because condition (ii) of Theorem 1 reads the endpoint
with the smaller label first: an automorphism that maps u to y and v to x
need not keep it, and with unordered orbits the literal-(iii) COR2-iff run
misses violations. Graph-level checks and scans run once per graph; a scan
visits every edge it needs itself, since scans hit often and a rerun would
double their cost.

With jobs > 1 the tasks run on a process pool of at most one worker per
graph and are merged back in corpus order.

Reports are deterministic: two runs over the same corpus and options produce
identical output except for the elapsed field, the summed time of the
suite's per-graph checks. With jobs > 1 it can exceed the wall time, and a
check shared by several suites is charged to the first that computes it.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .bitset import members
from .canon import edge_orbit_representatives
from .criticality import (
    class_membership,
    condition_report,
    is_s_plus_critical_iff_conditions,
    s_minus_equiv_er_minus,
)
from .formats import to_graph6
from .graph import (
    Edge,
    Graph,
    components,
    delete_edge,
    delete_vertex,
    private_neighbors,
    subdivide_edge,
    translate_set,
)
from .multisubdivision import MsdMarker, check_multi1, check_multi4, msd_graph
from .properties import (
    ANY_GRAPH,
    FLAGS,
    PropertyDescriptor,
    flag_violations,
    holds_induced,
    out_of_scope,
)
from .solver import (
    all_minimum_sets,
    gamma,
    gamma_oracle,
    gamma_value,
    in_some_minimum_set,
    is_dominating,
)


@dataclass(frozen=True)
class VerifyOptions:
    fail_fast: bool = False
    literal_iii: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


@dataclass
class SuiteReport:
    suite: str
    property_key: str
    status: str  # "pass" | "fail" | "skip"
    reason: str = ""
    graphs_checked: int = 0
    violations: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "property": self.property_key,
            "status": self.status,
            "reason": self.reason,
            "graphs_checked": self.graphs_checked,
            "violations": self.violations,
            "elapsed": round(self.elapsed, 6),
        }


_hereditary_k1 = functools.partial(out_of_scope, flag="hereditary")
_induced_k1 = functools.partial(out_of_scope, flag="induced_hereditary")
_nondegenerate_k1 = functools.partial(out_of_scope, flag="nondegenerate")


def _scope_unrestricted_only(p: PropertyDescriptor) -> str | None:
    if p != ANY_GRAPH:
        return f"the iff characterization is only claimed for property I, not {p.key}"
    return None


def _scope_any(p: PropertyDescriptor) -> str | None:
    return None


# ---------------------------------------------------------------- suites --


def _check_t1_bound(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    base = gamma_value(g, p)
    sub = gamma_value(subdivide_edge(g, e, 1), p)
    if sub > base + 1:
        yield dict(gamma=base, gamma_subdivided=sub,
                   detail="single subdivision raised gamma by more than one")


def _check_t1_necessity(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    base = gamma_value(g, p)
    sub = gamma_value(subdivide_edge(g, e, 1), p)
    if sub <= base:
        return
    if sub != base + 1:
        yield dict(gamma=base, gamma_subdivided=sub,
                   detail="critical edge without the forced +1 value")
    for M, conditions in condition_report(g, e, p, options.literal_iii):
        if not conditions.any:
            yield dict(minimum_set=members(M),
                       detail="critical edge with a minimum set satisfying no condition")


def _check_cor2_iff(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    c = is_s_plus_critical_iff_conditions(g, e, p, options.literal_iii)
    if c.lhs != c.rhs:
        yield dict(s_plus=c.lhs, conditions_all=c.rhs, detail="iff characterization mismatch")


def _check_t3_equiv(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    c = s_minus_equiv_er_minus(g, e, p)
    if c.s_minus != c.er_minus:
        yield dict(s_minus=c.s_minus, er_minus=c.er_minus,
                   detail="subdivision and deletion criticality differ")


def _check_cor4_classes(g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    c = class_membership(g, p) if g.edges() else None  # both hold vacuously
    if c and c.cs_minus != c.cer_minus:
        yield dict(cs_minus=c.cs_minus, cer_minus=c.cer_minus,
                   detail="all-edges criticality classes differ")


def _check_t5_sandwich(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    m = check_multi1(g, e, p)
    if not m.sandwich:
        yield dict(gamma_deleted=m.gamma_deleted, gamma_sub3=m.gamma_sub3,
                   detail="sandwich bound failed")


def _check_t5_a1a2(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    m = check_multi1(g, e, p)
    if m.a1 != m.a2:
        yield dict(a1=m.a1, a2=m.a2, detail="a1 and a2 differ")


def _check_t5_a1a3(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    m = check_multi1(g, e, p)
    if m.a1 != m.a3:
        yield dict(a1=m.a1, a3=m.a3, detail="a1 and a3 differ")


def _check_t6_iff(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    m = check_multi4(g, e, p)
    if not m.iff_holds:
        yield dict(values=list(m.profile.values), detail="triple-subdivision iff failed")


def _check_t6_chain(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    m = check_multi4(g, e, p)
    if m.chain is False:
        yield dict(values=list(m.profile.values), detail="seven-term profile chain failed")


def _check_t6_msd3(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    m = check_multi4(g, e, p)
    if not m.msd_le_3:
        yield dict(msd=str(m.profile.msd), values=list(m.profile.values),
                   detail="multisubdivision number above 3")


def _check_ta_vertex(g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    base = gamma_value(g, p)
    for v in range(g.n):
        smaller, kept = delete_vertex(g, v)
        reduced = gamma_value(smaller, p)
        if reduced is None:
            yield dict(vertex=v, detail="gamma undefined after vertex deletion")
            continue
        if reduced != base and not in_some_minimum_set(g, p, v):
            yield dict(vertex=v, gamma=base, gamma_deleted=reduced,
                       detail="vertex in no minimum set changed gamma")
        if reduced < base:
            if reduced != base - 1:
                yield dict(vertex=v, gamma=base, gamma_deleted=reduced,
                           detail="deletion lowered gamma by more than one")
            for M in all_minimum_sets(smaller, p):
                lifted = translate_set(M, kept) | (1 << v)
                ok = (
                    lifted.bit_count() == base
                    and is_dominating(g, lifted)
                    and holds_induced(p, g, lifted)
                    and private_neighbors(g, v, lifted) == 1 << v
                )
                if not ok:
                    yield dict(vertex=v, minimum_set=members(lifted),
                               detail="lifted minimum set not minimum or private "
                                      "neighborhood not the vertex alone")


def _check_tb_edgeadd(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    m = check_multi1(g, e, p)
    if m.gamma < m.gamma_deleted and not m.a3:
        yield dict(gamma=m.gamma, gamma_deleted=m.gamma_deleted,
                   detail="edge addition gained more than one")
    if m.a3 != m.a2:
        yield dict(drop_by_one=m.a3, conditions=m.a2, detail="edge-addition iff failed")


def _check_tc_plus1(g: Graph, p: PropertyDescriptor, options: VerifyOptions, e: Edge):
    x, y = e
    reduced_graph = delete_edge(g, e)
    deleted = gamma_value(reduced_graph, p)
    if gamma_value(g, p) <= deleted:
        return  # out of this statement's scope
    pair = (1 << x) | (1 << y)
    for M in all_minimum_sets(reduced_graph, p):
        if holds_induced(p, g, M):
            yield dict(minimum_set=members(M),
                       detail="minimum set of the deleted graph keeps "
                              "the property with the edge restored")
        if M & pair != pair:
            yield dict(minimum_set=members(M), detail="minimum set missing an endpoint")
    for a, b in ((x, y), (y, x)):
        smaller, kept = delete_vertex(g, a)
        reduced = gamma_value(smaller, p)
        if reduced < deleted:
            yield dict(vertex=a, gamma_deleted=deleted, gamma_vertex_deleted=reduced,
                       detail="vertex deletion undercut edge deletion")
        elif reduced == deleted:
            if in_some_minimum_set(smaller, p, kept.index(b)):
                yield dict(vertex=a, other=b,
                           detail="other endpoint occurs in a minimum "
                                  "set despite equal gamma")


def _check_oracle_equiv(g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    fast = gamma(g, p)
    slow = gamma_oracle(g, p)
    if fast.value != slow.value or fast.witness != slow.witness:
        yield dict(
            solver=[fast.value, members(fast.witness) if fast.witness is not None else None],
            oracle=[slow.value, members(slow.witness) if slow.witness is not None else None],
            detail="solver and oracle disagree")
    elif fast.value is not None:
        if not (is_dominating(g, fast.witness) and holds_induced(p, g, fast.witness)):
            yield dict(witness=members(fast.witness), detail="witness not a dominating p-set")


def _check_flag_audit(g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    claimed = tuple(flag for flag in FLAGS if getattr(p, flag))
    for flag, detail in sorted(flag_violations(p, g, claimed)):
        yield dict(flag=flag, detail=detail)


@dataclass(frozen=True)
class _Suite:
    statement: str  # the verified statement this suite is a facet of
    scope: Callable[[PropertyDescriptor], str | None]
    # yields the findings of one edge, (g, p, options, e), or of one graph,
    # (g, p, options)
    check: Callable
    per_edge: bool = True


SUITES: dict[str, _Suite] = {
    "T1-bound": _Suite("single-subdivision-bound", _hereditary_k1, _check_t1_bound),
    "T1-necessity": _Suite("single-subdivision-bound", _hereditary_k1, _check_t1_necessity),
    "COR2-iff": _Suite("s-plus-iff-ordinary-domination", _scope_unrestricted_only,
                       _check_cor2_iff),
    "T3-equiv": _Suite("s-minus-iff-er-minus", _induced_k1, _check_t3_equiv),
    "COR4-classes": _Suite("criticality-classes-coincide", _induced_k1, _check_cor4_classes,
                           per_edge=False),
    "T5-sandwich": _Suite("triple-subdivision-sandwich", _induced_k1, _check_t5_sandwich),
    "T5-A1A2": _Suite("triple-subdivision-sandwich", _induced_k1, _check_t5_a1a2),
    "T5-A1A3": _Suite("triple-subdivision-sandwich", _hereditary_k1, _check_t5_a1a3),
    "T6-iff": _Suite("multisubdivision-master", _hereditary_k1, _check_t6_iff),
    "T6-chain": _Suite("multisubdivision-master", _hereditary_k1, _check_t6_chain),
    "T6-msd3": _Suite("multisubdivision-master", _hereditary_k1, _check_t6_msd3),
    "TA-vertex": _Suite("vertex-removal-lemma", _nondegenerate_k1, _check_ta_vertex,
                        per_edge=False),
    "TB-edgeadd": _Suite("edge-addition-lemma", _hereditary_k1, _check_tb_edgeadd),
    "TC-plus1-lemma": _Suite("plus-one-edge-lemma", _hereditary_k1, _check_tc_plus1),
    "FLAG-audit": _Suite("property-flag-audit", _scope_any, _check_flag_audit,
                         per_edge=False),
    "ORACLE-equiv": _Suite("solver-oracle-equivalence", _scope_any, _check_oracle_equiv,
                           per_edge=False),
}

# every verified statement -> its suite facets, in registry order
STATEMENT_COVERAGE: dict[str, tuple[str, ...]] = {
    statement: tuple(s for s, suite in SUITES.items() if suite.statement == statement)
    for statement in dict.fromkeys(suite.statement for suite in SUITES.values())
}


def run_suite(
    suite_id: str,
    p: PropertyDescriptor,
    corpus: Iterable[Graph],
    options: VerifyOptions | None = None,
) -> SuiteReport:
    """Evaluate one suite over a corpus; violations carry replay data."""
    return run_suites([suite_id], [p], corpus, options)[0]


def _check_graph(pairs, options: VerifyOptions, g: Graph):
    """One task: (hits, seconds) of each (check id, property) pair on g. A
    check id names a per-graph suite or a scan assertion. The task writes
    each finding into a hit record, with g's graph6 computed once if at all.
    The only loop over g's edges for a suite, orbit representatives first
    (see the module docstring)."""
    out, reps, g6 = [], None, None
    for check_id, p in pairs:
        started = time.perf_counter()
        suite = SUITES.get(check_id)
        check = suite.check if suite else ASSERTIONS[check_id]
        if suite is None or not suite.per_edge:  # a graph-level suite or a scan
            found = [({}, f) for f in check(g, p, options)]
        else:
            if reps is None:
                edges, reps = g.edges(), edge_orbit_representatives(g)
            found = [({"edge": list(e)}, f) for e in reps for f in check(g, p, options, e)]
            if found and reps != edges:
                found = [({"edge": list(e)}, f) for e in edges for f in check(g, p, options, e)]
        if found and g6 is None:
            g6 = to_graph6(g)
        hits = [{"graph6": g6, **at, **f} for at, f in found]
        out.append((hits, time.perf_counter() - started))
    return out


def _walk(pairs, options: VerifyOptions, graphs: list[Graph]):
    """Run each (check id, property) pair over the corpus: one _check_graph
    task per graph, on a pool of min(options.jobs, len(graphs)) processes
    when that is above 1, merged back in corpus order, so the result is
    identical to a serial run. Returns per pair its hits, the number of
    graphs it checked and its summed seconds. With fail_fast, a pair ignores
    the graphs after its first hit."""
    hits, checked, seconds = [[] for _ in pairs], [0] * len(pairs), [0.0] * len(pairs)
    check = functools.partial(_check_graph, tuple(pairs), options)
    workers = min(options.jobs, len(graphs)) if pairs else 1
    pool = None
    if workers > 1:
        import multiprocessing  # only a pool needs it; a serial run skips its import
        pool = multiprocessing.Pool(workers)
    try:
        outcomes = pool.imap(check, graphs, chunksize=4) if pool else map(check, graphs)
        open_pairs = range(len(pairs))
        for outcome in outcomes:
            for i in open_pairs:
                hits[i].extend(outcome[i][0])
                checked[i] += 1
                seconds[i] += outcome[i][1]
            if options.fail_fast:
                open_pairs = [i for i in open_pairs if not hits[i]]
                if not open_pairs:
                    break
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return list(zip(hits, checked, seconds))


def run_suites(
    suite_ids: list[str],
    properties: list[PropertyDescriptor],
    corpus: Iterable[Graph],
    options: VerifyOptions | None = None,
) -> list[SuiteReport]:
    """Run each suite for each property; reports in (suite, property) order.

    Every in-scope pair runs in one walk over the corpus, all of them in one
    task per graph (see _walk).
    """
    for suite_id in suite_ids:
        if suite_id not in SUITES:
            raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITES)}")
    reports, pairs = [], []
    for suite_id in suite_ids:
        for p in properties:
            reason = SUITES[suite_id].scope(p)
            status = "pass" if reason is None else "skip"
            reports.append(SuiteReport(suite_id, p.key, status, reason=reason or ""))
            if reason is None:
                pairs.append((suite_id, p))
    in_scope = [r for r in reports if r.status == "pass"]
    walked = _walk(pairs, options or VerifyOptions(), list(corpus))
    for report, (hits, checked, seconds) in zip(in_scope, walked):
        report.violations, report.graphs_checked, report.elapsed = hits, checked, seconds
        if hits:
            report.status = "fail"
    return reports


# -------------------------------------------------- counterexample scans --


def _has_cut_vertex(g: Graph) -> bool:
    base = len(components(g))
    return g.n > 1 and any(len(components(delete_vertex(g, v)[0])) > base
                           for v in range(g.n))


def _msd_cap3(g: Graph, p: PropertyDescriptor):
    """The multisubdivision number of g at cap 3; None without edges."""
    return msd_graph(g, p, 3).msd if g.edges() else None


def _scan_s_class(i: int, g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    m = _msd_cap3(g, p)
    if m == i:
        yield dict(label=g.label, msd=m)


def _scan_msd_above_3(g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    m = _msd_cap3(g, p)
    if isinstance(m, MsdMarker):
        yield dict(label=g.label, msd=str(m))


def _scan_er_minus_exists(g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    base = gamma_value(g, p)
    if base is None:
        return
    for e in g.edges():
        deleted = gamma_value(delete_edge(g, e), p)
        if deleted is not None and deleted < base:
            # the first such edge, a detail of this graph-level hit
            yield dict(label=g.label, deleted_edge=list(e), gamma=base, gamma_deleted=deleted)
            return


def _scan_s2_cut_vertex(g: Graph, p: PropertyDescriptor, options: VerifyOptions):
    if _has_cut_vertex(g):  # cheaper than the msd
        yield from _scan_s_class(2, g, p, options)


ASSERTIONS = {
    "in-S1": functools.partial(_scan_s_class, 1),
    "in-S2": functools.partial(_scan_s_class, 2),
    "in-S3": functools.partial(_scan_s_class, 3),
    "msd-above-3": _scan_msd_above_3,
    "er-minus-exists": _scan_er_minus_exists,
    "s2-with-cut-vertex": _scan_s2_cut_vertex,
}


def scan_counterexamples(
    assertion_id: str,
    p: PropertyDescriptor,
    corpus: Iterable[Graph],
    options: VerifyOptions | None = None,
) -> list[dict]:
    """Exploratory scan: the hit records of one assertion, in corpus order,
    from the walk run_suites uses (options.jobs processes; with fail_fast it
    stops at the first graph with a hit)."""
    if assertion_id not in ASSERTIONS:
        raise ValueError(
            f"unknown assertion {assertion_id!r}; known: {', '.join(sorted(ASSERTIONS))}"
        )
    [(hits, _, _)] = _walk([(assertion_id, p)], options or VerifyOptions(), list(corpus))
    return hits


# -------------------------------------------------------------------- io --


def emit_report(report: SuiteReport, sink) -> None:
    """Write one report as a JSON line."""
    sink.write(json.dumps(report.to_json_dict()) + "\n")


def all_reports_pass(reports: list[SuiteReport]) -> bool:
    return all(r.status in ("pass", "skip") for r in reports)
