"""Acceptance criteria for the whole package.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all);
every criterion is exact, no tolerances. The heavier criteria run over the
bundled corpora: all graphs on up to six vertices, and all connected graphs
on up to seven.
"""

import json

import pytest

from domlab import (
    ANY_GRAPH,
    CONNECTED,
    EDGELESS,
    FOREST,
    NO_ISOLATED,
    CLIQUE_COMPONENTS,
    VerifyOptions,
    complete_multipartite,
    cycle,
    delete_edge,
    gamma,
    gamma_oracle,
    gamma_value,
    load_corpus,
    max_degree,
    msd_graph,
    path,
    profile,
    run_suite,
    run_suites,
    s_class,
    star,
    subdivide_edge,
    three_stars_triangle,
)
from domlab.cli import main as cli_main

EIGHT_PROPS = [ANY_GRAPH, EDGELESS, CONNECTED, NO_ISOLATED, FOREST,
               CLIQUE_COMPONENTS, max_degree(1), max_degree(2)]
HEREDITARY_FOUR = [ANY_GRAPH, EDGELESS, FOREST, max_degree(1)]
INDUCED_FIVE = [ANY_GRAPH, EDGELESS, FOREST, CLIQUE_COMPONENTS, max_degree(1)]


@pytest.fixture(scope="module")
def n6all():
    return load_corpus("n6all")


@pytest.fixture(scope="module")
def n6c():
    return load_corpus("n6c")


@pytest.fixture(scope="module")
def n7c():
    return load_corpus("n7c")


def report(num, ok, text):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def run_all(suite, props, corpus, options=None):
    bad = []
    for p in props:
        r = run_suite(suite, p, corpus, options)
        if r.status != "pass":
            bad.append((p.key, r.status, r.violations[:3]))
    return bad


def test_criterion_01_oracle_equivalence(n6all):
    mismatches = []
    for g in n6all:
        for p in EIGHT_PROPS:
            fast, slow = gamma(g, p), gamma_oracle(g, p)
            if fast.value != slow.value or fast.witness != slow.witness:
                mismatches.append((g.label, p.key))
    report(1, not mismatches,
           f"solver equals brute-force oracle on {len(n6all)} graphs x "
           f"{len(EIGHT_PROPS)} properties, undefined cases included "
           f"({len(mismatches)} mismatches)")


def test_criterion_02_single_subdivision_bound(n7c):
    bad = run_all("T1-bound", HEREDITARY_FOUR, n7c)
    report(2, not bad,
           f"one subdivision never raises gamma by more than one on "
           f"{len(n7c)} connected graphs x 4 properties {bad or ''}")


def test_criterion_03_s_plus_iff_conditions(n7c):
    bad = run_all("COR2-iff", [ANY_GRAPH], n7c)
    # informational run with the non-symmetrized final clause of (iii)
    literal = run_suite("COR2-iff", ANY_GRAPH, n7c,
                        VerifyOptions(literal_iii=True))
    print(f"  informational: literal condition (iii) run -> "
          f"{literal.status} with {len(literal.violations)} mismatches")
    report(3, not bad,
           f"S+ criticality iff every minimum set meets a condition, "
           f"on {len(n7c)} connected graphs {bad or ''}")


def test_criterion_04_s_minus_iff_er_minus(n6c):
    bad = run_all("T3-equiv", INDUCED_FIVE, n6c)
    stray = []
    for g in n6c:
        base = gamma_value(g, ANY_GRAPH)
        for e in g.edges():
            if gamma_value(delete_edge(g, e), ANY_GRAPH) < base:
                stray.append((g.label, e))
    report(4, not bad and not stray,
           f"subdivision-minus equals deletion-minus on {len(n6c)} graphs x 5 "
           f"properties; no deletion-critical edge exists for the "
           f"unrestricted property ({len(stray)} strays) {bad or ''}")


def test_criterion_05_triple_subdivision_sandwich(n6c):
    bad = run_all("T5-sandwich", INDUCED_FIVE, n6c)
    bad += run_all("T5-A1A2", INDUCED_FIVE, n6c)
    bad += run_all("T5-A1A3", HEREDITARY_FOUR, n6c)
    report(5, not bad,
           f"triple-subdivision sandwich and condition equivalences on "
           f"{len(n6c)} graphs {bad or ''}")


def test_criterion_06_multisubdivision_master(n7c):
    reports = run_suites(["T6-iff", "T6-chain", "T6-msd3"], HEREDITARY_FOUR, n7c)
    bad = [(r.suite, r.property_key, r.status, r.violations[:3])
           for r in reports if r.status != "pass"]
    report(6, not bad,
           f"triple-subdivision iff, forced seven-term chain, and msd <= 3 "
           f"on {len(n7c)} connected graphs x 4 properties {bad or ''}")


def test_criterion_07_k333_worked_example():
    g = complete_multipartite([3, 3, 3])
    p = EDGELESS
    problems = []
    if gamma_value(g, p) != 3:
        problems.append(f"gamma={gamma_value(g, p)}")
    for e in g.edges():
        if gamma_value(delete_edge(g, e), p) != 2:
            problems.append(f"deleted {e}")
        if gamma_value(subdivide_edge(g, e, 3), p) != 3:
            problems.append(f"sub3 {e}")
        pr = profile(g, e, p, cap=6)
        if not (pr.msd == 1 and pr.msd_minus == 1 and pr.msd_plus == 6):
            problems.append(f"msd {e}: {pr.msd}/{pr.msd_minus}/{pr.msd_plus}")
    graph_level = msd_graph(g, p, cap=6)
    if graph_level != (1, 6, 1):
        problems.append(f"graph-level {graph_level}")
    report(7, not problems,
           f"complete tripartite 3+3+3 worked example, every edge "
           f"{problems or ''}")


def test_criterion_08_star_and_triangle_of_stars():
    problems = []
    for p in range(2, 7):
        g = star(p)
        for prop in (ANY_GRAPH, EDGELESS, FOREST):
            if gamma_value(g, prop) != 1:
                problems.append(f"star({p}) {prop.key}")
            if gamma_value(subdivide_edge(g, (0, 1), 1), prop) != 2:
                problems.append(f"star({p})_e {prop.key}")
    for p in range(2, 5):
        g = three_stars_triangle(p)
        if gamma_value(g, FOREST) != 2 + p:
            problems.append(f"three-stars({p})")
        for e in ((0, 1), (0, 2), (1, 2)):
            if gamma_value(subdivide_edge(g, e, 1), FOREST) != 3:
                problems.append(f"three-stars({p}) edge {e}")
    report(8, not problems,
           f"star and triangle-of-stars worked examples {problems or ''}")


def test_criterion_09_path_cycle_classes():
    expected = {0: 1, 2: 2, 1: 3}  # n mod 3 -> class
    problems = []
    for prop in (ANY_GRAPH, EDGELESS):
        for n in range(3, 15):
            want = expected[n % 3]
            got_p = s_class(path(n), prop)
            got_c = s_class(cycle(n), prop)
            if got_p != want:
                problems.append(f"P{n} {prop.key}: {got_p} != {want}")
            if got_c != want:
                problems.append(f"C{n} {prop.key}: {got_c} != {want}")
    report(9, not problems,
           f"paths and cycles n=3..14 land in classes by residue mod 3 "
           f"{problems or ''}")


def test_criterion_10_removal_lemma_suites(n6c):
    bad = []
    for suite in ("TA-vertex", "TB-edgeadd", "TC-plus1-lemma"):
        bad += run_all(suite, HEREDITARY_FOUR, n6c)
    report(10, not bad,
           f"vertex-removal, edge-addition, and plus-one-edge suites on "
           f"{len(n6c)} graphs x 4 properties {bad or ''}")


def test_criterion_11_verify_determinism(tmp_path):
    argv = ["verify", "--suites", "T3-equiv,T6-msd3,FLAG-audit",
            "--properties", "I,O,F,UK,D:1", "--corpus", "bundled:n6c"]

    def run(path):
        code = cli_main(argv + ["--out", str(path)])
        assert code == 0
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("elapsed")
            lines.append(json.dumps(record))
        return lines

    first = run(tmp_path / "a.jsonl")
    second = run(tmp_path / "b.jsonl")
    report(11, first == second and len(first) == 15,
           "repeated verify runs produce identical reports modulo timing")
