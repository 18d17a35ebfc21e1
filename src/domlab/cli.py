"""Command-line interface.

Subcommands (all emit JSON lines on stdout unless --out is given; --out is
opened at the first line or at the end, so a rejected command keeps it):

  gamma      domination number and witness per input graph
  classify   per-edge criticality flags and condition reports
  msd        per-edge subdivision profiles and multisubdivision numbers
  sclass     subdivision class (1..3, null without edges) per graph
  verify     run verification suites over a corpus
  scan       exploratory counterexample scans

Exit codes: 0 success (verify: all suites pass or skip), 1 verify found
violations, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bitset import members
from .corpus import BUNDLED, resolve_corpus
from .criticality import classify_edge
from .errors import DomlabError
from .formats import to_graph6
from .multisubdivision import DEFAULT_CAP, edge_minima, profile, s_class
from .properties import parse_property, require
from .solver import gamma
from .verifier import (
    ASSERTIONS,
    SUITES,
    VerifyOptions,
    all_reports_pass,
    emit_report,
    run_suites,
    scan_counterexamples,
)


class _LazyOut:
    """The --out file, opened (and so emptied) at the first write."""

    def __init__(self, path: str):
        self.path, self.file = path, None

    def write(self, text: str) -> None:
        self.file = self.file or open(self.path, "w")
        self.file.write(text)


def _emit(line: dict, out) -> None:
    out.write(json.dumps(line) + "\n")


def _per_graph(args, p, rows, out) -> int:
    """Write the lines rows(g) yields for each input graph, each led by the
    graph's graph6 and the property."""
    for g in resolve_corpus(args.input, skip_bad=args.skip_bad):
        lead = {
            "graph": to_graph6(g),
            "property": p.key,
        }
        for row in rows(g):
            _emit(lead | row, out)
    return 0


def _cmd_gamma(args, out) -> int:
    p = parse_property(args.property)

    def rows(g):
        result = gamma(g, p)
        yield {
            "gamma": result.value,
            "witness": members(result.witness) if result.witness is not None else None,
        }

    return _per_graph(args, p, rows, out)


def _cmd_classify(args, out) -> int:
    p = parse_property(args.property)

    def rows(g):
        for e in g.edges():
            c = classify_edge(g, e, p, literal=args.literal_iii)
            yield {
                "edge": list(e),
                "gammas": {
                    "base": c.gamma,
                    "subdivided": c.gamma_subdivided,
                    "deleted": c.gamma_deleted,
                },
                "flags": {
                    "s_plus": c.s_plus,
                    "s_minus": c.s_minus,
                    "er_minus": c.er_minus,
                    "in_scope": c.in_scope,
                },
                "conditions": [
                    {"set": members(M), "i": cond.i, "ii": cond.ii, "iii": cond.iii}
                    for M, cond in c.condition_report
                ],
            }

    return _per_graph(args, p, rows, out)


def _cmd_msd(args, out) -> int:
    p = parse_property(args.property)
    if args.cap < 1:  # rejected before any input, edgeless or not
        raise ValueError(f"cap must be >= 1, got {args.cap}")

    def rows(g):
        edges = g.edges()
        profiles = [profile(g, e, p, cap=args.cap) for e in edges]
        for e, pr in zip(edges, profiles):
            yield {
                "edge": list(e),
                "values": list(pr.values),
                "msd": pr.msd,
                "msd_plus": pr.msd_plus,
                "msd_minus": pr.msd_minus,
                "cap": args.cap,
            }
        if profiles:
            graph_level = edge_minima(profiles)
            yield {
                "edge": None,
                "msd": graph_level.msd,
                "msd_plus": graph_level.msd_plus,
                "msd_minus": graph_level.msd_minus,
                "cap": args.cap,
            }

    return _per_graph(args, p, rows, out)


def _cmd_sclass(args, out) -> int:
    p = parse_property(args.property)
    require(p, "hereditary")  # out of scope fails before any line, edgeless or not

    def rows(g):
        yield {"class": s_class(g, p) if g.edges() else None}

    return _per_graph(args, p, rows, out)


def _cmd_verify(args, out) -> int:
    properties = [parse_property(t) for t in args.properties.split(",") if t]
    if args.suites == "all":
        suite_ids = list(SUITES)
    else:  # run_suites rejects unknown ids
        suite_ids = [s for s in args.suites.split(",") if s]
    if not properties or not suite_ids:
        raise DomlabError("empty selection: --suites and --properties each need an entry")
    options = VerifyOptions(fail_fast=args.fail_fast,
                            literal_iii=args.literal_iii, jobs=args.jobs)
    corpus = resolve_corpus(args.corpus, skip_bad=args.skip_bad)
    reports = run_suites(suite_ids, properties, corpus, options)
    for report in reports:
        emit_report(report, out)
    return 0 if all_reports_pass(reports) else 1


def _cmd_scan(args, out) -> int:
    p = parse_property(args.property)
    options = VerifyOptions(jobs=args.jobs)
    corpus = resolve_corpus(args.corpus, skip_bad=args.skip_bad)
    for hit in scan_counterexamples(args.assertion, p, corpus, options):
        _emit(hit, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domlab",
        description="Exact domination numbers under graph-property constraints, "
                    "edge criticality, subdivision profiles, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--property", required=True, help="I, O, C, T, F, UK, or D:<k>")
        sp.add_argument("--input", required=True,
                        help="g6:<file>, edges:<file>, bundled:<name>; file '-' reads stdin")
        sp.add_argument("--skip-bad", action="store_true",
                        help="skip unparsable corpus lines with a warning")
        sp.add_argument("--out", default=None, help="write JSON lines here instead of stdout")

    sp = sub.add_parser("gamma", help="domination number per graph")
    add_common(sp)
    sp.set_defaults(func=_cmd_gamma)

    sp = sub.add_parser("classify", help="criticality flags per edge")
    add_common(sp)
    sp.add_argument("--literal-iii", action="store_true",
                    help="use the non-symmetrized reading of condition (iii)")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("msd", help="subdivision profiles per edge")
    add_common(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help=f"profile depth (default {DEFAULT_CAP})")
    sp.set_defaults(func=_cmd_msd)

    sp = sub.add_parser("sclass", help="subdivision class per graph")
    add_common(sp)
    sp.set_defaults(func=_cmd_sclass)

    sp = sub.add_parser("verify", help="run verification suites over a corpus")
    sp.add_argument("--suites", default="all",
                    help="comma list of suite ids, or 'all' (default)")
    sp.add_argument("--properties", required=True,
                    help="comma list, e.g. I,O,F,UK,D:1")
    sp.add_argument("--corpus", required=True,
                    help=f"bundled:<name> ({', '.join(BUNDLED)}), g6:<file>, edges:<file>")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    sp.add_argument("--out", default=None, help="write the report here")
    sp.add_argument("--fail-fast", action="store_true",
                    help="stop each suite at its first violation")
    sp.add_argument("--literal-iii", action="store_true",
                    help="informational run with the non-symmetrized condition (iii)")
    sp.add_argument("--skip-bad", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("scan", help="exploratory counterexample scan")
    sp.add_argument("--assertion", required=True,
                    help=f"one of: {', '.join(sorted(ASSERTIONS))}")
    sp.add_argument("--property", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    sp.add_argument("--skip-bad", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _LazyOut(args.out) if getattr(args, "out", None) else None
    try:
        code = args.func(args, out or sys.stdout)
        if out is not None:
            out.write("")  # a run without lines still leaves an empty file
        return code
    except (DomlabError, ValueError, OSError) as exc:
        print(f"domlab: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not None and out.file is not None:
            out.file.close()


if __name__ == "__main__":
    sys.exit(main())
