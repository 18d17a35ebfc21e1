"""The traced run: one serial pass in one process, with spans and counters.

    python3 perfbench/tracer.py --workload verify-n7c --seed 0 --outdir DIR [--plain]

The pass runs in this process: CLI workloads through domlab.cli.main (with
--jobs 1), gamma-scale through domlab.gamma. Before it starts, every
function listed in TRACED is replaced, in every domlab module that binds it
(`from .x import y` copies the binding), by a wrapper that counts its calls
and adds up its total and self time; Graph construction is wrapped through
Graph.__init__. The coarse boundaries in SPANS (each CLI command, each
suite x property, each gamma query) also record a span: name, start, end,
parent, and the id of the top span as the request id. Spans stay in memory
and are written to DIR/spans.json at the end. Cache counters are read from
domlab.solver._gamma_value.cache_info(); nothing in domlab is written to
apart from the rebinding. With --plain the same pass runs unwrapped, to
measure the tracing overhead.

bitset is not wrapped: its iter_bits generator is consumed inside its
callers, whose self time includes it.

The last line of stdout is a JSON object with the pass's wall time, the
per-function counters, the cache counters and the exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import gammascale
import workloads as wl

# layer -> public functions whose calls are counted and timed
TRACED = {
    "graph": ("delete_edge", "add_edge", "delete_vertex", "subdivide_edge",
              "induced_subgraph"),
    "formats": ("to_graph6", "parse_graph6", "parse_edge_list"),
    "corpus": ("resolve_corpus", "load_corpus"),
    "generators": ("path", "cycle", "star", "complete", "complete_multipartite",
                   "three_stars_triangle"),
    "properties": ("holds", "holds_induced", "audit_flags", "parse_property"),
    "solver": ("gamma", "gamma_value", "all_minimum_sets", "in_some_minimum_set",
               "v_minus_set", "is_dominating", "gamma_oracle"),
    "criticality": ("check_theorem1_conditions", "classify_edge",
                    "is_s_plus_critical_iff_conditions", "s_minus_equiv_er_minus",
                    "class_membership"),
    "multisubdivision": ("profile", "msd_graph", "s_class", "check_multi1",
                         "check_multi4"),
    "verifier": ("run_suite", "run_suites", "scan_counterexamples", "emit_report"),
    "cli": ("main",),
}
SPANS = {"cli.main", "verifier.run_suite"}
CONSTRUCT = "graph.Graph"


class Tracer:
    def __init__(self):
        self.frames = [0.0]  # time spent in wrapped children, per open call
        self.stats: dict[str, list] = {}  # name -> [calls, total s, child s]
        self.spans: list[dict] = []
        self.open_spans: list[dict] = []

    def wrap(self, name: str, fn, span: bool = False):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self.frames
        perf = time.perf_counter

        def leaf(*args, **kwargs):
            frames.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = frames.pop()
                frames[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += child

        if not span:
            return leaf

        def spanned(*args, **kwargs):
            with self.span(name):
                return leaf(*args, **kwargs)

        return spanned

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.open_spans[-1] if self.open_spans else None
        sid = len(self.spans)
        record = {"id": sid, "name": name,
                  "parent": parent["id"] if parent else None,
                  "request": parent["request"] if parent else sid,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self.open_spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self.open_spans.pop()

    def install(self, domlab) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "domlab" or name.startswith("domlab.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"domlab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                qualified = f"{layer}.{fname}"
                wrapper = self.wrap(qualified, original, qualified in SPANS)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        graph_cls = domlab.graph.Graph
        graph_cls.__init__ = self.wrap(CONSTRUCT, graph_cls.__init__)


def run(workload: wl.Workload, seed: int, tiny: bool, outdir: Path,
        tracer: Tracer | None) -> dict:
    sys.path.insert(0, str(wl.SRC))
    import domlab
    import domlab.cli

    if tracer is not None:
        tracer.install(domlab)
    result: dict = {"exit_codes": [], "outputs": []}
    if workload.kind == "gamma":
        queries = gammascale.build_queries(domlab, seed, tiny)

        def ask(g, p):
            if tracer is None:
                return domlab.gamma(g, p)
            with tracer.span(f"query {g.label}/{p.key}"):
                return domlab.gamma(g, p)

        out = gammascale.run_queries(domlab, queries, on_query=ask)
        result["answers"] = out["answers"]
        result["run_s"] = out["run_s"]
    else:
        started = time.perf_counter()
        for i, argv in enumerate(workload.argvs(tiny, serial=True)):
            path = outdir / f"out-{i}.jsonl"
            result["exit_codes"].append(domlab.cli.main(argv + ["--out", str(path)]))
            result["outputs"].append(str(path))
        result["run_s"] = time.perf_counter() - started
    result["cache"] = domlab.solver._gamma_value.cache_info()._asdict()
    if tracer is not None:
        result["stats"] = tracer.stats
        (outdir / "spans.json").write_text(json.dumps(tracer.spans))
        result["spans"] = len(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plain", action="store_true")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = run(wl.WORKLOADS[args.workload], args.seed, args.tiny, outdir,
                 None if args.plain else Tracer())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
