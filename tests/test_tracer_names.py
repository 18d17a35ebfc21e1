"""The benchmark's traced run finds every function it wraps and every hook
it reads.

perfbench/tracer.py looks up each name in its TRACED table on domlab.<layer>
and fails if one is missing. It also reads the cache counters from
domlab.solver._gamma_value.cache_info() and counts the graphs built by
wrapping domlab.graph.Graph.__init__. The table and the names are read here
with ast, without importing the tracer, so a change to domlab that would
break `perfbench/run.py --trace 1`, or leave its counters reading nothing,
fails this test instead.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_table() -> dict:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves():
    table = _traced_table()
    assert table
    missing = [f"{layer}.{name}" for layer, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"domlab.{layer}"),
                                       name, None))]
    assert missing == []


def test_every_domlab_name_the_tracer_reads_resolves():
    import domlab
    import domlab.cli  # noqa: F401  (the tracer imports it too)

    dotted = set()
    for node in ast.walk(ast.parse(TRACER.read_text(), filename=str(TRACER))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "domlab" and parts:
            dotted.add(".".join(reversed(parts)))
    assert {"solver._gamma_value.cache_info", "graph.Graph"} <= dotted
    missing = [name for name in sorted(dotted)
               if reduce(lambda obj, attr: getattr(obj, attr, None), name.split("."),
                         domlab) is None]
    assert missing == []


def test_gamma_memo_sees_every_gamma_lookup():
    # perfbench/run.py takes hits, misses and currsize from the counters
    import domlab
    from domlab import solver

    solver._gamma_value.cache_clear()
    g = domlab.cycle(5)
    domlab.gamma(g, domlab.ANY_GRAPH)  # the gamma-scale workload's call
    domlab.gamma_value(g, domlab.ANY_GRAPH)
    info = solver._gamma_value.cache_info()._asdict()
    assert {k: info[k] for k in ("hits", "misses", "currsize")} == {
        "hits": 1, "misses": 1, "currsize": 1}


def test_wrapped_graph_init_sees_every_graph_built(monkeypatch):
    import domlab
    from domlab import graph

    g = domlab.cycle(5)
    for memo in (graph.delete_edge, graph.delete_vertex, graph.subdivide_edge):
        memo.cache_clear()
    built = []
    real = graph.Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(graph.Graph, "__init__", counting_init)
    made = [domlab.parse_graph6("Dhc"), graph.delete_edge(g, (0, 1)),
            graph.add_edge(g, (0, 2)), graph.delete_vertex(g, 0)[0],
            graph.subdivide_edge(g, (0, 1), 2), graph.induced_subgraph(g, 0b111)[0]]
    assert len(built) == len(made)
