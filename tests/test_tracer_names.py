"""The benchmark's traced run finds every function it wraps.

perfbench/tracer.py looks up each name in its TRACED table on domlab.<layer>
and fails if one is missing. The table is read here with ast, without
importing the tracer, so a deletion from domlab that would break
`perfbench/run.py --trace 1` fails this test instead.
"""

import ast
import importlib
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
