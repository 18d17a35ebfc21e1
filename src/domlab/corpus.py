"""Bundled small-graph corpora and corpus resolution.

The desk-scale corpora ship as graph6 files (one graph per line) inside the
package:

  n5all     all graphs on 1..5 vertices (52)
  n6all     all graphs on 1..6 vertices (208)
  n6c       all connected graphs on 2..6 vertices (142)
  n7c       all connected graphs on 2..7 vertices (995)
  paths14   paths P2..P14
  cycles14  cycles C3..C14
  named     stars K_{1,p} p=2..6, triangle-of-stars p=2..4, K_{3,3,3}

The environment variable DOMLAB_CORPUS_DIR points corpus lookup at a
directory of <name>.g6 files instead of the bundled data.
"""

from __future__ import annotations

import os
import sys
from importlib import resources
from pathlib import Path
from typing import Iterator

from .errors import CorpusError, Graph6Error
from .formats import parse_graph6, parse_edge_list
from .graph import Graph

BUNDLED = ("n5all", "n6all", "n6c", "n7c", "paths14", "cycles14", "named")

_HEADER = ">>graph6<<"


def _corpus_text(name: str) -> str:
    if name not in BUNDLED:
        raise CorpusError(f"unknown bundled corpus {name!r}; known: {', '.join(BUNDLED)}")
    override = os.environ.get("DOMLAB_CORPUS_DIR")
    if override:
        path = Path(override) / f"{name}.g6"
        if not path.is_file():
            raise CorpusError(f"DOMLAB_CORPUS_DIR set but {path} not found")
        return path.read_text()
    return (resources.files("domlab") / "data" / f"{name}.g6").read_text()


def iter_graph6_lines(
    text: str, source: str = "<corpus>", skip_bad: bool = False
) -> Iterator[Graph]:
    """Yield graphs from graph6 lines; labels carry source and line number.

    A leading ">>graph6<<" file header is tolerated. Parse errors raise
    CorpusError with the line number, or print a warning to stderr and
    continue when skip_bad is set.
    """
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if line_no == 1 and stripped.startswith(_HEADER):
            stripped = stripped[len(_HEADER):].strip()
        if not stripped:
            continue
        try:
            g = parse_graph6(stripped)
        except Graph6Error as exc:
            message = f"{source}:{line_no}: {exc}"
            if skip_bad:
                print(f"warning: {message}", file=sys.stderr)
                continue
            raise CorpusError(message) from exc
        yield g.relabel(f"{source}:{line_no} {stripped}")


def load_corpus(name: str) -> list[Graph]:
    """Load a bundled corpus by name."""
    return list(iter_graph6_lines(_corpus_text(name), source=f"bundled:{name}"))


def resolve_corpus(spec: str, skip_bad: bool = False) -> list[Graph]:
    """Resolve "bundled:<name>", "g6:<path>" or "edges:<path>" (path "-" = stdin)."""
    kind, _, rest = spec.partition(":")
    if not rest:
        raise CorpusError(f"corpus spec {spec!r} needs the form kind:value")
    if kind == "bundled":
        return load_corpus(rest)
    if kind in ("g6", "edges"):
        if rest == "-":
            text, source = sys.stdin.read(), "<stdin>"
        else:
            path = Path(rest)
            if not path.is_file():
                raise CorpusError(f"input file {path} not found")
            text, source = path.read_text(), str(path)
        if kind == "g6":
            return list(iter_graph6_lines(text, source=source, skip_bad=skip_bad))
        return [parse_edge_list(text).relabel(source)]
    raise CorpusError(f"unknown corpus kind {kind!r} (use bundled:, g6: or edges:)")
