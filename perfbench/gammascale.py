"""The gamma-scale workload: its instances and the query loop.

Instances are made here as plain edge lists, so that the reference code in
oracle.py sees the same graphs without going through domlab:

* G(n, floor(2.25 n)) for n in 20, 24, 28, five graphs each, drawn once
  from a fixed instance seed;
* five more G(20, 45) graphs drawn from the workload seed;
* the path/cycle closed-form queries: gamma_c of P_n and C_n for n = 10, 12,
  14 and gamma_t of P_n and C_n for n = 16, 20, 24.

Every random graph is asked for all seven catalog properties. The large
random graphs are not drawn per seed because their cost varies too much
between draws: over 20 seeds, fresh draws spread the summed query time by
51% and the median query time by 50% (quartile distance over median), far
beyond any bound that could still flag a regression. The seeded G(20, 45)
graphs keep the inputs changing with the seed at a small share of the time.

Run as a script, this file is the fresh process of one pass:

    python3 perfbench/gammascale.py --seed 3 [--tiny] [--setup-only]

It imports domlab from the checkout, builds the instances (the set-up), then
asks gamma(g, p) with a witness for every query, one at a time, and prints
one JSON object with the per-query times and answers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PROPERTY_KEYS = ("I", "O", "C", "T", "F", "UK", "D:1")
INSTANCE_SEED = "gamma-scale fixed instances"


@dataclass(frozen=True)
class Query:
    name: str
    n: int
    edges: tuple
    key: str
    seeded: bool  # drawn from the workload seed, else the same for every seed
    family: str = ""  # "P" or "C" for the closed-form queries


def _sizes(tiny: bool) -> dict:
    if tiny:
        return {"fixed": ((10, 2),), "seeded": ((10, 2),),
                "closed": (("C", (6,)), ("T", (8,)))}
    return {"fixed": ((20, 5), (24, 5), (28, 5)), "seeded": ((20, 5),),
            "closed": (("C", (10, 12, 14)), ("T", (16, 20, 24)))}


def path_edges(n: int) -> tuple:
    return tuple((i, i + 1) for i in range(n - 1))


def cycle_edges(n: int) -> tuple:
    return path_edges(n) + ((0, n - 1),)


def _random_queries(rng, sizes, prefix, seeded) -> list[Query]:
    out = []
    for n, count in sizes:
        pairs = list(itertools.combinations(range(n), 2))
        for i in range(count):
            edges = tuple(sorted(rng.sample(pairs, 9 * n // 4)))
            out += [Query(f"{prefix}{n}.{i}/{k}", n, edges, k, seeded)
                    for k in PROPERTY_KEYS]
    return out


def queries(seed: int, tiny: bool = False) -> list[Query]:
    """Every query of one pass, in the order they are asked."""
    spec = _sizes(tiny)
    out = _random_queries(random.Random(INSTANCE_SEED), spec["fixed"], "G", False)
    out += _random_queries(random.Random(seed), spec["seeded"], "S", True)
    for key, orders in spec["closed"]:
        for n in orders:
            for family, edges in (("P", path_edges(n)), ("C", cycle_edges(n))):
                out.append(Query(f"{family}{n}/{key}", n, edges, key, False, family))
    return out


def build_queries(domlab, seed: int, tiny: bool) -> list:
    """(graph, property) pairs built through domlab's public constructors."""
    props = {k: domlab.parse_property(k) for k in PROPERTY_KEYS}
    family_ctor = {"P": domlab.path, "C": domlab.cycle}
    graphs: dict = {}
    out = []
    for q in queries(seed, tiny):
        label = q.name.split("/")[0]
        if label not in graphs:
            graphs[label] = (family_ctor[q.family](q.n) if q.family else
                             domlab.Graph.from_edges(q.n, q.edges, label=label))
        out.append((graphs[label], props[q.key]))
    return out


def import_domlab():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import domlab

    return domlab


def run_queries(domlab, pairs, on_query=None) -> dict:
    """Ask every query in order; times in seconds, answers as [value, mask]."""
    times, answers = [], []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    for g, p in pairs:
        t0 = time.perf_counter()
        result = on_query(g, p) if on_query else domlab.gamma(g, p)
        times.append(time.perf_counter() - t0)
        answers.append([result.value, result.witness])
    wall = time.perf_counter() - started
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    return {"run_s": wall, "cpu_s": cpu, "times": times, "answers": answers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    domlab = import_domlab()
    pairs = build_queries(domlab, args.seed, args.tiny)
    if not args.setup_only:
        print(json.dumps(run_queries(domlab, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
