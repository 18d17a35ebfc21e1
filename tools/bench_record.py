#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of a change and its parent, paired.

    python3 tools/bench_record.py --tag T --runs N --parent DIR

Measures the checkout this file lives in (the change) against the parent
checkout at DIR in one call, so that both sides see the same host load.
Both must hold src/ as their commits have it, so that the commits the file
names are the code it measured. Each side is byte-compiled first
(python -m compileall -q src), so both start in the same bytecode state.
For each seed i < N and each workload W that BENCHMARK.json names, it runs
the benchmark's command unchanged in both checkouts, the parent first on
even i and the change first on odd i, for BENCHMARK.json's run_seconds S,

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

and reads the result object on the last line of each run's output. It
writes BENCH_<T>.json at the change's root: for each side and workload, the
attempted and failed counts summed over the runs, and per end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the values in
seed order; per workload and metric, the number of seeds on which the
change was better, as the metric's `better` in BENCHMARK.json reads; and
the provenance: each side's commit and source digest as its runs report
them, nproc, the Python version, the date, N and S.

Exits 2 on a usage error (fewer than two runs, since quartiles need two
values) and 1 when either side's src/ differs from its commit, or a run
fails or prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class RunFailed(Exception):
    pass


def read_run(stdout: str) -> tuple[dict, dict]:
    """(provenance, result) from the last two lines of a run's output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("no result line")
    return json.loads(lines[-2]), json.loads(lines[-1])


def measure(run, runs: int, workloads: list[str]) -> tuple[dict, dict]:
    """Per side, its last provenance and per workload its result objects in
    seed order. run(side, workload, seed) returns the stdout of one run; the
    two sides of a seed and workload run back to back, the parent first on
    even seeds."""
    info, results = {}, {side: {w: [] for w in workloads} for side in ("parent", "change")}
    for seed in range(runs):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                try:
                    info[side], result = read_run(run(side, workload, seed))
                except ValueError as exc:  # json's decode error is a ValueError too
                    raise RunFailed(f"{side} {workload} seed {seed}: {exc}") from exc
                results[side][workload].append(result)
                print(f"bench_record: {side} {workload} seed {seed}: run_s "
                      f"{result['metrics']['run_s']['value']:.4f}, correct {result['correct']}",
                      file=sys.stderr)
    return info, results


def summarise(results: dict[str, list[dict]], metrics: list[str]) -> dict:
    """Per workload: attempted and failed summed over its result objects,
    and per metric the median, the quartiles and the values in run order."""
    summary = {}
    for workload, runs in results.items():
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in runs]
            entry[name] = {"median": statistics.median(values),
                           "quartiles": statistics.quantiles(values, n=4),
                           "values": values}
        summary[workload] = entry
    return summary


def change_wins(parent: dict[str, list[dict]], change: dict[str, list[dict]],
                end_to_end: list[dict]) -> dict:
    """Per workload and metric, the seeds on which the change was strictly
    better than the parent, `better` being "lower" or "higher"."""
    wins = {}
    for workload, runs in change.items():
        wins[workload] = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            wins[workload][name] = sum(
                sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                for p, c in zip(parent[workload], runs))
    return wins


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    parser.add_argument("--runs", type=int, required=True, help="seeds 0 .. runs-1, at least 2")
    parser.add_argument("--parent", required=True, type=Path,
                        help="a checkout of the parent commit")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    for side, where in checkouts.items():
        changed = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=where,
                                 capture_output=True, text=True)
        if changed.returncode != 0 or changed.stdout:
            print(f"bench_record: the {side}'s src/ at {where} differs from its commit (or "
                  f"git failed); commit it\n{changed.stdout}{changed.stderr}", file=sys.stderr)
            return 1
    for side, where in checkouts.items():
        if subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=where).returncode:
            print(f"bench_record: the {side}'s src/ does not compile", file=sys.stderr)
            return 1
    seconds = spec["run_seconds"]

    def run(side, workload, seed):
        argv_run = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv_run, cwd=checkouts[side], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RunFailed(f"{side} {workload} seed {seed} exited with "
                            f"{proc.returncode}\n{proc.stderr}")
        return proc.stdout

    try:
        info, results = measure(run, args.runs, [w["name"] for w in spec["workloads"]])
    except RunFailed as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    metrics = [m["name"] for m in spec["end_to_end"]]
    record = {
        "tag": args.tag,
        "provenance": {**{side: {"commit": info[side]["commit"],
                                 "src_digest": info[side]["src_digest"]} for side in checkouts},
                       "nproc": info["change"]["nproc"], "python": info["change"]["python"],
                       "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                       "runs": args.runs, "seconds": seconds,
                       "order": "the parent first on even seeds, the change on odd"},
        **{side: summarise(results[side], metrics) for side in checkouts},
        "change_wins": change_wins(results["parent"], results["change"], spec["end_to_end"]),
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
