#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics over several seeds.

    python3 tools/bench_record.py --tag T --runs N

Measures the checkout this file lives in, which must hold src/ as its
commit has it, so that the commit the file names is the code it measured.
For each seed i < N and each workload W that BENCHMARK.json names, it runs
the benchmark's command unchanged, for BENCHMARK.json's run_seconds S,

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

and reads the result object on the last line of its output. It writes
BENCH_<T>.json at the checkout's root: per workload, the attempted and
failed counts summed over the runs, and per end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the values in seed order;
plus the provenance: the commit and source digest the runs report, nproc,
the Python version, the date, N and S.

Exits 2 on a usage error (fewer than two runs, since quartiles need two
values) and 1 when src/ differs from the commit, or a run fails or prints
no result.
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


def read_run(stdout: str) -> tuple[dict, dict]:
    """(provenance, result) from the last two lines of a run's output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("no result line")
    return json.loads(lines[-2]), json.loads(lines[-1])


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


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    parser.add_argument("--runs", type=int, required=True, help="seeds 0 .. runs-1, at least 2")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    changed = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                             capture_output=True, text=True)
    if changed.returncode != 0 or changed.stdout:
        print("bench_record: src/ differs from the commit (or git failed); commit it "
              f"and measure that checkout\n{changed.stdout}{changed.stderr}", file=sys.stderr)
        return 1
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    results = {w: [] for w in workloads}
    info = {}
    for seed in range(args.runs):
        for workload in workloads:
            argv_run = [*spec["command"], "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv_run, cwd=ROOT, capture_output=True, text=True)
            try:
                info, result = read_run(proc.stdout)
            except ValueError as exc:  # json's decode error is a ValueError too
                print(f"bench_record: {workload} seed {seed}: {exc}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            if proc.returncode != 0:
                print(f"bench_record: {workload} seed {seed} exited with "
                      f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results[workload].append(result)
            run_s = result["metrics"]["run_s"]["value"]
            print(f"bench_record: {workload} seed {seed}: run_s {run_s:.4f}, "
                  f"correct {result['correct']}", file=sys.stderr)
    record = {
        "tag": args.tag,
        "provenance": {"commit": info["commit"], "src_digest": info["src_digest"],
                       "nproc": info["nproc"], "python": info["python"],
                       "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                       "runs": args.runs, "seconds": seconds},
        "workloads": summarise(results, metrics),
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
