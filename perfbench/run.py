"""domlab's benchmark: four closed-loop workloads, checked against references.

    python3 perfbench/run.py --workload verify-n7c --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload gamma-scale --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a domlab checkout; domlab is imported from its src/.
--trace 0 measures the end-to-end metrics: a few fresh set-up processes,
then whole passes of the workload, one after another, while the next pass
is expected to end within --seconds (at least one pass). --trace 1 runs one
serial pass traced and one untraced, side by side, and reports the
per-layer metrics. The last line of stdout is the result object; the line
before it carries the provenance, the error rate and any mismatch notes.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

SETUP_REPEATS = 7
ALL_SUITES = tuple(wl.VERIFY_SUITES.split(",")) + ("FLAG-audit",)

END_TO_END = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop. Other tenants of a shared
    machine slow it down without showing in the load average."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        times.append(1000 * (time.perf_counter() - t0))
    return statistics.median(times)


def source_commit() -> str:
    if not (wl.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of src/domlab/*.py, which names the code when git cannot."""
    files = sorted((wl.SRC / "domlab").glob("*.py"))
    return wl.digest([[f.name, f.read_text()] for f in files])


def provenance(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": source_commit(), "src_digest": source_digest(),
            "seed": seed, "loadavg_start": read_loadavg(),
            "cpu_probe_ms_start": cpu_probe_ms()}


def timed_run(workload: wl.Workload, seed: int, seconds: float, tiny: bool,
              workdir: Path, refs: dict) -> tuple[dict, list[wl.PassResult], dict]:
    setup = wl.measure_setup(workload, seed, tiny, workdir, SETUP_REPEATS)
    passes = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(workload, seed, tiny, workdir, refs))
        took = time.perf_counter() - t0
        if time.perf_counter() - started + took > seconds:
            break
    latencies = [x for p in passes for x in p.checked.latencies]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p.run_s for p in passes),
        "work_per_s": sum(p.checked.units for p in passes) / sum(p.run_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024,
    }
    extra = {"samples": {"setup": len(setup), "passes": len(passes)},
             "request_latency_ms": {"p50": 1000 * percentile(latencies, 0.5),
                                    "p90": 1000 * percentile(latencies, 0.9),
                                    "samples": len(latencies)}}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, passes, extra


def _spawn_tracer(workload, seed, tiny, outdir: Path, plain: bool):
    outdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(wl.BENCH_DIR / "tracer.py"), "--workload",
           workload.name, "--seed", str(seed), "--outdir", str(outdir)]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--plain"] if plain else []
    stdout = open(outdir / "result.json", "w")
    stderr = open(outdir / "stderr.txt", "w")
    proc = subprocess.Popen(cmd, cwd=wl.ROOT, env=wl.child_env(),
                            stdout=stdout, stderr=stderr)
    return proc, stdout, stderr


def traced_run(workload: wl.Workload, seed: int, tiny: bool, workdir: Path,
               refs: dict):
    """One traced and one untraced serial pass, started together."""
    children = [_spawn_tracer(workload, seed, tiny, workdir / name, plain)
                for name, plain in (("traced", False), ("plain", True))]
    for proc, stdout, stderr in children:
        proc.wait()
        stdout.close()
        stderr.close()
    results = []
    for (proc, _, _), name in zip(children, ("traced", "plain")):
        text = (workdir / name / "result.json").read_text().strip().splitlines()
        if proc.returncode != 0 or not text:
            raise RuntimeError(f"{name} pass exited with {proc.returncode}; "
                               f"see {workdir / name / 'stderr.txt'}")
        results.append(json.loads(text[-1]))
    traced, plain = results
    checked = check_traced(workload, seed, tiny, traced, refs)
    reports = []
    if workload.kind == "verify":
        for path in traced["outputs"]:
            reports += [json.loads(t) for t in Path(path).read_text().splitlines()]
    for path in traced["outputs"] + plain["outputs"]:
        Path(path).unlink()
    metrics = layer_metrics(traced, plain, reports)
    return metrics, checked


def check_traced(workload, seed, tiny, traced, refs) -> wl.Checked:
    if workload.kind == "gamma":
        return wl.check_gamma(traced["answers"], seed, tiny, refs["gamma"])
    units = failed = 0
    notes = []
    for i, (path, code) in enumerate(zip(traced["outputs"], traced["exit_codes"])):
        texts = Path(path).read_text().splitlines(keepends=True)
        c = wl.check_command(workload, i, tiny, texts, code, refs["cli"])
        units += c.units
        failed += c.failed
        notes += c.notes
    return wl.Checked(units, failed, [], notes)


def layer_metrics(traced: dict, plain: dict, reports: list) -> dict:
    stats = traced["stats"]

    def calls(*names):
        return sum(stats[n][0] for n in names)

    def total(name):
        return stats[name][1]

    def self_time(names):
        return sum(stats[n][1] - stats[n][2] for n in names)

    def layer(name):
        return [n for n in stats if n.startswith(name + ".")]

    edits = [n for n in layer("graph") if n != "graph.Graph"]  # Graph() is construct_s
    cache = traced["cache"]
    lookups = cache["hits"] + cache["misses"]
    suite_s = {s: 0.0 for s in ALL_SUITES}
    for r in reports:
        suite_s[r["suite"]] += r["elapsed"]
    count, secs, ratio = "count", "s", "ratio"
    m = {
        "solver.cache_hits": (cache["hits"], count),
        "solver.cache_misses": (cache["misses"], count),
        "solver.cache_lookups": (lookups, count),
        "solver.cache_evictions": (cache["misses"] - cache["currsize"], count),
        "solver.cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, ratio),
        "solver.gamma_value_calls": (calls("solver.gamma_value"), count),
        "solver.gamma_calls": (calls("solver.gamma"), count),
        "solver.min_sets_calls": (calls("solver.all_minimum_sets"), count),
        "solver.membership_calls": (calls("solver.in_some_minimum_set"), count),
        "solver.oracle_calls": (calls("solver.gamma_oracle"), count),
        "solver.self_s": (self_time(layer("solver")), secs),
        "properties.holds_induced_calls": (calls("properties.holds_induced"), count),
        "properties.holds_induced_s": (total("properties.holds_induced"), secs),
        "properties.audit_flags_s": (total("properties.audit_flags"), secs),
        "properties.self_s": (self_time(layer("properties")), secs),
        "graph.graphs_built": (calls("graph.Graph"), count),
        "graph.construct_s": (total("graph.Graph"), secs),
        "graph.edit_calls": (calls(*edits), count),
        "graph.edit_s": (self_time(edits), secs),
        "multisubdivision.profile_calls": (calls("multisubdivision.profile"), count),
        "multisubdivision.check_multi4_calls": (calls("multisubdivision.check_multi4"), count),
        "multisubdivision.check_multi1_calls": (calls("multisubdivision.check_multi1"), count),
        "multisubdivision.self_s": (self_time(layer("multisubdivision")), secs),
        "criticality.conditions_calls":
            (calls("criticality.check_theorem1_conditions"), count),
        "criticality.classify_edge_calls": (calls("criticality.classify_edge"), count),
        "criticality.self_s": (self_time(layer("criticality")), secs),
        "verifier.self_s": (self_time(layer("verifier")), secs),
        "corpus.resolve_s": (total("corpus.resolve_corpus"), secs),
        "formats.to_graph6_calls": (calls("formats.to_graph6"), count),
        "formats.parse_graph6_calls": (calls("formats.parse_graph6"), count),
        "generators.calls": (calls(*layer("generators")), count),
        "cli.self_s": (self_time(layer("cli")), secs),
        "trace.run_s": (traced["run_s"], secs),
        "trace.overhead_s": (traced["run_s"] - plain["run_s"], secs),
        "trace.spans": (traced["spans"], count),
    }
    for suite, elapsed in suite_s.items():
        m[f"verifier.suite_s.{suite}"] = (elapsed, secs)
    return m


def load_references() -> dict:
    refs = {"cli": wl.load_reference("cli.json"),
            "gamma": wl.load_reference("gamma_scale.json")}
    if not refs["cli"] or not refs["gamma"]:
        raise SystemExit("perfbench: the stored references are missing; "
                         "see perfbench/make_reference.py")
    return refs


def fresh_workdir(name: str) -> Path:
    workdir = wl.ROOT / ".perfbench-out" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 refs: dict) -> tuple[dict, dict]:
    """(result object, provenance line) for one run."""
    workload = wl.WORKLOADS[name]
    info = provenance(seed)
    workdir = fresh_workdir(f"{'tiny-' if tiny else ''}{name}-seed{seed}"
                            f"{'-trace' if trace else ''}")
    if trace:
        metrics, checked = traced_run(workload, seed, tiny, workdir, refs)
    else:
        metrics, passes, extra = timed_run(workload, seed, seconds, tiny, workdir, refs)
        info.update(extra)
        checked = wl.Checked(sum(p.checked.units for p in passes),
                             sum(p.checked.failed for p in passes), [],
                             list(dict.fromkeys(n for p in passes for n in p.checked.notes)))
    info["loadavg_end"] = read_loadavg()
    info["cpu_probe_ms_end"] = cpu_probe_ms()
    info["workload"] = name
    info["error_rate"] = checked.failed / checked.units
    info["notes"] = checked.notes[:20]
    result = {
        "correct": checked.failed == 0,
        "attempted": checked.units,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def self_check(refs: dict) -> int:
    """Tiny runs of every workload: every metric printed with the unit that
    BENCHMARK.json names, zero errors, and a corrupted reference line
    counted in the error rate."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, workload in wl.WORKLOADS.items():
        for trace in (False, True):
            result, info = run_workload(name, 0, 1, trace, True, refs)
            print(json.dumps({"workload": name, "trace": int(trace), **result,
                              "error_rate": info["error_rate"]}))
            if not result["correct"]:
                problems.append(f"{name}: tiny run not correct: {info['notes']}")
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name}: metrics {got} differ from {want}")
        corrupted = copy.deepcopy(refs)
        if workload.kind == "gamma":
            corrupted["gamma"]["tiny"]["fixed"][0] = [-1, 0]
        else:
            key = wl.reference_key(workload, 0, True)
            entry = corrupted["cli"][key]
            target = entry["lines"][0] if workload.kind == "verify" else entry["graphs"][0]
            target[-1] = "0" * len(target[-1])
        workdir = fresh_workdir(f"tiny-{name}-corrupted")
        checked = wl.run_pass(workload, 0, True, workdir, corrupted).checked
        rate = checked.failed / checked.units
        print(json.dumps({"workload": name, "corrupted_reference": True,
                          "error_rate": rate}))
        if rate <= 0:
            problems.append(f"{name}: a corrupted reference was not counted")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"],
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (wl.SRC / "domlab" / "__init__.py").is_file():
        print(f"perfbench: no domlab sources under {wl.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    refs = load_references()
    if args.self_check:
        return self_check(refs)
    if args.workload is None:
        parser.error("--workload is required")
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, info = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    False, refs)
        print(json.dumps(info))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
