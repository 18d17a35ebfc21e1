"""tools/same_reports.py: report files compared apart from elapsed."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SAME_REPORTS = Path(__file__).resolve().parents[1] / "tools" / "same_reports.py"


def test_same_reports(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"suite": "T1-bound", "elapsed": 1.5}\n{"suite": "T3-equiv", "elapsed": 0.1}\n')
    b.write_text('{"suite": "T1-bound", "elapsed": 2.0}\n{"suite": "T3-equiv", "elapsed": 0.3}\n')

    def compare():
        return subprocess.run([sys.executable, str(SAME_REPORTS), str(a), str(b)],
                              capture_output=True, text=True, timeout=60)

    same = compare()
    assert same.returncode == 0 and same.stdout == ""
    b.write_text('{"suite": "T1-bound", "elapsed": 2.0}\n{"suite": "T3-equiv", "status": "fail"}\n')
    differ = compare()
    # both differing lines follow the line number, without elapsed
    assert differ.returncode == 1 and differ.stdout.splitlines() == [
        "first difference at line 2",
        f'{a}: {{"suite": "T3-equiv"}}',
        f'{b}: {{"suite": "T3-equiv", "status": "fail"}}',
    ]
    b.write_text('{"suite": "T1-bound", "elapsed": 2.0}\n')
    shorter = compare()
    assert shorter.returncode == 1 and shorter.stdout.splitlines() == [
        "first difference at line 2", f'{a}: {{"suite": "T3-equiv"}}', f"{b}: (no line)"]


def test_unreadable_file_is_a_usage_error(tmp_path):
    a = tmp_path / "a.jsonl"
    a.write_text('{"suite": "T1-bound", "elapsed": 1.5}\n')
    missing = tmp_path / "missing.jsonl"
    for argv in ([a, missing], [missing, a]):
        run = subprocess.run([sys.executable, str(SAME_REPORTS), *map(str, argv)],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("same_reports: ") and "missing.jsonl" in run.stderr
        assert "Traceback" not in run.stderr


BENCH_RECORD = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", BENCH_RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_output(run_s, rss, failed=0, work=100.0, commit="abc"):
    # what perfbench/run.py prints for one workload: provenance, then result
    info = {"nproc": 2, "python": "3.11.7", "commit": commit, "src_digest": "d"}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"run_s": {"value": run_s, "unit": "s"},
                          "work_per_s": {"value": work, "unit": "1/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return f"notes on stdout\n{json.dumps(info)}\n{json.dumps(result)}\n"


def test_bench_record_summarises_result_lines():
    bench = _bench_record()
    info, first = bench.read_run(_run_output(0.5, 22.5))
    assert info["commit"] == "abc" and first["attempted"] == 10
    runs = [first] + [bench.read_run(_run_output(run_s, 23.0, failed))[1]
                      for run_s, failed in ((0.1, 0), (0.4, 1), (0.2, 0))]
    summary = bench.summarise({"gamma-scale": runs}, ["run_s", "peak_rss_mb"])
    assert summary == {"gamma-scale": {
        "attempted": 40, "failed": 1,
        # quantiles' default (exclusive) method on 0.1, 0.2, 0.4, 0.5
        "run_s": {"median": pytest.approx(0.3),
                  "quartiles": [pytest.approx(0.125), pytest.approx(0.3), pytest.approx(0.475)],
                  "values": [0.5, 0.1, 0.4, 0.2]},
        "peak_rss_mb": {"median": 23.0, "quartiles": [22.625, 23.0, 23.0],
                        "values": [22.5, 23.0, 23.0, 23.0]},
    }}
    with pytest.raises(ValueError):
        bench.read_run('{"correct": true}\n')


def test_bench_record_pairs_the_sides_and_counts_the_change_wins():
    bench = _bench_record()
    run_s = {"parent": [0.5, 0.4, 0.6, 0.5], "change": [0.4, 0.4, 0.5, 0.7]}
    calls = []

    def run(side, workload, seed):
        calls.append((seed, workload, side))
        value = run_s[side][seed]
        return _run_output(value, 23.0, work=10 / value, commit=side)

    info, results = bench.measure(run, 4, ["a", "b"])
    # every seed runs both sides back to back, the parent first on even seeds
    assert calls == [(seed, w, side) for seed in range(4) for w in "ab"
                     for side in (("parent", "change"), ("change", "parent"))[seed % 2]]
    assert {side: info[side]["commit"] for side in info} == {"parent": "parent",
                                                             "change": "change"}
    for side in run_s:
        for w in "ab":
            assert [r["metrics"]["run_s"]["value"] for r in results[side][w]] == run_s[side]
    end_to_end = [{"name": "run_s", "better": "lower"}, {"name": "work_per_s", "better": "higher"},
                  {"name": "peak_rss_mb", "better": "lower"}]
    # the change is better on seeds 0 and 2, ties on seed 1 and equal RSS
    # win nothing
    assert bench.change_wins(results["parent"], results["change"], end_to_end) == {
        w: {"run_s": 2, "work_per_s": 2, "peak_rss_mb": 0} for w in "ab"}
    with pytest.raises(bench.RunFailed, match="change a seed 1: no result line"):
        bench.measure(lambda side, w, seed: "" if seed else _run_output(0.1, 1.0), 2, ["a"])


@pytest.mark.parametrize("argv", [["--runs", "0", "--parent", "."],
                                  ["--runs", "1", "--parent", "."], ["--runs", "2"]])
def test_bench_record_usage_errors_exit_2(argv, tmp_path):
    run = subprocess.run([sys.executable, str(BENCH_RECORD), "--tag", "x", *argv],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert run.returncode == 2 and run.stdout == ""
    assert "bench_record.py: error:" in run.stderr
    assert not (BENCH_RECORD.parents[1] / "BENCH_x.json").exists()


def _git_checkout(where, commit_src):
    # a repository with a src/, committed or not
    (where / "src").mkdir(parents=True)
    (where / "src" / "x.py").write_text("")
    subprocess.run(["git", "init", "-q"], cwd=where, check=True)
    if commit_src:
        subprocess.run(["git", "add", "src"], cwd=where, check=True)
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "s"],
                       cwd=where, check=True)


def test_bench_record_refuses_src_that_differs_from_the_commit(tmp_path):
    # a copy of the tool in a fresh repository, measured against another;
    # on the side named `dirty`, src/ is not committed
    for dirty in ("change", "parent"):
        change, parent = tmp_path / dirty / "change", tmp_path / dirty / "parent"
        _git_checkout(change, dirty != "change")
        _git_checkout(parent, dirty != "parent")
        (change / "tools").mkdir()
        (change / "tools" / "bench_record.py").write_text(BENCH_RECORD.read_text())
        (change / "BENCHMARK.json").write_text(
            (BENCH_RECORD.parents[1] / "BENCHMARK.json").read_text())
        run = subprocess.run([sys.executable, str(change / "tools" / "bench_record.py"),
                              "--tag", "x", "--runs", "2", "--parent", str(parent)],
                             capture_output=True, text=True, timeout=60, cwd=tmp_path)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.startswith(f"bench_record: the {dirty}'s src/ at ")
        assert not (change / "BENCH_x.json").exists()
    assert not list(tmp_path.rglob("__pycache__"))  # nothing was compiled or run
