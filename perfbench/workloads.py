"""The four workloads (BENCHMARK.json names the first three), one
pass of each, and the checks of their outputs.

A pass is one closed-loop execution of a workload: its commands (or its
queries) one after another, each in a fresh process started when the
previous one has ended. A pass reports its wall time, its CPU time (user
plus system, pool workers included), the largest resident set of any of
its processes, the latency of each request, and how many units it attempted
and got wrong against the stored reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gammascale
import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# every suite except FLAG-audit, which has a workload of its own
VERIFY_SUITES = ("T1-bound,T1-necessity,COR2-iff,T3-equiv,COR4-classes,"
                 "T5-sandwich,T5-A1A2,T5-A1A3,T6-iff,T6-chain,T6-msd3,"
                 "TA-vertex,TB-edgeadd,TC-plus1-lemma,ORACLE-equiv")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify", "explore" or "gamma"
    commands: tuple = ()  # CLI argument lists of the full-size pass
    tiny_commands: tuple = ()
    corpora: tuple = ()  # what a fresh process resolves as its set-up

    def argvs(self, tiny: bool, serial: bool = False) -> list[list[str]]:
        """The pass's commands; serial=True forces --jobs 1 (traced runs)."""
        out = []
        for argv in (self.tiny_commands if tiny else self.commands):
            argv = list(argv)
            if serial and "--jobs" in argv:
                argv[argv.index("--jobs") + 1] = "1"
            out.append(argv)
        return out


def _verify(suites, properties, corpus, jobs="1"):
    return ("verify", "--suites", suites, "--properties", properties,
            "--corpus", corpus, "--jobs", jobs)


def _explore(corpus):
    return (("classify", "--property", "F", "--input", corpus),
            ("msd", "--property", "F", "--cap", "6", "--input", corpus))


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-n7c", "verify",
        commands=(_verify(VERIFY_SUITES, "I,O,F,UK,D:1", "bundled:n7c", "2"),),
        tiny_commands=(_verify(VERIFY_SUITES, "I,O,F,UK,D:1", "bundled:n5all", "2"),),
        corpora=("bundled:n7c",)),
    Workload(
        "flag-audit", "verify",
        commands=(_verify("FLAG-audit", "I,O,C,T,F,UK,D:1", "bundled:n6all"),
                  _verify("FLAG-audit", "O,C,T,F,UK,D:1", "bundled:n7c")),
        tiny_commands=(_verify("FLAG-audit", "I,O,C,T,F,UK,D:1", "bundled:n5all"),),
        corpora=("bundled:n6all", "bundled:n7c")),
    Workload("gamma-scale", "gamma"),
    Workload(
        "explore-n7c", "explore",
        commands=_explore("bundled:n7c"),
        tiny_commands=_explore("bundled:n5all"),
        corpora=("bundled:n7c",)),
)}


def reference_key(workload: Workload, index: int, tiny: bool) -> str:
    return f"{'tiny/' if tiny else ''}{workload.name}/{index}"


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / name
    return json.loads(path.read_text()) if path.is_file() else {}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def report_digest(line: dict) -> str:
    """A verify report line, apart from its elapsed time."""
    return digest({k: v for k, v in line.items() if k != "elapsed"})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Proc:
    """A finished child process with its own and its children's usage."""
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    lines: list  # stdout


def spawn(cmd: list[str], workdir: Path) -> Proc:
    """Run cmd to completion and keep its stdout lines.

    The usage comes from wait4 on the child, which includes the pool
    workers it has reaped.
    """
    with open(workdir / "stderr.txt", "a") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err, text=True)
        with proc.stdout:
            lines = proc.stdout.readlines()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss, lines)


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "domlab.cli", *argv]


@dataclass
class Checked:
    units: int
    failed: int
    latencies: list  # seconds, one per request
    notes: list = field(default_factory=list)


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_verify(texts: list[str], exit_code: int, ref: list) -> Checked:
    """Units are graph x suite x property checks; a skipped suite x property
    counts as one unit (its scope check). A wrong or missing line fails all
    of its units, a nonzero exit fails the whole command. The latency of a
    suite x property is the elapsed time its report line states."""
    units = sum(max(1, r[3]) for r in ref)
    lines = [_parse(t) for t in texts if t.strip()]
    latencies = [x["elapsed"] for x in lines
                 if isinstance(x, dict) and x.get("status") != "skip"
                 and isinstance(x.get("elapsed"), (int, float))]
    if exit_code != 0:
        return Checked(units, units, latencies, [f"exit code {exit_code}"])
    failed, notes = 0, []
    for i, r in enumerate(ref):
        got = lines[i] if i < len(lines) else None
        if not isinstance(got, dict) or report_digest(got) != r[4]:
            failed += max(1, r[3])
            notes.append(f"line {i + 1} ({r[0]} {r[1]}) differs from the reference")
    failed += max(0, len(lines) - len(ref))
    return Checked(units, min(failed, units), latencies, notes)


def group_by_graph(texts: list[str]) -> list[tuple[str, list]]:
    """Consecutive output lines of one graph: (graph6, parsed lines)."""
    groups = []
    for text in texts:
        parsed = _parse(text)
        g6 = parsed.get("graph") if isinstance(parsed, dict) else None
        if groups and groups[-1][0] == g6:
            groups[-1][1].append(parsed)
        else:
            groups.append((g6, [parsed]))
    return groups


def check_explore(texts: list[str], exit_code: int, ref: dict) -> Checked:
    """Units are output lines, compared graph by graph with the reference
    digests."""
    units = ref["lines"]
    groups = group_by_graph(texts)
    if exit_code != 0:
        return Checked(units, units, [], [f"exit code {exit_code}"])
    failed, notes = 0, []
    for i, (g6, count, want) in enumerate(ref["graphs"]):
        got = groups[i] if i < len(groups) else None
        if got is None or got[0] != g6 or digest(got[1]) != want:
            failed += max(count, len(got[1]) if got else 0)
            notes.append(f"graph {i + 1} ({g6}) differs from the reference")
    failed += sum(len(g[1]) for g in groups[len(ref["graphs"]):])
    return Checked(units, min(failed, units), [], notes)


def check_gamma(answers: list, seed: int, tiny: bool, ref: dict) -> Checked:
    """Exact match with the stored reference; a seeded query whose seed has
    no stored reference gets a witness-validity check instead."""
    size = ref["tiny" if tiny else "full"]
    stored = {False: iter(size["fixed"]), True: iter(size["seeds"].get(str(seed), []))}
    qs = gammascale.queries(seed, tiny)
    if len(answers) != len(qs):
        return Checked(len(qs), len(qs), [], ["wrong number of answers"])
    failed, notes = 0, []
    for q, answer in zip(qs, answers):
        want = next(stored[q.seeded], None)
        if want is None:
            ok = oracle.check_answer(oracle.adjacency(q.n, q.edges), q.key, answer)
        else:
            ok = answer == want
        if not ok:
            failed += 1
            notes.append(f"query {q.name}: got {answer}")
    if str(seed) not in size["seeds"]:
        notes.append(f"seed {seed} has no stored reference: its seeded queries "
                     "are checked for witness validity only")
    return Checked(len(qs), failed, [], notes)


def check_command(workload: Workload, index: int, tiny: bool, texts: list[str],
                  exit_code: int, refs: dict) -> Checked:
    """Check the output of the workload's index-th CLI command."""
    ref = refs[reference_key(workload, index, tiny)]
    if workload.kind == "explore":
        return check_explore(texts, exit_code, ref)
    return check_verify(texts, exit_code, ref["lines"])


@dataclass
class PassResult:
    run_s: float
    cpu_s: float
    maxrss_kb: int
    checked: Checked


def run_cli_pass(workload: Workload, tiny: bool, workdir: Path, refs: dict) -> PassResult:
    """The latency of an explore request is the wall time of its command."""
    run_s = cpu_s = 0.0
    maxrss = units = failed = 0
    latencies, notes = [], []
    for i, argv in enumerate(workload.argvs(tiny)):
        proc = spawn(cli_command(argv), workdir)
        c = check_command(workload, i, tiny, proc.lines, proc.exit_code, refs)
        if workload.kind == "explore":
            c.latencies = [proc.wall_s]
        run_s += proc.wall_s
        cpu_s += proc.cpu_s
        maxrss = max(maxrss, proc.maxrss_kb)
        units += c.units
        failed += c.failed
        latencies += c.latencies
        notes += c.notes
    return PassResult(run_s, cpu_s, maxrss, Checked(units, failed, latencies, notes))


def run_gamma_pass(seed: int, tiny: bool, workdir: Path, ref: dict) -> PassResult:
    cmd = [sys.executable, str(BENCH_DIR / "gammascale.py"), "--seed", str(seed)]
    proc = spawn(cmd + (["--tiny"] if tiny else []), workdir)
    out = _parse(proc.lines[-1]) if proc.lines else None
    if proc.exit_code != 0 or not isinstance(out, dict):
        n = len(gammascale.queries(seed, tiny))
        return PassResult(proc.wall_s, proc.cpu_s, proc.maxrss_kb,
                          Checked(n, n, [], [f"exit code {proc.exit_code}"]))
    c = check_gamma(out["answers"], seed, tiny, ref)
    c.latencies = out["times"]
    return PassResult(out["run_s"], out["cpu_s"], proc.maxrss_kb, c)


def run_pass(workload: Workload, seed: int, tiny: bool, workdir: Path,
             refs: dict) -> PassResult:
    if workload.kind == "gamma":
        return run_gamma_pass(seed, tiny, workdir, refs["gamma"])
    return run_cli_pass(workload, tiny, workdir, refs["cli"])


def setup_command(workload: Workload, seed: int, tiny: bool) -> list[str]:
    """A fresh process that imports domlab and resolves the corpora or
    builds the instances, and nothing else."""
    if workload.kind == "gamma":
        return [sys.executable, str(BENCH_DIR / "gammascale.py"), "--seed",
                str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    corpora = ["bundled:n5all"] if tiny else list(workload.corpora)
    code = ("import domlab\n"
            f"for spec in {corpora!r}:\n"
            "    domlab.resolve_corpus(spec)\n")
    return [sys.executable, "-c", code]


def measure_setup(workload: Workload, seed: int, tiny: bool, workdir: Path,
                  repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        proc = spawn(setup_command(workload, seed, tiny), workdir)
        if proc.exit_code != 0:
            raise RuntimeError(f"set-up process exited with {proc.exit_code}")
        times.append(proc.wall_s)
    return times
