"""Build the stored references in perfbench/reference/.

    python3 perfbench/make_reference.py cli          # verify + explore lines
    python3 perfbench/make_reference.py gamma 0-99   # gamma-scale, seeds 0..99

cli: runs every verify and explore command of the full and tiny passes
once. Verify output must exit 0 with every suite passing or skipping; each
report line is stored as a digest of everything but its elapsed time.
Every explore line is compared with the line oracle.ExploreOracle builds
from gamma_oracle before its graph's digest is stored.

gamma: the path/cycle queries get their closed-form value (cross-checked by
exhaustive search up to 20 vertices) and their least witness of that size;
the random queries of each seed are solved by exhaustive search. domlab's
solver is not used.

Existing entries are kept unless rebuilt. This is slow (minutes) and only
needs to run when a workload's inputs change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gammascale
import oracle
import workloads as wl


def _store(name: str, merge) -> None:
    """Apply merge(data) to the stored reference file and write it back."""
    path = wl.REFERENCE_DIR / name
    data = wl.load_reference(name)
    merge(data)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def build_cli(workdir: Path) -> None:
    sys.path.insert(0, str(wl.SRC))
    import domlab

    refs = {}
    for w in wl.WORKLOADS.values():
        if w.kind == "gamma":
            continue
        for tiny in (True, False):
            for i, argv in enumerate(w.argvs(tiny)):
                proc = wl.spawn(wl.cli_command(argv), workdir)
                if proc.exit_code != 0:
                    raise SystemExit(f"{argv}: exit code {proc.exit_code}")
                lines = [json.loads(t) for t in proc.lines]
                key = wl.reference_key(w, i, tiny)
                if w.kind == "verify":
                    bad = [x for x in lines if x["status"] not in ("pass", "skip")]
                    if bad:
                        raise SystemExit(f"{key}: suites did not pass: {bad}")
                    refs[key] = {"lines": [
                        [x["suite"], x["property"], x["status"], x["graphs_checked"],
                         wl.report_digest(x)] for x in lines]}
                else:
                    refs[key] = _explore_reference(domlab, argv, proc.lines, key)
                print(f"{key}: {len(lines)} lines checked", file=sys.stderr)
    _store("cli.json", lambda data: data.update(refs))


def _explore_reference(domlab, argv, lines, key) -> dict:
    command, prop = argv[0], argv[argv.index("--property") + 1]
    explorer = oracle.ExploreOracle(domlab, prop)
    graphs = []
    for g6, parsed in wl.group_by_graph(lines):
        if command == "classify":
            want = explorer.expected_classify(g6)
        else:
            want = explorer.expected_msd(g6, int(argv[argv.index("--cap") + 1]))
        if parsed != want:
            raise SystemExit(f"{key}: graph {g6} differs from gamma_oracle:\n"
                             f"{parsed}\n{want}")
        graphs.append([g6, len(parsed), wl.digest(parsed)])
    return {"lines": len(lines), "graphs": graphs}


def _solve(qs) -> list:
    """Answers in query order, one exhaustive search per graph."""
    answers, solved = [], {}
    for q in qs:
        if q.family:
            adj = oracle.adjacency(q.n, q.edges)
            value = oracle.closed_form(q.family, q.n, q.key)
            if q.n <= 20 and oracle.brute_force(adj, [q.key])[q.key][0] != value:
                raise SystemExit(f"{q.name}: closed form disagrees")
            answers.append([value, oracle.least_at(adj, q.key, value)])
            continue
        if q.edges not in solved:
            solved[q.edges] = oracle.brute_force(oracle.adjacency(q.n, q.edges),
                                                 gammascale.PROPERTY_KEYS)
        answers.append(solved[q.edges][q.key])
    return answers


def build_gamma(seeds: list[int]) -> None:
    update = {}
    for tiny in (True, False):
        size = "tiny" if tiny else "full"
        fixed = _solve([q for q in gammascale.queries(0, tiny) if not q.seeded])
        per_seed = {}
        for seed in seeds:
            per_seed[str(seed)] = _solve(
                [q for q in gammascale.queries(seed, tiny) if q.seeded])
        print(f"gamma-scale {size}: seeds {seeds[0]}-{seeds[-1]} done",
              file=sys.stderr, flush=True)
        update[size] = (fixed, per_seed)

    def merge(data):
        for size, (fixed, per_seed) in update.items():
            entry = data.setdefault(size, {"seeds": {}})
            entry["fixed"] = fixed
            entry["seeds"].update(per_seed)

    _store("gamma_scale.json", merge)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] not in ("cli", "gamma"):
        print(__doc__, file=sys.stderr)
        return 2
    if args[0] == "cli":
        with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
            build_cli(Path(tmp))
    else:
        lo, _, hi = (args[1] if len(args) > 1 else "0-9").partition("-")
        build_gamma(list(range(int(lo), int(hi or lo) + 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
