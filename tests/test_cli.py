"""The domlab command-line surface: JSON-lines output and exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from domlab.cli import main


BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cli.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


def benchmark_reference(key):
    """The benchmark's stored digests of one command's lines, read as data
    (perfbench is not imported)."""
    return json.loads(BENCH_REFERENCE.read_text())[key]["lines"]


def report_digests(out):
    """Each verify report line as the benchmark stores it; a digest covers
    every field of the line but elapsed."""
    got = []
    for record in jsonl(out):
        del record["elapsed"]
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        got.append([record["suite"], record["property"], record["status"],
                    record["graphs_checked"],
                    hashlib.sha256(text.encode()).hexdigest()[:12]])
    return got


@pytest.fixture
def g6_file(tmp_path):
    f = tmp_path / "in.g6"
    f.write_text("Bw\nD?{\n")  # triangle, star on five vertices
    return str(f)


class TestGamma:
    def test_output_lines(self, capsys, g6_file):
        code, out, _ = run_cli(capsys, "gamma", "--property", "I",
                               "--input", f"g6:{g6_file}")
        assert code == 0
        records = jsonl(out)
        assert records == [
            {"graph": "Bw", "property": "I", "gamma": 1, "witness": [0]},
            {"graph": "D?{", "property": "I", "gamma": 1, "witness": [4]},
        ]

    def test_edges_input(self, capsys, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("0 1\n1 2\n")
        code, out, _ = run_cli(capsys, "gamma", "--property", "D:1",
                               "--input", f"edges:{f}")
        assert code == 0
        assert jsonl(out) == [
            {"graph": "Bg", "property": "D:1", "gamma": 1, "witness": [1]}
        ]

    def test_undefined_gamma_is_null(self, capsys, tmp_path):
        f = tmp_path / "two.g6"
        f.write_text("A?\n")  # two isolated vertices
        code, out, _ = run_cli(capsys, "gamma", "--property", "C",
                               "--input", f"g6:{f}")
        assert code == 0
        assert jsonl(out)[0]["gamma"] is None
        assert jsonl(out)[0]["witness"] is None

    def test_bad_property_exits_2(self, capsys, g6_file):
        code, _, err = run_cli(capsys, "gamma", "--property", "Z",
                               "--input", f"g6:{g6_file}")
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--property", "I",
                               "--input", "g6:/nonexistent.g6")
        assert code == 2 and "not found" in err

    def test_directory_exits_2_with_its_own_message(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gamma", "--property", "I",
                               "--input", f"g6:{tmp_path}")
        assert code == 2 and "Is a directory" in err and "not found" not in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text("A_\n~x\n")
        code, _, err = run_cli(capsys, "gamma", "--property", "I",
                               "--input", f"g6:{f}")
        assert code == 2 and ":2:" in err


@pytest.fixture
def bad_second_line(tmp_path):
    f = tmp_path / "mixed.g6"
    f.write_text("A_\nbad\nBw\n")  # K2, a line that is not graph6, the triangle
    return str(f)


@pytest.fixture
def bad_bundled(bad_second_line, monkeypatch):
    """The same lines as the bundled n5all, through DOMLAB_CORPUS_DIR."""
    directory = Path(bad_second_line).parent
    (directory / "n5all.g6").write_text(Path(bad_second_line).read_text())
    monkeypatch.setenv("DOMLAB_CORPUS_DIR", str(directory))
    return "bundled:n5all"


class TestSkipBad:
    """--skip-bad through main, for g6: files and bundled corpora alike: the
    bad line is named on stderr and skipped, and without the flag it stops
    the command before any output."""

    GAMMA = ("gamma", "--property", "I", "--input")
    VERIFY = ("verify", "--suites", "T1-bound", "--properties", "I", "--corpus")

    def test_gamma_skips_the_bad_line(self, capsys, bad_second_line):
        code, out, err = run_cli(capsys, *self.GAMMA, f"g6:{bad_second_line}",
                                 "--skip-bad")
        assert code == 0
        assert err.startswith(f"warning: {bad_second_line}:2: ") and err.count("\n") == 1
        assert [r["graph"] for r in jsonl(out)] == ["A_", "Bw"]

    def test_verify_skips_the_bad_line(self, capsys, bad_second_line):
        code, out, err = run_cli(capsys, *self.VERIFY, f"g6:{bad_second_line}",
                                 "--skip-bad")
        assert code == 0
        assert err.startswith(f"warning: {bad_second_line}:2: ") and err.count("\n") == 1
        assert [(r["status"], r["graphs_checked"]) for r in jsonl(out)] == [("pass", 2)]

    @pytest.mark.parametrize("command", [GAMMA, VERIFY], ids=["gamma", "verify"])
    def test_bad_line_exits_2_without_skip_bad(self, capsys, bad_second_line, command):
        code, out, err = run_cli(capsys, *command, f"g6:{bad_second_line}")
        assert code == 2 and out == ""
        assert err.startswith(f"domlab: error: {bad_second_line}:2: ")

    @pytest.mark.parametrize("command", [GAMMA, VERIFY], ids=["gamma", "verify"])
    def test_bundled_corpus_skips_the_bad_line(self, capsys, bad_bundled, command):
        code, out, err = run_cli(capsys, *command, bad_bundled, "--skip-bad")
        assert code == 0
        assert err.startswith("warning: bundled:n5all:2: ") and err.count("\n") == 1
        records = jsonl(out)
        if command is self.GAMMA:
            assert [r["graph"] for r in records] == ["A_", "Bw"]
        else:
            assert [(r["status"], r["graphs_checked"]) for r in records] == [("pass", 2)]

    @pytest.mark.parametrize("command", [GAMMA, VERIFY], ids=["gamma", "verify"])
    def test_bundled_bad_line_exits_2_without_skip_bad(self, capsys, bad_bundled, command):
        code, out, err = run_cli(capsys, *command, bad_bundled)
        assert code == 2 and out == ""
        assert err.startswith("domlab: error: bundled:n5all:2: ")


class TestClassify:
    def test_star_edges(self, capsys, tmp_path):
        f = tmp_path / "star.g6"
        f.write_text("D?{\n")
        code, out, _ = run_cli(capsys, "classify", "--property", "F",
                               "--input", f"g6:{f}")
        assert code == 0
        records = jsonl(out)
        assert len(records) == 4
        for r in records:
            assert r["gammas"] == {"base": 1, "subdivided": 2, "deleted": 2}
            assert r["flags"]["s_plus"] is True
            assert r["conditions"]  # one entry per minimum set


class TestMsd:
    def test_profile_lines(self, capsys, tmp_path):
        f = tmp_path / "p3.g6"
        f.write_text("Bg\n")
        code, out, _ = run_cli(capsys, "msd", "--property", "I",
                               "--input", f"g6:{f}", "--cap", "3")
        assert code == 0
        records = jsonl(out)
        per_edge = [r for r in records if r["edge"] is not None]
        graph_level = [r for r in records if r["edge"] is None]
        assert all(r["values"] == [1, 2, 2, 2] for r in per_edge)
        assert all(r["msd"] == 1 and r["msd_minus"] == "proven-infinite"
                   for r in per_edge)
        assert graph_level[0]["msd"] == 1

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("corpus", ["edgeless", "bundled:paths14"])
    def test_cap_below_one_exit_2(self, capsys, tmp_path, corpus, cap):
        if corpus == "edgeless":  # no edge: no profile would ever see the cap
            f = tmp_path / "edgeless.g6"
            f.write_text("@\nA?\nB?\n")
            corpus = f"g6:{f}"
        code, out, err = run_cli(capsys, "msd", "--property", "I",
                                 "--input", corpus, "--cap", cap)
        assert code == 2 and out == ""
        assert f"cap must be >= 1, got {cap}" in err


class TestSClass:
    def test_classes(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("Bw\nCl\n")  # C3 and C4
        code, out, _ = run_cli(capsys, "sclass", "--property", "O",
                               "--input", f"g6:{f}")
        assert code == 0
        assert [r["class"] for r in jsonl(out)] == [1, 3]

    def test_edgeless_graphs_get_null_class(self, capsys):
        from domlab import parse_graph6

        code, out, _ = run_cli(capsys, "sclass", "--property", "I",
                               "--input", "bundled:n5all")
        assert code == 0
        records = jsonl(out)
        assert len(records) == 52
        for r in records:
            has_edges = bool(parse_graph6(r["graph"]).edges())
            assert (r["class"] is None) == (not has_edges)
            assert r["class"] is None or 1 <= r["class"] <= 3

    def test_refuses_uk(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("Bw\n")
        code, _, err = run_cli(capsys, "sclass", "--property", "UK",
                               "--input", f"g6:{f}")
        assert code == 2 and "hereditary" in err


class TestVerify:
    def test_pass_run_exit_0(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("A_\nBw\nBg\n")
        code, out, _ = run_cli(
            capsys, "verify", "--suites", "T3-equiv,T5-sandwich",
            "--properties", "I,UK", "--corpus", f"g6:{f}")
        assert code == 0
        records = jsonl(out)
        assert [r["status"] for r in records] == ["pass"] * 4

    def test_skip_still_exit_0(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("A_\n")
        code, out, _ = run_cli(capsys, "verify", "--suites", "T1-bound",
                               "--properties", "C", "--corpus", f"g6:{f}")
        assert code == 0
        assert jsonl(out)[0]["status"] == "skip"
        assert jsonl(out)[0]["reason"]

    def test_violation_exit_1(self, capsys, tmp_path, monkeypatch):
        from domlab import verifier

        def boom(g, p, opt, e):
            yield {"detail": "boom"}

        probe = verifier._Suite("test-statement", lambda p: None, boom)
        monkeypatch.setitem(verifier.SUITES, "TEST-fail", probe)
        f = tmp_path / "c.g6"
        f.write_text("A_\n")
        code, out, _ = run_cli(capsys, "verify", "--suites", "TEST-fail",
                               "--properties", "I", "--corpus", f"g6:{f}")
        assert code == 1
        assert jsonl(out)[0]["status"] == "fail"

    def test_unknown_suite_exit_2(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text("A_\n")
        code, _, err = run_cli(capsys, "verify", "--suites", "T9-none",
                               "--properties", "I", "--corpus", f"g6:{f}")
        assert code == 2 and "unknown suite" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "--suites", "T1-bound",
                                 "--properties", "I", "--corpus", "bundled:paths14",
                                 "--jobs", jobs)
        assert code == 2 and out == ""
        assert "jobs must be at least 1" in err

    @pytest.mark.parametrize("suites, properties", [("T1-bound", ","), (",", "I"),
                                                    ("", "I")])
    def test_empty_selection_exit_2(self, capsys, suites, properties):
        code, out, err = run_cli(capsys, "verify", "--suites", suites,
                                 "--properties", properties,
                                 "--corpus", "bundled:paths14")
        assert code == 2 and out == ""
        assert "empty selection" in err

    def test_out_file_and_bundled_corpus(self, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--suites", "COR4-classes", "--properties", "O",
            "--corpus", "bundled:paths14", "--out", str(report))
        assert code == 0 and out == ""
        assert jsonl(report.read_text())[0]["graphs_checked"] == 13

    def test_flag_audit_passes_on_n7c_for_every_catalog_property(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suites", "FLAG-audit",
                               "--properties", "I,O,C,T,F,UK,D:1",
                               "--corpus", "bundled:n7c")
        assert code == 0
        records = jsonl(out)
        assert [r["property"] for r in records] == ["I", "O", "C", "T", "F", "UK", "D:1"]
        assert all(r["status"] == "pass" and r["graphs_checked"] == 995
                   for r in records)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_flag_audit_report_matches_benchmark_reference(self, capsys, jobs):
        reference = benchmark_reference("tiny/flag-audit/0")
        code, out, _ = run_cli(capsys, "verify", "--suites", "FLAG-audit",
                               "--properties", "I,O,C,T,F,UK,D:1",
                               "--corpus", "bundled:n5all", "--jobs", jobs)
        assert code == 0
        assert report_digests(out) == reference

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verify_report_matches_benchmark_reference(self, capsys, jobs):
        # the small verify-n7c command: every per-graph suite x I,O,F,UK,D:1
        # on n5all, suites and properties in the reference's order
        reference = benchmark_reference("tiny/verify-n7c/0")
        suites = ",".join(dict.fromkeys(line[0] for line in reference))
        properties = ",".join(dict.fromkeys(line[1] for line in reference))
        code, out, _ = run_cli(capsys, "verify", "--suites", suites,
                               "--properties", properties,
                               "--corpus", "bundled:n5all", "--jobs", jobs)
        assert code == 0
        assert report_digests(out) == reference


class TestScan:
    def test_in_s1_cycles(self, capsys):
        from domlab import cycle, to_graph6

        code, out, _ = run_cli(capsys, "scan", "--assertion", "in-S1",
                               "--property", "I", "--corpus", "bundled:cycles14")
        assert code == 0
        expected = [to_graph6(cycle(n)) for n in (3, 6, 9, 12)]
        assert [r["graph6"] for r in jsonl(out)] == expected

    @pytest.mark.parametrize("key", ["I", "O"])
    def test_jobs_prints_the_serial_lines(self, capsys, key):
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(capsys, "scan", "--assertion", "er-minus-exists",
                                   "--property", key, "--corpus", "bundled:n6all",
                                   "--jobs", jobs)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        # deleting an edge never lowers gamma for I; for O it does on 4 graphs
        assert len(jsonl(outputs[0])) == {"I": 0, "O": 4}[key]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run_cli(capsys, "scan", "--assertion", "in-S1",
                                 "--property", "I", "--corpus", "bundled:paths14",
                                 "--jobs", jobs)
        assert code == 2 and out == ""
        assert "jobs must be at least 1" in err

    def test_unknown_assertion_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--assertion", "in-S9",
                               "--property", "I", "--corpus", "bundled:paths14")
        assert code == 2 and "unknown assertion" in err


class TestOutFile:
    @pytest.mark.parametrize("argv", [
        ["msd", "--property", "I", "--cap", "0", "--input", "bundled:paths14"],
        ["verify", "--suites", "T9", "--properties", "I", "--corpus", "bundled:paths14"],
        ["verify", "--suites", "T1-bound", "--properties", "I",
         "--corpus", "bundled:paths14", "--jobs", "0"],
    ], ids=["msd-cap-0", "verify-unknown-suite", "verify-jobs-0"])
    def test_rejected_command_keeps_the_file(self, capsys, tmp_path, argv):
        report = tmp_path / "report.jsonl"
        report.write_text("an earlier report\n")
        code, out, err = run_cli(capsys, *argv, "--out", str(report))
        assert code == 2 and out == "" and "error" in err
        assert report.read_text() == "an earlier report\n"

    def test_successful_command_replaces_the_file(self, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        report.write_text("an earlier report\n")
        code, out, _ = run_cli(capsys, "sclass", "--property", "I",
                               "--input", "bundled:paths14", "--out", str(report))
        assert code == 0 and out == ""
        assert [r["property"] for r in jsonl(report.read_text())] == ["I"] * 13

    def test_successful_command_without_lines_empties_the_file(self, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        report.write_text("an earlier report\n")
        code, _, _ = run_cli(capsys, "scan", "--assertion", "msd-above-3",
                             "--property", "I", "--corpus", "bundled:paths14",
                             "--out", str(report))
        assert code == 0 and report.read_text() == ""
