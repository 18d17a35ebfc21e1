"""tools/same_reports.py: report files compared apart from elapsed."""

import subprocess
import sys
from pathlib import Path

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
