"""Each demo script runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import domlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    # the demos import domlab from wherever this process found it
    package_root = str(Path(domlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
