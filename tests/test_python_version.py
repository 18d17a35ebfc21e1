"""The Python version pyproject.toml declares is the oldest that parses the code."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tools", "demos", "tests")
                 for path in (ROOT / folder).rglob("*.py"))


def declared_minimum():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_declared_version(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_minimum())
