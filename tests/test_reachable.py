"""Every function and class in src/domlab is reached from outside the tests.

A definition counts as reached when its name appears in src/, demos/,
tools/ or perfbench/ as a name, an attribute or a string constant (the
benchmark's tracer names the functions it wraps as strings).
src/domlab/__init__.py does not count, since a re-export is not a caller,
and neither does tests/: code that only tests call has no place in src/.
The sweep reads source with ast and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "domlab"
CALLER_DIRS = ("src", "demos", "tools", "perfbench")


def _definitions(tree: ast.Module):
    """(qualified name, name) of every def and class, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child.name
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _referenced_names() -> set[str]:
    names = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    unreached = [
        f"{path.stem}:{qualname}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced
    ]
    assert not unreached, "only tests reach: " + ", ".join(unreached)
