"""Only src/domlab/properties.py knows what a property id means.

Every other module of src/domlab reads a property's meaning from its row
(`p.rule`) or compares the descriptor with a named one (`p == ANY_GRAPH`).
The sweep fails when such a module reads an `.id` attribute, compares a
`.key` with a string literal, or names `RULES`. It reads source with ast and
imports nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "domlab"
HOME = PACKAGE / "properties.py"


def _is_str(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_str, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _id_uses(tree: ast.Module):
    """(line, what) of every read of an id outside properties.py."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "id":
            yield node.lineno, "reads .id"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(x, ast.Attribute) and x.attr == "key" for x in operands)
                    and any(map(_is_str, operands))):
                yield node.lineno, "compares .key with a string"
        if ((isinstance(node, ast.Name) and node.id == "RULES")
                or (isinstance(node, ast.Attribute) and node.attr == "RULES")
                or (isinstance(node, ast.alias) and node.name == "RULES")):
            yield node.lineno, "names RULES"


def test_no_module_but_properties_branches_on_a_property_id():
    uses = [f"{path.name}:{line}: {what}"
            for path in sorted(PACKAGE.glob("*.py")) if path != HOME
            for line, what in _id_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert not uses, "\n".join(uses)


def test_the_sweep_sees_each_kind_of_use():
    source = ("from .properties import RULES\n"
              "if p.id == 'C': pass\n"
              "if p.key != 'I': pass\n"
              "if p.key in ('I', 'O'): pass\n"
              "row = properties.RULES[p]\n")
    assert sorted(_id_uses(ast.parse(source))) == [
        (1, "names RULES"), (2, "reads .id"), (3, "compares .key with a string"),
        (4, "compares .key with a string"), (5, "names RULES")]
