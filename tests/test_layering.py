"""Module boundaries: no symprime module reaches into another's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symprime"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "symprime"
        if internal:
            for alias in node.names:
                if _private(alias.name):
                    yield "%s:%d imports %s" % (path.name, node.lineno, alias.name)


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    assert [hit for path in paths for hit in _private_imports(path)] == []
