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


def _tree(name):
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def test_kernel_coefficients_leave_through_divide_out():
    # field coefficients come back from kernel ints only via
    # poly.divide_out, so neither module needs Fraction
    for name in ("groebner.py", "sprime.py"):
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "fractions", name
            elif isinstance(node, ast.Import):
                assert "fractions" not in [a.name for a in node.names], name


def test_groebner_reads_leading_terms_only_in_spoly():
    # the kernel orders packed ints; Poly.leading serves spoly alone
    callers = []
    for top in _tree("groebner.py").body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "leading"):
                callers.append(getattr(top, "name", None))
    assert callers == ["spoly", "spoly"]
