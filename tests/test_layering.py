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


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_division_reads_packed_monomials_only():
    # leading terms, order keys, divisibility and lcms are read on packed
    # ints; the tuple helpers stay public, for tests and tracing
    tuple_helpers = {"leading", "key", "mono_divides", "mono_lcm"}
    calls = ["%s:%d %s" % (path.name, node.lineno, _called_name(node))
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path.name))
             if isinstance(node, ast.Call) and _called_name(node) in tuple_helpers]
    assert calls == []
    # divisibility is one division in groebner, with no tuple twin in poly
    defined = {top.name for top in _tree("poly.py").body if isinstance(top, ast.FunctionDef)}
    assert not defined & {"poly_divides", "canonical_lead"}
