"""Module boundaries: no symprime module reaches into another's private
names, the library keeps only what it runs, and the benchmark's tracer
binds only names that exist."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symprime"


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
    # ints; `leading` and `key` stay only for perfbench's call counters,
    # and the tuple references live in tests/reference.py
    tuple_helpers = {"leading", "key", "mono_divides", "mono_lcm"}
    calls = ["%s:%d %s" % (path.name, node.lineno, _called_name(node))
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path.name))
             if isinstance(node, ast.Call) and _called_name(node) in tuple_helpers]
    assert calls == []
    # divisibility is one division in groebner, with no tuple twin in poly
    defined = {top.name for top in _tree("poly.py").body if isinstance(top, ast.FunctionDef)}
    assert not defined & {"poly_divides", "canonical_lead"}


# Module-level names that no library code calls, kept for the tests.
TEST_FACING = {
    "placement_jets": "the jet walk of `member`, one placement at a time, for the kernel tests",
    "box_candidates": "every shape of a box, the unpruned reference for the degeneration search",
    "prune_translate_multiples": "normalizes a generating set to compare with a published one",
    "derivative_member": "an independent derivative oracle for contraction membership",
    "predicted_contained": "the easy direction of the contraction check on its own",
}


def _named(node):
    """Every identifier a syntax tree reads or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_module_level_definition_has_a_caller():
    # a definition counts as used when another top-level statement of the
    # library names it, not only its own body
    defined, named = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in _tree(path.name).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, top.name))
            named.append(((path.name, getattr(top, "name", None)), set(_named(top))))
    exported = set(_named(_tree("__init__.py")))
    callerless = sorted(
        name for home, name in defined
        if name not in exported
        and not any(name in names for where, names in named if where != (home, name)))
    assert callerless == sorted(TEST_FACING)


def _tracer_names():
    """The name tables of perfbench/tracing.py, by assigned name, and the
    (module, attribute) pairs it reads as `mods["module"].attribute`."""
    path = ROOT / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    tables = {top.targets[0].id: ast.literal_eval(top.value) for top in tree.body
              if isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name)
              and top.targets[0].id in ("COUNTED_METHODS", "PRIVATE_SPANS")}
    reads = {(node.value.slice.value, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
             and getattr(node.value.value, "id", None) == "mods"}
    return tables, reads


def test_the_tracer_binds_only_names_that_exist():
    # a deletion in the library must not break traced benchmark runs
    tables, reads = _tracer_names()

    def module(short):
        return importlib.import_module("symprime." + short)
    assert tables["COUNTED_METHODS"] and tables["PRIVATE_SPANS"]
    for short, cls, meth, _metric in tables["COUNTED_METHODS"]:
        assert callable(getattr(getattr(module(short), cls), meth)), (short, cls, meth)
    for short, name in tables["PRIVATE_SPANS"]:
        assert getattr(module(short), name).__module__ == "symprime." + short, (short, name)
    assert ("sprime", "_saturated") in reads
    for short, name in reads:
        assert hasattr(module(short), name), (short, name)
    assert callable(module("sprime")._saturated.cache_info)
