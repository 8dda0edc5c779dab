"""Command-line surface: reports, determinism, exit codes."""

import json

import pytest

from symprime.cli import _load_prime, _prime_of_text, main
from symprime.combinat import WeightedShape
from symprime.poly import InputError


@pytest.fixture()
def problem_files(tmp_path):
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"lambda": ["inf", "inf"], "e": [1, 1],
                                "Z": ["t1+t2"]}))
    origin2 = tmp_path / "origin2.json"
    origin2.write_text(json.dumps({"lambda": ["inf"], "e": [2], "Z": ["t1"]}))
    origin3 = tmp_path / "origin3.json"
    origin3.write_text(json.dumps({"lambda": ["inf"], "e": [3], "Z": ["t1"]}))
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"lambda": ["inf", "inf"], "e": [2, 2],
                                  "Z": ["t1^2+t2^2-1"]}))
    # no locus, and no good pair with a one-part target of weight above 1
    free1 = tmp_path / "free1.json"
    free1.write_text(json.dumps({"lambda": ["inf"], "e": [1], "Z": []}))
    return {"line": str(line), "origin2": str(origin2), "origin3": str(origin3),
            "circle": str(circle), "free1": str(free1)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_contain_command(problem_files, capsys):
    code, report = run(capsys, "contain", problem_files["line"], problem_files["origin2"])
    assert code == 0
    assert report["contains"] is True and report["separator"] is None
    assert report["version"] and report["budgets"]["max_degree"] == 120
    code, report = run(capsys, "contain", problem_files["line"], problem_files["origin3"])
    assert code == 0 and report["contains"] is False
    assert report["separator"] is not None


def test_psi0_command(capsys):
    code, report = run(capsys, "psi0", "--lambda", "inf,inf", "--e", "2,2")
    assert code == 0
    assert {json.dumps(s, sort_keys=True) for s in report["psi0"]} == {
        json.dumps({"lambda": ["inf"], "e": [5]}, sort_keys=True),
        json.dumps({"lambda": ["inf", 1], "e": [3, 1]}, sort_keys=True),
        json.dumps({"lambda": ["inf", 1, 1], "e": [1, 1, 1]}, sort_keys=True)}


def test_member_command(problem_files, capsys):
    code, report = run(capsys, "member", problem_files["origin2"], "--poly", "x1^2")
    assert code == 0 and report["member"] is True
    code, report = run(capsys, "member", problem_files["origin2"], "--poly", "x1")
    assert code == 0 and report["member"] is False


def test_member_stdin(problem_files, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("x1^2 + x2^2"))
    code, report = run(capsys, "member", problem_files["origin2"], "--poly", "-")
    assert code == 0 and report["member"] is True


def test_theta_command(problem_files, capsys):
    code, report = run(capsys, "theta", problem_files["circle"],
                       "--lambda", "inf", "--e", "3")
    assert code == 0
    assert report["theta"] == ["t1^2 - 1/2"]
    assert len(report["components"]) == 1
    assert report["components"][0]["E"] == [1, 2]


def test_gens_command(problem_files, capsys):
    code, report = run(capsys, "gens", problem_files["origin2"])
    assert code == 0
    assert "x1^2" in report["generators"]


def test_witness_command(problem_files, capsys):
    code, report = run(capsys, "witness", problem_files["line"],
                       "--lambda", "inf", "--e", "3")
    assert code == 0
    assert report["layout"]["m"] == 3
    assert report["witness"].startswith("x1^2*x2")
    # good pairs exist but no point given -> input error
    code = main(["witness", problem_files["circle"], "--lambda", "inf", "--e", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: a rational target point")
    code, report = run(capsys, "witness", problem_files["circle"],
                       "--lambda", "inf", "--e", "3", "--point", "1")
    assert code == 0 and "x1^2" in report["witness"]


def test_witness_command_builds_its_layout_once(problem_files, capsys, monkeypatch):
    # the report reads back the layout the witness was built in
    from symprime.witness import WitnessLayout
    built = []
    real = WitnessLayout.build.__func__

    def build(cls, source, target):
        built.append((source, target))
        return real(cls, source, target)
    monkeypatch.setattr(WitnessLayout, "build", classmethod(build))
    code, report = run(capsys, "witness", problem_files["line"],
                       "--lambda", "inf", "--e", "3")
    assert code == 0 and report["layout"]["m"] == 3
    assert len(built) == 1


def test_contract_verify_command(capsys):
    code, report = run(capsys, "contract-verify", "-n", "2", "-q", "2,2", "--char", "0")
    assert code == 0 and report["verified"] is True
    assert report["basis"] == ["x1^3 - 3*x1^2*x2 + 3*x1*x2^2 - x2^3"]
    code, report = run(capsys, "contract-verify", "-n", "2", "-q", "2,2", "--char", "2")
    assert code == 0 and report["basis"] == ["x1^2 + x2^2"]


def test_radical_command(problem_files, capsys, tmp_path):
    origin1 = tmp_path / "origin1.json"
    origin1.write_text(json.dumps({"lambda": ["inf"], "e": [1], "Z": ["t1"]}))
    code, report = run(capsys, "radical", problem_files["origin2"], str(origin1))
    assert code == 0
    assert report["includes_zero"] is False
    assert len(report["primes"]) == 1 and report["primes"][0]["e"] == [2]
    code, report = run(capsys, "radical", "--zero", problem_files["origin2"])
    assert code == 0 and report["includes_zero"] is True and report["primes"] == []


def test_spectrum_slice_command(problem_files, capsys):
    code, report = run(capsys, "spectrum-slice", problem_files["circle"],
                       "--target", "inf;3", "--target", "inf,inf;2,2")
    assert code == 0
    assert report["slices"]["(inf);(3)"] == ["t1^2 - 1/2"]
    assert report["slices"]["(inf,inf);(2,2)"] == ["t1^2 + t2^2 - 1"]


def test_deterministic_output(problem_files, capsys):
    _, first = run(capsys, "contain", problem_files["line"], problem_files["origin2"])
    code = main(["contain", problem_files["line"], problem_files["origin2"]])
    second = capsys.readouterr().out
    assert json.loads(second) == first
    # byte-level determinism
    main(["psi0", "--lambda", "inf", "--e", "2"])
    a = capsys.readouterr().out
    main(["psi0", "--lambda", "inf", "--e", "2"])
    b = capsys.readouterr().out
    assert a == b


def test_input_error_exit_code(problem_files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["contain", str(bad), problem_files["origin2"]]) == 2
    assert main(["member", problem_files["origin2"], "--poly", "2x1"]) == 2
    capsys.readouterr()
    # valid JSON of the wrong structure is an input error too, not a traceback
    for i, obj in enumerate([[1, 2], {"lambda": 5, "e": [1]},
                             {"lambda": ["inf"], "e": [1], "Z": [5]}]):
        path = tmp_path / ("wrong%d.json" % i)
        path.write_text(json.dumps(obj))
        assert main(["contain", str(path), problem_files["origin2"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load prime data from %s: " % path)


@pytest.mark.parametrize("obj", [
    {"lambda": ["inf", 1.9], "e": [2.7, True]},
    {"lambda": ["inf", 1], "e": [2, True]},
    {"lambda": ["inf", 1.0], "e": [2, 1]},
    {"lambda": [True], "e": [2]},
    {"lambda": ["inf"], "e": [2.0]},
    {"lambda": ["inf"], "e": ["2"]},
])
def test_problem_files_reject_non_integer_numbers(obj, capsys, tmp_path):
    # int() would truncate 1.9 to 1 and read true as 1
    path = tmp_path / "float.json"
    path.write_text(json.dumps(obj))
    assert main(["gens", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert 'lambda and e entries must be integers or "inf", got ' in captured.err
    with pytest.raises(InputError):
        WeightedShape.from_json_obj(obj)


def test_failed_verification_exit_code(capsys, monkeypatch):
    import symprime.cli
    real = symprime.cli.verify_contract
    monkeypatch.setattr(symprime.cli, "verify_contract",
                        lambda n, q, char, budget: (False, real(n, q, char, budget)[1]))
    code, report = run(capsys, "contract-verify", "-n", "2", "-q", "2,2")
    assert code == 1 and report["verified"] is False


INPUT_ERRORS = [
    (["psi0", "--lambda", "inf,x", "--e", "1"], "invalid literal for int() with base 10: 'x'"),
    (["psi0", "--lambda", "3", "--e", "1"], "at least one part must be infinite"),
    (["psi0", "--lambda", "inf,2", "--e", "1"], "parts and weights must have equal length"),
    (["psi0", "--lambda", "inf", "--e", "0"], "weights must be positive integers"),
    (["member", "{origin2}", "--poly", "t1+x1"],
     "membership is defined for polynomials in x-variables"),
    (["witness", "{circle}", "--lambda", "inf,inf", "--e", "1,1", "--point", "abc"],
     "Invalid literal for Fraction: 'abc'"),
    (["witness", "{circle}", "--lambda", "inf,inf", "--e", "1,1", "--point", "1"],
     "point has 1 coordinates, target has 2 parts"),
    (["witness", "{circle}", "--lambda", "inf,inf", "--e", "1,1", "--point", "1,1"],
     "target point must have pairwise distinct coordinates"),
    (["witness", "{circle}", "--lambda", "inf,inf", "--e", "1,1", "--point", "1/0"],
     "point coordinates need nonzero denominators"),
    (["witness", "{free1}", "--lambda", "inf", "--e", "3", "--point", "abc"],
     "Invalid literal for Fraction: 'abc'"),
    (["witness", "{free1}", "--lambda", "inf", "--e", "3", "--point", "1,2,3"],
     "point has 3 coordinates, target has 1 parts"),
    (["contract-verify", "-n", "0", "-q", "2"], "window size must be at least 1"),
    (["contract-verify", "-n", "2", "-q", "2,x"], "invalid literal for int() with base 10: 'x'"),
    (["contract-verify", "-n", "2", "-q", "2,3", "--char", "2"],
     "positive characteristic requires uniform orders"),
    (["contract-verify", "-n", "2", "-q", "2,2", "--char", "4"],
     "order must be a power of the characteristic"),
    (["contract-verify", "-n", "1", "-q", "2", "--char", "1"],
     "characteristic must be prime, got 1"),
    (["spectrum-slice", "{circle}", "--target", "inf;x"],
     "invalid literal for int() with base 10: 'x'"),
    (["theta", "{circle}", "--lambda", "inf", "--e", "1,2"],
     "parts and weights must have equal length"),
]


@pytest.mark.parametrize("argv, message", INPUT_ERRORS,
                         ids=[" ".join(argv) for argv, _ in INPUT_ERRORS])
def test_input_errors_exit_2(problem_files, capsys, argv, message):
    assert main([arg.format(**problem_files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("poly, message", [
    ("x1^\u00b2", "syntax error at position 3: unexpected character '\u00b2'"),
    ("1" * 5000 + "*x1",
     "syntax error at position 0: integer literal of 5000 digits is too long")],
    ids=["superscript exponent", "5000-digit literal"])
def test_digit_runs_int_refuses_exit_2(problem_files, capsys, poly, message):
    assert main(["member", problem_files["origin2"], "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_problem_file_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, here
    big = tmp_path / "big.json"
    big.write_text('{"lambda": ["inf"], "e": [%s], "Z": []}' % ("1" * 5000))
    assert main(["gens", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load prime data from %s: " % big)
    assert "digits" in captured.err


def test_internal_error_exit_code(capsys, monkeypatch):
    import symprime.cli

    def fail(base):
        raise ValueError("monomial uses variables outside the order: [('z', 1)]")

    monkeypatch.setattr(symprime.cli, "psi0", fail)
    assert main(["psi0", "--lambda", "inf", "--e", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: ValueError: monomial uses variables "
                            "outside the order: [('z', 1)]\n")


@pytest.mark.parametrize("exc", [KeyError("x1"), RuntimeError("lost a pair")], ids=repr)
def test_any_library_fault_exits_4(problem_files, capsys, monkeypatch, exc):
    import symprime.cli

    def fail(p, budget):
        raise exc

    monkeypatch.setattr(symprime.cli, "full_gens", fail)
    assert main(["gens", problem_files["origin2"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: %s: %s\n" % (type(exc).__name__, exc)


def test_kernel_fault_while_loading_a_prime_exits_4(problem_files, capsys, monkeypatch):
    # only a malformed file is an input error; a fault in the saturation
    # that make_sprime runs is the library's.  An earlier test may have
    # loaded the same file text, so empty the load memo for make_sprime to run
    from symprime import sprime
    _prime_of_text.cache_clear()

    def fail(I, budget=None):
        raise ValueError("monomial uses variables outside the order: [('z', 1)]")

    monkeypatch.setattr(sprime, "is_unit_ideal", fail)
    assert main(["gens", problem_files["origin2"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ValueError: monomial uses")
    assert captured.err.count("\n") == 1


def test_rewritten_problem_file_is_loaded_again(problem_files, capsys):
    code, report = run(capsys, "contain", problem_files["line"], problem_files["origin2"])
    assert code == 0 and report["contains"] is True
    with open(problem_files["origin3"]) as fh:
        text = fh.read()
    with open(problem_files["origin2"], "w") as fh:
        fh.write(text)
    code, report = run(capsys, "contain", problem_files["line"], problem_files["origin2"])
    assert code == 0 and report["contains"] is False


def test_equal_problem_texts_share_one_loaded_prime(problem_files, tmp_path):
    copy = tmp_path / "copy.json"
    with open(problem_files["circle"]) as fh:
        copy.write_text(fh.read())
    assert _load_prime(str(copy)) is _load_prime(problem_files["circle"])


def test_malformed_file_exits_2_on_every_load(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda": ["inf"], "e": [2], "Z": ["t1+"]}))
    for _ in range(2):
        assert main(["gens", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load prime data from %s: " % bad)


def test_parser_is_built_once(problem_files, capsys, monkeypatch):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["psi0", "--lambda", "inf", "--e", "1"]) == 0
    assert main(["gens", problem_files["origin2"]]) == 0
    capsys.readouterr()
    assert built == []


def test_shared_parser_keeps_no_state(problem_files, capsys):
    _, report = run(capsys, "radical", "--zero", problem_files["origin2"])
    assert report["includes_zero"] is True
    _, report = run(capsys, "radical", problem_files["origin2"])
    assert report["includes_zero"] is False and len(report["primes"]) == 1
    _, report = run(capsys, "spectrum-slice", problem_files["circle"],
                    "--target", "inf;3", "--target", "inf,inf;2,2")
    assert len(report["slices"]) == 2
    _, report = run(capsys, "spectrum-slice", problem_files["circle"], "--target", "inf;3")
    assert list(report["slices"]) == ["(inf);(3)"]


def test_budget_exit_code(capsys):
    code = main(["contract-verify", "-n", "2", "-q", "2,2", "--max-degree", "2"])
    assert code == 3
    capsys.readouterr()


BUDGET_COMMANDS = [
    ["contain", "{line}", "{origin2}"],
    ["theta", "{circle}", "--lambda", "inf", "--e", "3"],
    ["member", "{origin2}", "--poly", "x1^2"],
    ["gens", "{origin2}"],
    ["psi0", "--lambda", "inf,inf", "--e", "2,2"],
    ["witness", "{line}", "--lambda", "inf", "--e", "3"],
    ["contract-verify", "-n", "2", "-q", "2,2"],
    ["radical", "{origin2}"],
    ["spectrum-slice", "{circle}", "--target", "inf;3"],
]


@pytest.mark.parametrize("flag", ["--max-reductions", "--max-degree"])
@pytest.mark.parametrize("argv", BUDGET_COMMANDS, ids=lambda argv: argv[0])
def test_negative_budgets_exit_2_before_the_command_runs(problem_files, capsys, monkeypatch,
                                                         argv, flag):
    argv = [arg.format(**problem_files) for arg in argv]
    loads = []
    monkeypatch.setattr("symprime.cli._load_prime", lambda path: loads.append(path))
    assert main(argv + [flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s must be nonnegative, got -1\n" % flag
    assert loads == []
    # a budget of 0 is a budget: the command runs under it
    monkeypatch.undo()
    assert main(argv + [flag, "0"]) in (0, 3)
    assert not capsys.readouterr().err.startswith("error:")


def test_witness_respects_budget(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"lambda": ["inf", "inf"], "e": [2, 1],
                                "Z": ["t1+t2-1"]}))
    argv = ["witness", str(path), "--lambda", "inf", "--e", "3", "--point", "2"]
    assert main(argv) == 0
    assert main(argv + ["--max-reductions", "4"]) == 3
    assert "trace space" in capsys.readouterr().err


def test_max_degree_bounds_built_witnesses(problem_files, capsys, tmp_path):
    # unbounded, the circle's generators reach degree 9 and this witness
    # has degree 11
    assert main(["gens", problem_files["circle"], "--max-degree", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget exhausted: witness degree" in captured.err
    path = tmp_path / "line21.json"
    path.write_text(json.dumps({"lambda": ["inf", "inf"], "e": [2, 1],
                                "Z": ["t1+t2-1"]}))
    argv = ["witness", str(path), "--lambda", "inf", "--e", "3", "--point", "2"]
    assert main(argv + ["--max-degree", "11"]) == 0
    capsys.readouterr()
    assert main(argv + ["--max-degree", "10"]) == 3
    assert "budget exhausted: witness degree 11 exceeds budget" in capsys.readouterr().err


def test_witness_degree_budget_fires_before_expanding(capsys, tmp_path, monkeypatch):
    # h1*h2 has degree 4 + 5*16 = 84; h2 alone would expand to a huge
    # polynomial, so the budget must be checked before any product is built;
    # a window of 4000 indices has 6 million differences, so it must be
    # checked before they are listed as well
    import symprime.witness as witness

    def unbuilt(*args):
        raise AssertionError("a difference or a product was built")
    monkeypatch.setattr(witness, "product", unbuilt)
    monkeypatch.setattr(witness, "xvar", unbuilt)
    path = tmp_path / "fin31.json"
    path.write_text(json.dumps({"lambda": ["inf", 1], "e": [3, 1], "Z": ["t1"]}))
    for e, limit, degree in (("2,2", "60", 84), ("1000,1000", "120", 21998000)):
        code = main(["witness", str(path), "--lambda", "inf,inf", "--e", e,
                     "--max-degree", limit])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert ("budget exhausted: witness degree %d exceeds budget" % degree
                in captured.err)


def test_version_embedded(problem_files, capsys):
    import symprime
    _, report = run(capsys, "psi0", "--lambda", "inf", "--e", "1")
    assert report["version"] == symprime.__version__


# (parts, weights, configuration ideal) of primes of the acceptance pool
BUDGET_POOL = {
    "diag1": (["inf"], [1], []),
    "allzero2": (["inf"], [2], ["t1"]),
    "allzero3": (["inf"], [3], ["t1"]),
    "one2": (["inf"], [2], ["t1-1"]),
    "free22": (["inf", "inf"], [2, 2], []),
    "line0": (["inf", "inf"], [1, 1], ["t1+t2"]),
    "line1": (["inf", "inf"], [1, 1], ["t1+t2-1"]),
    "circle11": (["inf", "inf"], [1, 1], ["t1^2+t2^2-1"]),
    "circle22": (["inf", "inf"], [2, 2], ["t1^2+t2^2-1"]),
    "point": (["inf", "inf"], [1, 1], ["t1-1", "t2+1"]),
    "fin31": (["inf", 1], [3, 1], ["t1"]),
    "q3pts": (["inf", 1, 1], [1, 1, 1], ["t1", "t2-1", "t3-2"]),
}


def test_tiny_budgets_exit_3_or_repeat_the_default_answer(tmp_path, capsys):
    # a budget may stop a containment, but never change its answer
    paths = {}
    for name, (parts, weights, z) in BUDGET_POOL.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps({"lambda": parts, "e": weights, "Z": z}))
    keys = ("contains", "theta", "separator")
    for p in BUDGET_POOL:
        for q in BUDGET_POOL:
            argv = ["contain", str(paths[p]), str(paths[q])]
            code, report = run(capsys, *argv)
            assert code == 0
            want = {k: report[k] for k in keys}
            for budget in (["--max-reductions", "1"], ["--max-reductions", "2"],
                           ["--max-degree", "1"], ["--max-degree", "2"]):
                code, report = run(capsys, *argv, *budget)
                assert code in (0, 3), (p, q, budget)
                if code == 0:
                    assert {k: report[k] for k in keys} == want, (p, q, budget)


def test_a_small_budget_still_fails_after_the_default_succeeded(tmp_path, capsys):
    # the first containment of seed 1 of the contain_cli benchmark that 5
    # pair reductions refuse; theta and the generator scan are memoized,
    # but each under the budget that computed it
    s17 = tmp_path / "s17.json"
    s17.write_text(json.dumps({"lambda": ["inf", "inf", 1], "e": [2, 1, 1],
                               "Z": ["t1 - 2", "t2 + 1", "t3 + 2"]}))
    circle11 = tmp_path / "circle11.json"
    circle11.write_text(json.dumps({"lambda": ["inf", "inf"], "e": [1, 1],
                                    "Z": ["t1^2+t2^2-1"]}))
    argv = ["contain", str(s17), str(circle11)]
    for _ in range(2):
        code, report = run(capsys, *argv)
        assert (code, report["contains"], report["separator"]) == (0, False, "t1 + t2 - 1")
        assert main(argv + ["--max-reductions", "5"]) == 3
        assert capsys.readouterr().err.startswith("budget exhausted:")


def test_member_checks_the_degree_budget_before_the_walk(tmp_path, capsys, monkeypatch):
    # on a free prime no division ever sees f's degree; without the check
    # the walk built deg f + 1 binomial rows first (x1^3000000 exited 0)
    from symprime import sprime
    path = tmp_path / "free22.json"
    path.write_text(json.dumps({"lambda": ["inf", "inf"], "e": [2, 2]}))
    built = []
    real = sprime._Jets.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)
    monkeypatch.setattr(sprime._Jets, "__init__", counted)
    assert main(["member", str(path), "--poly", "x1^121"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget exhausted: degree 121 exceeds budget" in captured.err
    assert built == []
    assert main(["member", str(path), "--poly", "x1^121", "--max-degree", "121"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is False
    assert len(built) == 1


def test_member_walks_a_1200_variable_window(tmp_path, capsys):
    # the walk goes one level deeper per window variable
    path = tmp_path / "diag1.json"
    path.write_text(json.dumps({"lambda": ["inf"], "e": [1], "Z": []}))
    poly = " + ".join("x%d" % i for i in range(1, 1201))
    code, report = run(capsys, "member", str(path), "--poly", poly)
    assert code == 0 and report["member"] is False


def test_deeply_nested_input_exits_2(problem_files, tmp_path, capsys):
    # each parses to a RecursionError, which is an input error here
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    deep_z = tmp_path / "deep_z.json"
    deep_z.write_text(json.dumps({"lambda": ["inf"], "e": [1],
                                  "Z": ["(" * 5000 + "t1" + ")" * 5000]}))
    nested = "(" * 5000 + "x1" + ")" * 5000
    for argv, start in [
            (["contain", str(deep), str(deep)], "error: cannot load prime data from %s: " % deep),
            (["member", problem_files["origin2"], "--poly", nested], "error: syntax error at "),
            (["gens", str(deep_z)], "error: cannot load prime data from %s: " % deep_z)]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(start)
        assert "nested too deeply" in captured.err or "recursion" in captured.err


def test_characteristic_past_the_primality_bound_exits_2(capsys):
    char = "9" * 400
    assert main(["contract-verify", "-n", "1", "-q", "1", "--char", char]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: characteristic must be below "
                            "3317044064679887385961981, got %s\n" % char)
