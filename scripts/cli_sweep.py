"""Same-answers sweep: the symprime CLI over the acceptance-pool primes.

Runs `symprime.cli.main` in this process on a fixed list of commands over
the 18 primes of the acceptance pool (tests/test_acceptance.py), written as
problem files to a temporary directory:

- `contain` on all 324 ordered pairs, and of two seven-part primes of
  weight 1 (free, and Z = t1+...+t7-1) against themselves, which are not
  in the pool since `gens` on them would dominate the sweep;
- `gens` on every prime (fin31's takes the longest);
- `theta` and `spectrum-slice` at fixed targets;
- `member` with three polynomials at three `--max-reductions` values,
  and once over a 1200-variable window, deeper than the recursion limit;
- `member` at the default budget with four polynomials in 3-4 variables
  on the primes whose locus fixes a coordinate (a pinned part);
- `witness` for the failing pairs of acceptance criterion 5;
- `psi0`, `radical` and `contract-verify` on fixed inputs;
- small budgets and bad input (bad polynomial text and a problem file
  that does not load included), so that exits 2 and 3 are covered.

It prints the number of commands; per command kind, the wall time, the
count of each exit code, and the slowest command with its time (a command
line past 100 characters is cut there, its full length given); and one
sha256 over (argv, stdout, stderr, exit code) of every command.  Two
source trees give the same hash exactly when every command gives the same
output and exit code.

Then it replays every command once more in the same process, over the
same files, and prints how many records differ from their first run: a
cache that outlives a command must not change what a later one reports.
The hash covers the first round only.  Last it prints the hits, misses
and size of every value memo after both rounds (`MEMOS`), so a sweep
shows memo traffic.

    PYTHONPATH=src python3 scripts/cli_sweep.py
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from symprime import cli

# (parts, weights, configuration ideal) of the acceptance pool
POOL = {
    "diag1": (["inf"], [1], []),
    "diag2": (["inf"], [2], []),
    "allzero1": (["inf"], [1], ["t1"]),
    "allzero2": (["inf"], [2], ["t1"]),
    "allzero3": (["inf"], [3], ["t1"]),
    "allzero5": (["inf"], [5], ["t1"]),
    "one2": (["inf"], [2], ["t1-1"]),
    "free11": (["inf", "inf"], [1, 1], []),
    "free22": (["inf", "inf"], [2, 2], []),
    "mixed21": (["inf", "inf"], [2, 1], []),
    "line0": (["inf", "inf"], [1, 1], ["t1+t2"]),
    "line1": (["inf", "inf"], [1, 1], ["t1+t2-1"]),
    "circle22": (["inf", "inf"], [2, 2], ["t1^2+t2^2-1"]),
    "circle11": (["inf", "inf"], [1, 1], ["t1^2+t2^2-1"]),
    "point": (["inf", "inf"], [1, 1], ["t1-1", "t2+1"]),
    "fin31": (["inf", 1], [3, 1], ["t1"]),
    "p3": (["inf", "inf", "inf"], [1, 1, 1], []),
    "q3pts": (["inf", 1, 1], [1, 1, 1], ["t1", "t2-1", "t3-2"]),
}

# primes whose `contain` against itself meets 5040 good pairs
SEVEN = {"free7": (["inf"] * 7, [1] * 7, []),
         "sum7": (["inf"] * 7, [1] * 7, ["+".join("t%d" % i for i in range(1, 8)) + "-1"])}

# the failing pairs of acceptance criterion 5, with a point of q's locus
WITNESS_PAIRS = (
    ("line0", "allzero3", None), ("line1", "allzero2", "0"),
    ("line1", "allzero3", None), ("diag1", "diag2", None),
    ("allzero2", "diag2", "1"), ("allzero1", "allzero2", None),
    ("free22", "allzero5", None), ("free22", "fin31", None),
    ("circle22", "allzero3", "0"), ("circle22", "allzero5", None),
    ("circle11", "circle22", None), ("circle22", "free22", "1,2"),
    ("point", "allzero2", "0"), ("point", "allzero1", "0"),
    ("line1", "point", "1,-1"), ("line0", "free11", "1,2"),
    ("allzero3", "mixed21", None), ("mixed21", "free22", None),
    ("free22", "q3pts", None), ("line0", "q3pts", None),
    ("allzero2", "p3", None),
)
TARGETS = (("inf", "2"), ("inf,inf", "1,1"), ("inf,1", "2,1"))
POLYS = ("(x1-x2)^2", "x1*x2-x1^2", "(x1-x2)^3*(x2-x3)")
REDUCTIONS = ("5", "200", "2000000")
# primes of the pool whose reduced basis holds some t_alpha - c
PINNED = ("allzero1", "allzero2", "allzero3", "allzero5", "one2", "point", "fin31",
          "q3pts")
PINNED_POLYS = ("(x1-x2)^2*(x2-x3)^2*(x1-x3)^2", "(x1-x2)^2*(x3-x4)^2*(x1+x2+x3+x4)^2",
                "x1^2*x2^2*x3^2*x4^2*(x1-1)*(x2-2)", "(x1-x2)^3*(x2-x3)^3*(x3-x4)^3")
PSI0 = (("inf", "3"), ("inf,inf", "2,2"), ("inf,inf,1", "2,1,1"))
RADICALS = (("diag1", "diag2"), ("allzero1", "line0", "circle22"),
            ("free22", "fin31", "q3pts"))
CONTRACTS = (("2", "2,2", "0"), ("3", "2,2,2", "0"), ("3", "3,3,3", "2"),
             ("4", "2,2,2,2", "0"), ("2", "3,3", "3"), ("1", "2", "0"),
             ("4", "4,4,4,4", "0"), ("5", "3,3,3,3,3", "0"))
# (module, function) of the process-wide memos keyed by value
MEMOS = (("theta", "theta"), ("theta", "_separator"), ("sprime", "_saturated"),
         ("cli", "_prime_of_text"), ("combinat", "psi0"))
NESTED = "(" * 5000 + "%s" + ")" * 5000
# one walk level per window variable on a one-part prime
WIDE = ["member", "diag1", "--poly", " + ".join("x%d" % i for i in range(1, 1201))]
# problem files that fail to load: a JSON integer past int()'s digit limit,
# JSON and a generator nested past the recursion limit
BAD_FILES = {"bigint": '{"lambda": ["inf"], "e": [%s], "Z": []}' % ("1" * 5000),
             "deep": "[" * 100000,
             "deepz": json.dumps({"lambda": ["inf"], "e": [1], "Z": [NESTED % "t1"]})}
BAD = (["contain", "missing.json", "diag1"], ["psi0", "--lambda", "3", "--e", "1"],
       ["member", "diag1", "--poly", "x1+"], ["contract-verify", "-n", "2", "-q", "2,x"],
       ["member", "diag1", "--poly", "x1^\u00b2"],
       ["member", "diag1", "--poly", "1" * 5000 + "*x1"], ["gens", "bigint"],
       ["contain", "deep", "deep"], ["gens", "deepz"],
       ["member", "diag1", "--poly", NESTED % "x1"],
       ["contract-verify", "-n", "1", "-q", "1", "--char", "9" * 400],
       # 2^61 - 1, a prime: a large characteristic that builds its field
       ["contract-verify", "-n", "1", "-q", "1", "--char", "2305843009213693951"])


def commands():
    names = list(POOL)
    for p in names:
        for q in names:
            yield ["contain", p, q]
    for p in SEVEN:
        yield ["contain", p, p]
    for p in names:
        yield ["gens", p]
        yield ["gens", p, "--max-reductions", "5"]
        for lam, e in TARGETS:
            yield ["theta", p, "--lambda", lam, "--e", e]
        yield ["spectrum-slice", p] + [a for lam, e in TARGETS
                                       for a in ("--target", "%s;%s" % (lam, e))]
        for f in POLYS:
            for k in REDUCTIONS:
                yield ["member", p, "--poly", f, "--max-reductions", k]
    for p in PINNED:
        for f in PINNED_POLYS:
            yield ["member", p, "--poly", f]
    for p, q, point in WITNESS_PAIRS:
        parts, weights, _ = POOL[q]
        argv = ["witness", p, "--lambda", ",".join(map(str, parts)),
                "--e", ",".join(map(str, weights))]
        yield argv + (["--point", point] if point else [])
        yield argv + ["--max-degree", "3"]
    for lam, e in PSI0:
        yield ["psi0", "--lambda", lam, "--e", e]
    for group in RADICALS:
        yield ["radical"] + list(group)
        yield ["radical", "--zero"] + list(group)
    for n, q, char in CONTRACTS:
        for k in REDUCTIONS:
            yield ["contract-verify", "-n", n, "-q", q, "--char", char,
                   "--max-reductions", k]
        yield ["contract-verify", "-n", n, "-q", q, "--char", char, "--max-degree", "2"]
    yield from BAD
    yield WIDE


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def main():
    digest = hashlib.sha256()
    exits, seconds, slowest = Counter(), defaultdict(float), {}
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: json.dumps({"lambda": parts, "e": weights, "Z": z})
                 for name, (parts, weights, z) in {**POOL, **SEVEN}.items()}
        files.update(BAD_FILES)
        for name, text in files.items():
            Path(tmp, name + ".json").write_text(text)

        def record(argv):
            out, err, code = run([str(Path(tmp, a + ".json")) if a in files else a
                                  for a in argv])
            return [argv, out, err.replace(tmp, "<tmp>"), code]
        first = []
        for argv in commands():
            start = time.perf_counter()
            rec = record(argv)
            took = time.perf_counter() - start
            seconds[argv[0]] += took
            slowest[argv[0]] = max(slowest.get(argv[0], (0.0, argv)), (took, argv))
            exits[argv[0], rec[3]] += 1
            digest.update(json.dumps(rec).encode() + b"\n")
            first.append(rec)
        start = time.perf_counter()
        differ = sum(record(rec[0]) != rec for rec in first)
        replay_s = time.perf_counter() - start
    print("commands %d" % sum(exits.values()))
    for kind, s in sorted(seconds.items()):
        codes = {str(c): n for (k, c), n in sorted(exits.items()) if k == kind}
        took, argv = slowest[kind]
        line = " ".join(argv)
        if len(line) > 100:
            line = "%s... (%d characters)" % (line[:100], len(line))
        print("%-16s %8.2f s  exits %s  slowest %.3f s: %s"
              % (kind, s, json.dumps(codes), took, line))
    print("sha256 %s" % digest.hexdigest())
    print("replay %.2f s  records differing from the first run: %d" % (replay_s, differ))
    for module, name in MEMOS:
        # the module, not the package attribute: `symprime.theta` is the function
        info = getattr(importlib.import_module("symprime." + module), name).cache_info()
        print("memo %-24s hits %6d  misses %5d  size %5d"
              % ("%s.%s" % (module, name), info.hits, info.misses, info.currsize))


if __name__ == "__main__":
    sys.exit(main())
