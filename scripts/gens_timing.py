"""Timing of the generator path: `full_gens` and the print of its
generators, the `witness` and `psi0` commands of perfbench's contain_cli
stream, loading the sum primes of 6, 7 and 8 parts, and two contraction
checks.

    python3 scripts/gens_timing.py
    python3 scripts/gens_timing.py --repeats 5 --seed 1

Run from the root of a checkout; the library is imported from its src/
directory, afresh for every timed `full_gens`, so each one starts with
empty library caches, as a one-shot `symprime gens` does.

- `full_gens` plus printing every generator, on fin31, q3pts, circle22,
  free22 and mixed21 of the acceptance pool; the prime is built before the
  clock starts.
- The `witness` and `psi0` commands of contain_cli's stream (seed --seed),
  through `symprime.cli.main` in one process over that workload's problem
  files: one untimed pass fills the caches, as contain_cli's warm-up does,
  then each timed pass runs every command of the kind once.
- `make_sprime` of the prime with r parts of weight 1 and Z = (t1 + ... +
  tr - 1), r = 6, 7, 8, each after a fresh import, as for `full_gens`; the
  hash is over the saturated basis.
- `verify_contract(4, (4, 4, 4, 4))` and `verify_contract(5, (3,) * 5)`,
  each after a fresh import; the hash is over the printed basis of the
  contraction.

Per line it prints the least and median time over --repeats runs, every
run, and a sha256 of the outputs (the printed generators; the exit codes
and stdout of the commands), so that two source trees can be compared:
equal hashes mean equal output.
"""

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402
from workloads import common  # noqa: E402

PRIMES = ("fin31", "q3pts", "circle22", "free22", "mixed21")
KINDS = ("witness", "psi0")
SUM_PARTS = (6, 7, 8)
CONTRACTS = ((4, (4, 4, 4, 4)), (5, (3,) * 5))


def time_gens(name, repeats):
    times, digests = [], set()
    for _ in range(repeats):
        sym = harness.load_symprime()
        p = common.make_prime(sym, common.prime_obj(*common.ACCEPTANCE_POOL[name]))
        t0 = time.perf_counter()
        gens = [str(g) for g in sym.full_gens(p)]
        times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256("\n".join(gens).encode()).hexdigest())
    return times, digests, len(gens)


def time_commands(seed, repeats, workdir):
    sym = harness.load_symprime()
    wl = workloads.build("contain_cli", sym, seed, workdir=workdir)
    out = {}
    for kind in KINDS:
        ops = [op for op in wl.ops if op.kind == kind]
        first = [op.fn() for op in ops]  # fills the caches
        times, digests = [], set()
        for _ in range(repeats):
            t0 = time.perf_counter()
            results = [op.fn() for op in ops]
            times.append(time.perf_counter() - t0)
            digests.add(hashlib.sha256(repr(results).encode()).hexdigest())
        if results != first:
            raise SystemExit("%s commands printed differently on a warm pass" % kind)
        out[kind] = times, digests, len(ops)
    return out


def time_sum_load(r, repeats):
    times, digests = [], set()
    for _ in range(repeats):
        sym = harness.load_symprime()
        z = sym.parse("+".join("t%d" % i for i in range(1, r + 1)) + " - 1")
        t0 = time.perf_counter()
        p = sym.make_sprime([sym.INF] * r, [1] * r, [z])
        times.append(time.perf_counter() - t0)
        text = "\n".join(str(g) for g in sym.sprime.saturated_ideal(p).gens)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
    return times, digests


def time_contract(n, q, repeats):
    times, digests = [], set()
    for _ in range(repeats):
        sym = harness.load_symprime()
        t0 = time.perf_counter()
        verified, actual = sym.verify_contract(n, q)
        times.append(time.perf_counter() - t0)
        if not verified:
            raise SystemExit("verify_contract(%d, %r) was not verified" % (n, q))
        text = "\n".join(str(g) for g in actual.gens)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
    return times, digests


def report(label, times, digests, count, noun, unit):
    scale = {"s": 1.0, "ms": 1e3}[unit]
    runs = ", ".join("%.3f" % (t * scale) for t in times)
    if len(digests) != 1:
        raise SystemExit("%s: outputs differ between runs" % label)
    print("%-9s %4d %-8s least %8.3f %s  median %8.3f %s  runs %s  sha256 %s" % (
        label, count, noun, min(times) * scale, unit, statistics.median(times) * scale,
        unit, runs, digests.pop()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for name in PRIMES:
        times, digests, count = time_gens(name, args.repeats)
        report(name, times, digests, count, "gens", "s")
    with tempfile.TemporaryDirectory() as tmp:
        results = time_commands(args.seed, args.repeats, Path(tmp))
    for kind in KINDS:
        report(kind, *results[kind], "commands", "ms")
    for r in SUM_PARTS:
        report("sum%d" % r, *time_sum_load(r, args.repeats), r, "parts", "s")
    for n, q in CONTRACTS:
        report("contract%d" % n, *time_contract(n, q, args.repeats), n, "vars", "s")


if __name__ == "__main__":
    main()
