"""Record the contain_cli goldens: stdout hash and exit code per command.

    python3 perfbench/record_goldens.py 1 2 3 ...

Run at the commit whose answers are the reference (the benchmark's seed
commit); it rewrites perfbench/goldens/contain_cli.json for the given seeds
and keeps the others.  With --xval, each distinct containment verdict is
also cross-validated by the membership criterion of acceptance criterion
5 (p lies in q iff every generator of p is a member of q), each pair under
an XVAL_CAP_S cap; the outcome per pair goes to
goldens/contain_cli_xval.json.
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from workloads import contain_cli  # noqa: E402

XVAL = HERE / "goldens" / "contain_cli_xval.json"
XVAL_CAP_S = 5.0


def record(seed):
    sym = harness.load_symprime()
    wl = contain_cli.Workload(sym, seed, workdir=harness.ROOT / ".perfbench" / "goldens")
    out = {}
    with harness.Watchdog() as wd:
        for op in wl.ops:
            key = " ".join(op.args)
            if key not in out:
                status, value, _s = wd.call(op.fn)
                if status != "ok":
                    raise SystemExit("seed %d: %s did not finish: %s" % (seed, key, status))
                out[key] = contain_cli.digest(*value)
    return wl, out


def cross_validate(wl):
    """{"p q": "agrees" | "DISAGREES" | "<step> timeout"} per distinct pair."""
    sym = wl.sym
    results = {}
    gens = {}
    with harness.Watchdog(XVAL_CAP_S) as wd:
        for op in wl.ops:
            pair = " ".join(op.args[1:])
            if op.kind != "contain" or pair in results:
                continue
            p, q = op.args[1:]
            if p not in gens:
                status, gens[p], _s = wd.call(lambda p=p: sym.full_gens(wl.primes[p]))
                if status != "ok":
                    gens[p] = None
            if gens[p] is None:
                results[pair] = "gens timeout"
                continue
            verdict = json.loads(op.fn()[1])["contains"]
            status, members, _s = wd.call(
                lambda p=p, q=q: all(sym.member(g, wl.primes[q]) for g in gens[p]))
            if status != "ok":
                results[pair] = "member " + status
            else:
                results[pair] = "agrees" if members == verdict else "DISAGREES"
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--xval", action="store_true")
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    goldens = contain_cli._load_goldens()
    xval = json.loads(XVAL.read_text()) if XVAL.is_file() else {}
    for seed in args.seeds:
        wl, goldens[str(seed)] = record(seed)
        if args.xval:
            xval[str(seed)] = cross_validate(wl)
            print("seed %d: %s" % (seed, json.dumps(
                {k: list(xval[str(seed)].values()).count(k)
                 for k in set(xval[str(seed)].values())})))
    contain_cli.GOLDENS.parent.mkdir(exist_ok=True)
    contain_cli.GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    if args.xval:
        XVAL.write_text(json.dumps(xval, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
