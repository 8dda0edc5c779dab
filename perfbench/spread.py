"""Run workloads over several seeds and report how far their metrics spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 member_jets contain_cli
    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --out perfbench/trajectory/seed.json

Each run is `perfbench/run.py --workload W --seed N --seconds S --trace 0`,
one after another in fresh processes.  For each workload and end-to-end
metric it prints the median and the spread, the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound in BENCHMARK.json.  With --out it writes every
value, and one traced run per workload (first seed), as a trajectory point;
an existing point keeps the entries of the workloads not run.
Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                       proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"end_to_end": {}, "per_layer": {}}
    if args.out and args.out.is_file():
        point = json.loads(args.out.read_text())
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            t0 = time.time()
            results.append(run(workload, seed, args.seconds, 0))
            print("%s seed %d: %.0f s, correct %s, failed %d: %s" % (
                workload, seed, time.time() - t0, results[-1]["correct"],
                results[-1]["failed"], " ".join(
                    "%s %.4g" % (k, m["value"]) for k, m in results[-1]["metrics"].items())),
                flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print("  %-12s median %-12.6g spread %.3f (bound %.2f, a third %.3f)%s" % (
                name, median, spread, bound, bound / 3, "" if spread < bound / 3 else "  !"))
            metrics[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "values": values}
        point["end_to_end"][workload] = {
            "seeds": args.seeds, "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results], "metrics": metrics}
        if args.out:
            traced = run(workload, args.seeds[0], args.seconds, 1)
            point["per_layer"][workload] = {
                "seed": args.seeds[0], "correct": traced["correct"],
                "attempted": traced["attempted"], "failed": traced["failed"],
                "metrics": {k: m["value"] for k, m in traced["metrics"].items()}}
    if args.out:
        point.update({
            "point": "seed",
            "command": "python3 perfbench/run.py --workload W --seed N --seconds %d "
                       "--trace 0|1" % args.seconds,
            "measures": "src/symprime as of the commit that adds this benchmark, "
                        "which leaves it unchanged",
            "machine": "2-core Linux container on a shared host, Python %d.%d.%d"
                       % sys.version_info[:3]})
        args.out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
