"""Run one workload of the symprime benchmark and print its metrics.

    python3 perfbench/run.py --workload member_jets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json;
with --trace 1 it measures the per-layer metrics, from a traced pass that
follows an untraced one.  Every metric is printed as a line "name = value
unit (n=samples)", and the last line is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs every
workload of BENCHMARK.json.  Outputs are checked after the timed region.
Run from the root of a checkout; the library is imported from its src/
directory.
"""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = harness.ROOT / ".perfbench"


def _reexec_with_fixed_hash_seed():
    # Set and dict order over the library's string-keyed variables follows
    # the hash seed; fixing it makes call counts repeat exactly between runs.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _setup(name, seed, tracer=None):
    sym = harness.load_symprime()
    if tracer is not None:
        tracer.install(sym)
        tracer.op_id = "setup"
    wl = workloads.build(name, sym, seed, workdir=WORK / name)
    if tracer is not None:
        tracer.op_id = None
    return wl


def measure(name, seed, seconds):
    """End-to-end metrics: median set-up, then sweeps over the ops for
    `seconds`; every duration at full host speed (harness.REFERENCE_S)."""
    setup_times = []
    with harness.Watchdog() as wd:
        for _ in range(harness.SETUP_REPEATS):
            wl, seconds_at_full_speed = wd.timed(lambda: _setup(name, seed))
            setup_times.append(seconds_at_full_speed)
        executions = harness.run_closed_loop(wl.ops, seconds, wd, wl.warm_up)
    refs = sorted(wd.refs)
    print("host speed: reference kernel least %.4f, median %.4f, most %.4f ms over %d "
          "samples; durations are scaled to %.4f ms" % (
              refs[0] * 1e3, refs[len(refs) // 2] * 1e3, refs[-1] * 1e3, len(refs),
              harness.REFERENCE_S * 1e3))
    rss = harness.peak_rss_mb()   # before the oracles import sympy
    harness.check_outputs(wl, executions)
    metrics = harness.end_to_end(executions, setup_times, rss)
    counts = {"ops_per_s": len(executions), "op_p50_ms": len(executions),
              "op_p90_ms": len(executions), "setup_s": len(setup_times),
              "peak_rss_mb": 1}
    return wl, executions, metrics, counts


def measure_traced(name, seed, specs):
    """Per-layer metrics from one traced pass, after one untraced pass."""
    wl = _setup(name, seed)
    with harness.Watchdog() as wd:
        plain, untraced_s = harness.run_pass(wl.ops, wd)
    harness.check_outputs(wl, plain)
    tracer = tracing.Tracer()
    wl = _setup(name, seed, tracer)
    with harness.Watchdog() as wd:
        traced, traced_s = harness.run_pass(wl.ops, wd, tracer)
    harness.check_outputs(wl, traced)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / ("spans-%s-%d.jsonl.gz" % (name, seed)))
    metrics = layer_metrics(tracer, [s["name"] for s in specs])
    metrics["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    counts = {s["name"]: len(traced) for s in specs}
    return wl, plain + traced, metrics, counts


def layer_metrics(tracer, names):
    """Value of each per-layer metric name, from the tracer's records."""
    stats = tracer.layer_stats()
    out = {}
    for name in names:
        module, _, rest = name.partition(".")
        if name == "trace_overhead_frac":
            continue
        if name == "groebner.gb_cache_hit_ratio":
            out[name] = tracer.gb_cache_hit_ratio()
        elif name == "sprime.saturated_cache_hit_ratio":
            out[name] = tracer.saturated_cache_hit_ratio()
        elif name == "groebner.radical_member.calls_in_member":
            out[name] = tracer.calls_inside("groebner.radical_member", "sprime.member")
        elif rest == "budget_exceeded.count":
            out[name] = tracer.budget_exceeded.get(module, 0)
        else:
            func, _, field = name.rpartition(".")
            out[name] = stats[func][field] if func in stats else (0 if field == "calls" else 0.0)
    return out


def run_all(args):
    """Each workload of BENCHMARK.json in its own process, one after another
    (peak RSS is per process); their lines are relayed, and the last line
    holds every metric as <workload>.<metric>."""
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for spec in bench["workloads"]:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", spec["name"], "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        for line in lines[:-1]:
            print("%s: %s" % (spec["name"], line))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"]["%s.%s" % (spec["name"], name)] = metric
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _reexec_with_fixed_hash_seed()
    warnings.simplefilter("ignore")
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        if args.trace:
            wl, executions, metrics, counts = measure_traced(args.workload, args.seed, specs)
        else:
            wl, executions, metrics, counts = measure(args.workload, args.seed,
                                                      args.seconds)
    except harness.SourceMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    wrong = [ex for ex in executions if ex.wrong is not None]
    n_failed = sum(1 for ex in executions if harness.failed(ex))
    for ex in [ex for ex in executions if harness.failed(ex)][:20]:
        print("FAILED op %d (%s): %s" % (ex.index, wl.ops[ex.index].kind,
                                         ex.wrong or "%s %s" % (ex.status, ex.error or "")),
              file=sys.stderr)
    print("workload %s seed %d: %d ops attempted, %d failed (fail_frac %.4f), "
          "%d wrong outputs" % (args.workload, args.seed, len(executions), n_failed,
                                n_failed / len(executions), len(wrong)))
    visits = sorted(ex.visits for ex in executions)
    print("measured visits per op: least %d, median %d, most %d (latency is the median)"
          % (visits[0], visits[len(visits) // 2], visits[-1]))
    for spec in specs:
        print("%s = %r %s (n=%d)" % (spec["name"], metrics[spec["name"]], spec["unit"],
                                     counts[spec["name"]]))
    print("wait_s = 0 s (one closed-loop client, no queue: nothing waits)")
    print(harness.result_line(harness.correct(wl, executions), len(executions), n_failed,
                              metrics, specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
