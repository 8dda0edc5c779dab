"""Tests of the benchmark itself: tiny runs of every workload, seeded op
lists, span arithmetic, the watchdog and the reported metrics.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import harness
import run
import tracing
import workloads


def _describe(op):
    return (op.kind,) + tuple(str(a) for a in op.args)


def _build(name, seed, tmp_path, scale=0.1):
    sym = harness.load_symprime()
    return workloads.build(name, sym, seed, scale=scale, workdir=tmp_path / name)


@pytest.mark.parametrize("name", workloads.NAMES[:3])
def test_tiny_run_is_correct(name, tmp_path):
    wl = _build(name, 1, tmp_path)
    with harness.Watchdog() as wd:
        executions, elapsed = harness.run_pass(wl.ops, wd)
    harness.check_outputs(wl, executions)
    assert executions and elapsed > 0
    assert [ex for ex in executions if harness.failed(ex)] == []
    metrics = harness.end_to_end(executions, [0.5, 0.1, 0.3], 20.0)
    assert metrics["setup_s"] == 0.3
    assert metrics["ops_per_s"] > 0 and metrics["op_p50_ms"] <= metrics["op_p90_ms"]


@pytest.mark.parametrize("name", workloads.NAMES[:3])
def test_seed_fixes_the_op_list(name, tmp_path):
    first = [_describe(op) for op in _build(name, 5, tmp_path).ops]
    again = [_describe(op) for op in _build(name, 5, tmp_path).ops]
    other = [_describe(op) for op in _build(name, 6, tmp_path).ops]
    assert first == again
    assert first != other


def test_wrong_output_is_a_counted_failure(tmp_path):
    wl = _build("contain_cli", 1, tmp_path)
    index = next(i for i, op in enumerate(wl.ops) if op.kind == "contain")
    code, out = wl.ops[index].fn()
    report = json.loads(out)
    report["contains"] = not report["contains"]
    forged = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert wl.verify(index, (code, out)) is None
    assert wl.verify(index, (code, forged)) is not None
    assert wl.verify(index, (3, out)) is not None


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: 5 covered)
    # and [8, 9]; the first child has a grandchild [2, 3]
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 3.0, 6.0, 0, 0], ["c", 8.0, 9.0, 0, 0], ["d", 2.0, 3.0, 1, 0]]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_tracer_nests_spans_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.counter("mod.leaf", lambda: None)
    inner = tracer.span("mod.inner", lambda: leaf())
    outer = tracer.span("mod.outer", lambda: [inner(), inner()])
    outer()
    stats = tracer.layer_stats()
    assert stats["mod.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert stats["mod.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert stats["mod.leaf"]["calls"] == 2
    assert [sp[3] for sp in tracer.spans] == [-1, 0, 0]


def test_recursive_span_counts_total_once():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    calls = []

    def rec(n):
        calls.append(n)
        return wrapped(n - 1) if n else 0
    wrapped = tracer.span("mod.rec", rec)
    wrapped(2)
    stats = tracer.layer_stats()["mod.rec"]
    assert stats["calls"] == 3
    assert stats["total_s"] == 5.0      # the outermost span only
    assert stats["self_s"] == 5.0


class _Graded:
    may_fail = False

    @staticmethod
    def verify(index, value):
        return None


def test_watchdog_turns_an_over_cap_op_into_a_failure():
    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass
        return "finished"

    ops = [workloads.common.Op("quick", lambda: 1), workloads.common.Op("slow", spin)]
    with harness.Watchdog(cap=0.2) as wd:
        executions, elapsed = harness.run_pass(ops, wd)
    harness.check_outputs(_Graded, executions)
    assert [ex.status for ex in executions] == ["ok", "timeout"]
    assert elapsed < 1.0
    assert harness.failed(executions[1])
    assert not harness.correct(_Graded, executions)
    metrics = harness.end_to_end(executions, [1.0], 1.0)
    assert metrics["op_p90_ms"] == float("inf")
    assert metrics["ops_per_s"] == 1 / executions[0].latency


def test_an_op_that_raises_makes_the_run_incorrect():
    def boom():
        raise ValueError("no basis")

    ops = [workloads.common.Op("quick", lambda: 1), workloads.common.Op("boom", boom)]
    with harness.Watchdog() as wd:
        executions = harness.run_closed_loop(ops, 0.2, wd)
    harness.check_outputs(_Graded, executions)
    assert executions[1].status == "error" and "no basis" in executions[1].error
    assert not harness.correct(_Graded, executions)
    # the failed op's own (short) latency does not count as throughput
    metrics = harness.end_to_end(executions, [1.0], 1.0)
    assert metrics["ops_per_s"] == 1 / executions[0].latency


def test_latency_is_the_median_of_the_visits(monkeypatch):
    monkeypatch.setattr(harness, "VISIT_S", 0.0)
    # sleeping does not slow down with the host, so leave durations unscaled
    monkeypatch.setattr(harness.Watchdog, "scale", lambda self, start, end: 1.0)
    calls = []
    ticks = iter([0.1, 0.5, 0.4] + [0.2] * harness.MAX_VISITS)

    def op():
        calls.append(1)
        time.sleep(next(ticks) / 100)

    ops = [workloads.common.Op("quick", op)]
    with harness.Watchdog() as wd:
        executions = harness.run_closed_loop(ops, 5.0, wd)
    assert len(calls) == harness.MAX_VISITS == executions[0].visits
    assert len(executions[0].values) == harness.MAX_VISITS
    # visits of 1, 5, 4 and 2, 2, 2, 2 ms: the median is 2 ms
    assert 0.002 <= executions[0].latency < 0.003


def test_durations_are_scaled_to_full_host_speed():
    ref = harness.REFERENCE_S
    wd = harness.Watchdog()
    wd.times = [0.0, 1.0, 2.0, 3.0, 10.0]
    wd.refs = [2 * ref, 2 * ref, 4 * ref, 2 * ref, 100 * ref]
    # the samples at 1.0 and 2.0 lie in the interval, 0.0 and 3.0 are the
    # nearest on either side, and 10.0 is too far away to count
    assert wd.scale(1.0, 2.0) == pytest.approx(1 / 2.5)
    assert wd.scale(10.0, 10.0) == pytest.approx(ref / ((2 * ref + 100 * ref) / 2))


def test_reference_samples_are_not_counted_in_an_op():
    with harness.Watchdog() as wd:
        t0 = time.perf_counter()
        status, _value, seconds = wd.call(lambda: [wd.sample() for _ in range(40)])
        elapsed = time.perf_counter() - t0
    assert status == "ok"
    assert len(wd.refs) >= 41
    assert seconds < elapsed / 4


def test_a_visit_repeats_a_short_op_back_to_back():
    calls = []
    ops = [workloads.common.Op("instant", lambda: calls.append(1))]
    with harness.Watchdog() as wd:
        executions = harness.run_closed_loop(ops, 5.0, wd)
    assert executions[0].visits == harness.MAX_VISITS
    assert len(calls) > 2 * harness.MAX_VISITS


def test_warm_up_runs_are_checked_but_not_timed(monkeypatch):
    monkeypatch.setattr(harness, "VISIT_S", 0.0)
    calls = []
    ops = [workloads.common.Op("first-slow", lambda: calls.append(1) or
                               time.sleep(0.05 if len(calls) == 1 else 0.0))]
    with harness.Watchdog() as wd:
        executions = harness.run_closed_loop(ops, 0.5, wd, warm_up=True)
    assert len(calls) == 1 + harness.MAX_VISITS
    assert len(executions[0].values) == 1 + harness.MAX_VISITS
    assert executions[0].latency < 0.05


def test_every_per_layer_metric_is_reported(tmp_path):
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    names = [spec["name"] for spec in bench["per_layer"]]
    tracer = tracing.Tracer()
    sym = harness.load_symprime()
    tracer.install(sym)
    wl = workloads.build("contain_cli", sym, 2, scale=0.05, workdir=tmp_path)
    with harness.Watchdog() as wd:
        harness.run_pass(wl.ops, wd, tracer)
    metrics = run.layer_metrics(tracer, names)
    assert set(metrics) == set(names) - {"trace_overhead_frac"}
    assert metrics["cli.main.calls"] == len(wl.ops)
    assert metrics["theta.contains.total_s"] > 0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "contain_cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
