"""Closed-loop measurement machinery shared by every workload.

One client, one process, one thread: the next operation starts only after
the previous one has returned, so no operation ever waits in a queue.
"""

import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Wall-clock cap on one operation.  The graded workloads stay far below it
# (their slowest operation takes under 8 s at the seed commit); the
# degree-3 space-curve family of contain_cliff runs well past it.
WATCHDOG_S = 20.0

# Set-up (fresh import plus input generation) is repeated this many times in
# every run and its median reported, so that one slow import does not move it.
SETUP_REPEATS = 9

# A run sweeps the op list: the first sweep visits every operation, later
# sweeps (longest first) each operation that has succeeded so far and had
# fewer than MAX_VISITS visits, if its last visit would end within the run's
# time.  A visit runs the operation back to back until the visit has lasted
# VISIT_S, at least once, and keeps the median duration of those runs and
# the last output.  An operation's latency is the median of its visits.  With
# durations scaled to full host speed (below), medians read steadier than
# least durations: the least of many runs rests on the one run that found
# the host and its caches at their best.
MAX_VISITS = 7
VISIT_S = 0.002

# Host speed.  Other tenants of the host slow this core down by up to 1.8
# times, for fractions of a second to minutes at a time, and process CPU
# time slows with it, so no run is sure to see the host at full speed.  The
# watchdog's timer therefore also takes a sample every SAMPLE_S: the least
# time of SAMPLE_RUNS back-to-back runs of reference_kernel(), so that an
# interrupted run does not count.  Every duration the benchmark reports has
# the samples taken inside it subtracted and is then scaled by REFERENCE_S
# over the mean sample from SPEED_WINDOW_S before it to SPEED_WINDOW_S
# after it: durations read as seconds on the host at full speed.
# REFERENCE_S is the kernel's least time on a 2-core Linux container of a
# shared host with Python 3.11.7; it is a fixed unit, so a change to the
# library moves the scaled figures as it moves the unscaled ones.
SAMPLE_S = 0.025
SAMPLE_RUNS = 3
SPEED_WINDOW_S = 0.05
REFERENCE_S = 0.000105

_REFERENCE_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(2) for j in range(3)}


def reference_kernel():
    """Fixed work shaped like the library's: the square of a small sparse
    polynomial with Fraction coefficients, in a dict keyed by exponents.
    It touches nothing of the library's."""
    out = {}
    for (a, b), c in _REFERENCE_POLY.items():
        for (d, e), f in _REFERENCE_POLY.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


class SourceMissing(RuntimeError):
    """The checkout has no symprime sources to measure."""


class OpTimeout(BaseException):
    """Raised inside an operation when the watchdog cap expires.

    A BaseException, so that library code catching Exception cannot swallow
    it."""


def load_symprime(src=SRC):
    """Import symprime afresh from the checkout's sources.

    Every earlier copy is dropped from sys.modules first, so each set-up
    starts with empty library caches and pays the import again."""
    init = Path(src) / "symprime" / "__init__.py"
    if not init.is_file():
        raise SourceMissing("no symprime sources under %s" % src)
    for name in [m for m in sys.modules if m == "symprime" or m.startswith("symprime.")]:
        del sys.modules[name]
    src = str(src)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    sym = importlib.import_module("symprime")
    if Path(sym.__file__).resolve() != init.resolve():
        raise SourceMissing("symprime imported from %s, not %s" % (sym.__file__, init))
    for name in ("cli", "combinat", "contractlab", "generators", "groebner",
                 "poly", "spectrum", "sprime", "theta", "witness"):
        importlib.import_module("symprime." + name)
    return sym


class Watchdog:
    """Per-operation wall-clock cap and host-speed samples, both driven by
    one periodic SIGALRM timer in this process.

    Every SAMPLE_S the timer takes a host-speed sample (its start in
    `times`, its kernel time in `refs`, the time all samples took in
    `spent`) and, while an operation runs past its cap, raises OpTimeout
    inside it."""

    def __init__(self, cap=WATCHDOG_S):
        self.cap = cap
        self.deadline = None
        self.times = []
        self.refs = []
        self.spent = 0.0
        self._sampling = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, signum, frame):
        self.sample()
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise OpTimeout()

    def sample(self):
        """Time SAMPLE_RUNS runs of reference_kernel(), with the collector
        off, and keep the least."""
        if self._sampling:      # a tick that arrived during a sample
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        runs = []
        start = time.perf_counter()
        try:
            for _ in range(SAMPLE_RUNS):
                t0 = time.perf_counter()
                reference_kernel()
                runs.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
            self._sampling = False
        self.times.append(start)
        self.refs.append(min(runs))
        self.spent += time.perf_counter() - start

    def scale(self, start, end):
        """Factor that turns a duration measured from `start` to `end`
        into one at full host speed: REFERENCE_S over the mean time of the
        samples within SPEED_WINDOW_S of that interval and the nearest one
        on either side."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.refs[max(lo - 1, 0):hi + 1])

    def timed(self, fn):
        """(value of fn(), its duration at full host speed); no cap."""
        t0, s0 = time.perf_counter(), self.spent
        value = fn()
        t1 = time.perf_counter()
        return value, (t1 - t0 - (self.spent - s0)) * self.scale(t0, t1)

    def call(self, fn):
        """(status, value, seconds): status is 'ok', 'error' or 'timeout',
        and seconds the call's duration without the samples taken in it."""
        t0, s0 = time.perf_counter(), self.spent
        self.deadline = t0 + self.cap
        try:
            status, value = "ok", fn()
        except OpTimeout:
            status, value = "timeout", None
        except Exception as exc:  # an op that raises is a counted failure
            status, value = "error", "%s: %s" % (type(exc).__name__, exc)
        finally:
            self.deadline = None
        return status, value, time.perf_counter() - t0 - (self.spent - s0)


class Execution:
    """The visits of one operation: `status` and `error` are those of its
    first visit that did not return ('ok' and None if every visit did),
    `values` the outputs of the visits that returned, and `latency` the
    median duration of its `visits` measured visits."""

    __slots__ = ("index", "status", "error", "values", "latency", "visits", "wrong")

    def __init__(self, index, results, durations):
        self.index = index
        self.status, self.error = next(((st, v) for st, v in results if st != "ok"),
                                       ("ok", None))
        self.values = [v for st, v in results if st == "ok"]
        self.latency = statistics.median(durations) if durations else float("inf")
        self.visits = len(durations)
        self.wrong = None


def _sweep(ops, indices, watchdog, results, durations, deadline=None, tracer=None,
           visit_s=0.0):
    """Visit ops[i] for i in `indices`, in order, appending (status, value) to
    results[i] and the median duration to durations[i].  With a deadline, an
    operation whose last visit would not end before it is skipped.  Returns
    the number of operations visited."""
    clock = time.perf_counter
    visited = 0
    for i in indices:
        if deadline is not None and clock() + durations[i][-1] > deadline:
            continue
        if tracer is not None:
            tracer.op_id = i
        runs = []
        start = clock()
        while True:
            status, value, seconds = watchdog.call(ops[i].fn)
            runs.append(seconds)
            if status != "ok" or clock() - start >= visit_s:
                break
        results[i].append((status, value))
        durations[i].append(statistics.median(runs) * watchdog.scale(start, clock()))
        visited += 1
    if tracer is not None:
        tracer.op_id = None
    return visited


def run_pass(ops, watchdog, tracer=None):
    """Run the op list once, in order; returns (executions, seconds)."""
    t0 = time.perf_counter()
    results = [[] for _ in ops]
    durations = [[] for _ in ops]
    _sweep(ops, range(len(ops)), watchdog, results, durations, tracer=tracer)
    elapsed = time.perf_counter() - t0
    return [Execution(i, *rd) for i, rd in enumerate(zip(results, durations))], elapsed


def run_closed_loop(ops, seconds, watchdog, warm_up=False):
    """Sweeps over the op list for about `seconds` of wall time; returns one
    Execution per operation.

    With `warm_up`, a first sweep fills the library's caches and its
    durations are dropped, so that every measured visit finds them as a
    long session would.  The first measured sweep visits every operation
    however long it takes; later sweeps follow MAX_VISITS.
    """
    deadline = time.perf_counter() + seconds
    everything = range(len(ops))
    results = [[] for _ in ops]
    if warm_up:
        _sweep(ops, everything, watchdog, results, [[] for _ in ops])
    durations = [[] for _ in ops]
    # an operation that failed while warming up is not run again
    _sweep(ops, [i for i in everything if not results[i] or results[i][-1][0] == "ok"],
           watchdog, results, durations, visit_s=VISIT_S)
    while True:
        # longest first, so that the operations with the fewest visits get
        # another one while the time left still holds them
        todo = sorted((i for i in everything
                       if results[i][-1][0] == "ok" and len(durations[i]) < MAX_VISITS),
                      key=lambda i: -durations[i][-1])
        if not _sweep(ops, todo, watchdog, results, durations, deadline, visit_s=VISIT_S):
            break
    return [Execution(i, *rd) for i, rd in enumerate(zip(results, durations))]


def check_outputs(workload, executions):
    """Apply the workload's oracle to every output of every operation."""
    for ex in executions:
        for value in ex.values:
            ex.wrong = workload.verify(ex.index, value)
            if ex.wrong is not None:
                break


def failed(ex):
    return ex.status != "ok" or ex.wrong is not None


def correct(workload, executions):
    """A run is correct when no operation failed, or, on a workload whose
    operations may fail (contain_cliff), when no output was wrong."""
    if workload.may_fail:
        return not any(ex.wrong is not None for ex in executions)
    return not any(failed(ex) for ex in executions)


def percentile(values, q):
    """Nearest-rank percentile; float('inf') entries sort last."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(executions, setup_times, rss_mb):
    """The end-to-end metrics of one run, keyed by name.  Throughput is the
    completed operations over their summed latency; a failed operation
    counts as missing every latency limit."""
    lat = [float("inf") if failed(ex) else ex.latency * 1000.0 for ex in executions]
    busy = sum(ex.latency for ex in executions if not failed(ex))
    completed = sum(1 for ex in executions if not failed(ex))
    return {
        "ops_per_s": completed / busy if busy else 0.0,
        "op_p50_ms": percentile(lat, 50),
        "op_p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }


def result_line(correct, attempted, n_failed, metrics, specs):
    """The last line of a run: correct, attempted, failed and metrics."""
    out = {}
    for spec in specs:
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": n_failed, "metrics": out})
