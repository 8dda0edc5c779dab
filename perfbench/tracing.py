"""Spans and counters recorded from outside the library.

The tracer replaces functions of the freshly imported symprime modules with
wrappers.  Modules import each other's functions by name, so a function is
replaced in every symprime module namespace that binds it.  Layer functions
record a span (name, start, end, parent, op id); the hottest helpers, such
as monomial arithmetic, `MonomialOrder.key` and `Poly.leading`, only count
calls, because a span per call would dominate both time and memory.  Spans
stay in memory and are written out when the run ends.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("poly", "groebner", "combinat", "sprime", "theta", "witness",
           "generators", "contractlab", "spectrum", "cli")

# Private functions that are layer boundaries in their own right.
PRIVATE_SPANS = {("groebner", "_buchberger"), ("sprime", "_saturated")}

# Functions of the poly module that get spans; its other public functions
# are monomial and variable helpers called millions of times, so they only
# count calls.
POLY_SPANS = {"parse", "discriminant", "poly_divides"}

# In cli only the entry point is wrapped, so that cli.main's self time is
# argument parsing, problem-file loading and JSON output.
CLI_SPANS = {"main"}

# Methods that only count calls, under the metric name used for them.
COUNTED_METHODS = (("groebner", "MonomialOrder", "key", "groebner.order_key"),
                   ("poly", "Poly", "leading", "poly.leading"))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = None
        self.counts = Counter()
        self.budget_exceeded = Counter()
        self.budget_error = ()
        self.saturated_cache = None

    # -- recording -----------------------------------------------------
    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except self.budget_error as exc:
                self._seen_budget(name, exc)
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except self.budget_error as exc:
                self._seen_budget(name, exc)
                raise
        return wrapper

    def _seen_budget(self, name, exc):
        # counted once, by the innermost wrapper the exception passes
        if not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            self.budget_exceeded[name.split(".")[0]] += 1

    # -- installation --------------------------------------------------
    def install(self, sym):
        """Wrap the public functions of every symprime module in place."""
        # sys.modules, not attributes of the package: `symprime.theta` is
        # rebound to the function of that name by the package's imports
        mods = {m: sys.modules["symprime." + m] for m in MODULES}
        self.budget_error = mods["groebner"].BudgetExceededError
        self.saturated_cache = mods["sprime"]._saturated
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if _home(obj) != short:
                    continue
                kind = _kind(short, attr, obj)
                if kind is None:
                    continue
                name = "%s.%s" % (short, attr)
                wrappers[id(obj)] = (obj, (self.span if kind == "span"
                                           else self.counter)(name, obj))
        for namespace in list(mods.values()) + [sym]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(namespace, attr, wrappers[id(obj)][1])
        for short, cls_name, meth, name in COUNTED_METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.counter(name, getattr(cls, meth)))

    # -- analysis ------------------------------------------------------
    def layer_stats(self):
        """{name: {"calls", "total_s", "self_s"}} from spans and counters."""
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        selfs = self_times(self.spans)
        for idx, (name, start, end, parent, _op) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += selfs[idx]
            if not _has_ancestor_named(self.spans, parent, name):
                st["total_s"] += end - start
        for name, n in self.counts.items():
            stats[name]["calls"] += n
        return stats

    def calls_inside(self, name, ancestor):
        """Spans called `name` with a span called `ancestor` above them."""
        return sum(1 for name_, _s, _e, parent, _o in self.spans
                   if name_ == name and _has_ancestor_named(self.spans, parent, ancestor))

    def gb_cache_hit_ratio(self):
        """Share of groebner_basis calls that did not enter _buchberger."""
        calls = [i for i, sp in enumerate(self.spans) if sp[0] == "groebner.groebner_basis"]
        if not calls:
            return 0.0
        missed = {sp[3] for sp in self.spans if sp[0] == "groebner._buchberger"}
        return 1.0 - sum(1 for i in calls if i in missed) / len(calls)

    def saturated_cache_hit_ratio(self):
        info = self.saturated_cache.cache_info()
        total = info.hits + info.misses
        return info.hits / total if total else 0.0

    def write(self, path):
        """Spans as gzip'd JSON lines: name, start, end, parent, op id."""
        with gzip.open(path, "wt") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def _home(obj):
    """Short name of the symprime module defining a function, else None."""
    mod = getattr(obj, "__module__", None) or ""
    if not mod.startswith("symprime."):
        return None
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return None
    return mod.split(".", 1)[1]


def _kind(short, attr, obj):
    """'span', 'count' or None (left alone) for a module-level function."""
    if obj.__name__ != attr:
        return None
    if attr.startswith("_"):
        return "span" if (short, attr) in PRIVATE_SPANS else None
    if short == "cli":
        return "span" if attr in CLI_SPANS else None
    if short == "poly":
        return "span" if attr in POLY_SPANS else "count"
    if inspect.isgeneratorfunction(obj):
        return "count"   # a span would only time creating the generator
    return "span"


def _has_ancestor_named(spans, parent, name):
    while parent != -1:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for idx, sp in enumerate(spans):
        if sp[3] != -1:
            children[sp[3]].append(idx)
    out = []
    for idx, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(idx, ())):
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out
