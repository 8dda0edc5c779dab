"""contain_cli: a seeded command stream through `symprime.cli.main(argv)`
in one process, over problem files written during set-up.

Why: many small eliminations and intersections exercise groebner's
per-call overhead, `combinat.good_pairs`, `theta`, the basis and
`_saturated` caches, and the CLI's parsing and JSON costs.  Pairs repeat
with Zipf-skewed popularity, so a caching change shows here and not on
contract_grid.

Input space, fixed ahead of any measurement:
- the prime pool is the acceptance pool plus SEEDED_PRIMES seeded primes
  with r <= 3 and weights <= 3, whose configuration ideals are free, or
  closures of points, lines or conics (r <= 2) and of points, lines or
  planes (r = 3), all images of rational maps of degree <= 2; the shape
  (from SHAPES) and the kind of ideal cycle through fixed lists, and the
  map's coefficients and the sample points are seeded.  Three-part shapes
  have a finite part and no conics: containments out of three-part primes
  with conic loci take up to seconds each, and the all-infinite three-part
  curves are contain_cliff's family;
- STREAM_OPS commands, in the exact shares of MIX: `contain` on
  DISTINCT_PAIRS pairs, taken in turn from STREAMS lists and drawn with
  seeded Zipf popularity within each list; the k-th pair of a list has the
  part counts PAIR_CLASSES[k % 9] and takes its primes in turn from those
  pools, so that every seed pairs the same shapes and kinds; and `theta`,
  `spectrum-slice`, `radical`, `psi0`, `witness` (the failing acceptance
  pairs) and `member` of small random x-polynomials, whose primes are
  taken in turn from the pool and whose target shapes cycle through
  TARGETS.
contain_cliff adds CLIFF_OPS `contain` commands between primes whose
configuration ideals are closures of degree-3 space curves on
(inf,inf,inf) shapes, a family in which some pairs run past the watchdog.

Outputs are checked against goldens (stdout hash and exit code per
command) recorded at the seed commit for the seeds in goldens/, and for
every seed against oracles that share no code with the timed path:
containment verdicts against sample points of q's locus, `member` against
`member_via_derivatives`, and every report against its JSON schema.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from . import common

SEEDED_PRIMES = 36
DISTINCT_PAIRS = 320
STREAMS = 8
PAIR_CLASSES = ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3))
STREAM_OPS = 1200
CLIFF_OPS = 3
MIX = (("contain", 70), ("theta", 8), ("spectrum-slice", 5), ("radical", 5),
       ("psi0", 4), ("witness", 4), ("member", 4))
KINDS = ("free", "point", "line", "conic")
KINDS_3 = ("free", "point", "line", "plane")
# (parts, weights) of the seeded primes, by part count
SHAPES = {1: ((["inf"], [1]), (["inf"], [2]), (["inf"], [3])),
          2: ((["inf", 1], [2, 1]), (["inf", "inf"], [2, 1]), (["inf", "inf"], [3, 2])),
          3: ((["inf", 1, 2], [2, 1, 1]), (["inf", "inf", 1], [2, 1, 1]),
              (["inf", "inf", 2], [3, 2, 1]))}
TARGETS = ("inf;1", "inf;2", "inf;3", "inf,inf;1,1", "inf,inf;2,2",
           "inf,inf;2,1", "inf,1;2,1", "inf,1;1,1")
GOLDENS = Path(__file__).resolve().parent.parent / "goldens" / "contain_cli.json"
KEYS = {"contain": {"contains", "theta", "separator"},
        "theta": {"target", "theta", "components"},
        "spectrum-slice": {"slices"},
        "radical": {"includes_zero", "primes"},
        "psi0": {"base", "psi0"},
        "witness": {"witness", "layout"},
        "member": {"poly", "member"}}

# Rational points on the loci of the acceptance primes with a
# configuration ideal; free primes get random points.
POOL_POINTS = {
    "allzero1": [(0,)], "allzero2": [(0,)], "allzero3": [(0,)],
    "allzero5": [(0,)], "one2": [(1,)], "fin31": [(0, 1), (0, -2), (0, 5)],
    "line0": [(1, -1), (2, -2), (-3, 3)], "line1": [(2, -1), (3, -2), (0, 1)],
    "circle22": [(Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(-3, 5)),
                 (Fraction(-5, 13), Fraction(12, 13))],
    "point": [(1, -1)], "q3pts": [(0, 1, 2)],
}
POOL_POINTS["circle11"] = POOL_POINTS["circle22"]


def _random_points(rng, r, count=5):
    out = []
    while len(out) < count:
        pt = tuple(Fraction(rng.randint(-97, 97), rng.randint(1, 13)) for _ in range(r))
        if len(set(pt)) == r:
            out.append(pt)
    return out


def _map_points(sym, polys, nparams, count=5):
    """Images of random rational parameter values, keeping those whose
    coordinates are pairwise distinct (all but finitely many curves' or
    planes' worth of parameters qualify)."""
    rng = random.Random(repr([str(f) for f in polys]))
    out = []
    while len(out) < count:
        vals = {("e", j): Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                for j in range(1, nparams + 1)}
        pt = tuple(f.evaluate(vals) for f in polys)
        if len(set(pt)) == len(pt):
            out.append(pt)
    return out


def _seeded_prime(sym, rng, k):
    """The k-th seeded prime: r, the shape and the kind of configuration
    ideal cycle through fixed lists, so every seed's pool has the same
    make-up; the ideal's coefficients and the sample points are seeded."""
    r = 1 + k % 3
    kinds = KINDS_3 if r == 3 else KINDS
    kind = kinds[(k // 3) % len(kinds)]
    parts, weights = SHAPES[r][(k // 3 // len(kinds)) % len(SHAPES[r])]
    if kind == "free":
        return common.prime_obj(parts, weights, []), _random_points(rng, r)
    degree, nparams = {"point": (0, 1), "line": (1, 1), "conic": (2, 1),
                       "plane": (1, 2)}[kind]
    z, polys = common.image_ideal(sym, rng, r, degree, nparams)
    return common.prime_obj(parts, weights, z), _map_points(sym, polys, nparams)


def _cubic_prime(sym, rng):
    z, polys = common.image_ideal(sym, rng, 3, 3)
    weights = [rng.randint(1, 3) for _ in range(3)]
    return common.prime_obj(["inf"] * 3, weights, z), _map_points(sym, polys, 1)


class Workload:
    # a repeated command finds the caches its first run filled, so measured
    # sweeps follow a warm-up sweep and see the caches of a long session
    warm_up = True
    may_fail = False
    cliff_ops = 0

    def __init__(self, sym, seed, scale=1.0, workdir=None):
        self.sym = sym
        rng = random.Random(seed)
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        self.points = {}
        self.primes = {}

        def add(name, obj, points):
            # points are in the file's part order; make_sprime sorts parts
            parts = [sym.INF if p == common.INF_TEXT else p for p in obj["lambda"]]
            perm = sym.canonicalize(parts, obj["e"])[1]
            points = [tuple(pt[i] for i in perm) for pt in points]
            path = workdir / (name + ".json")
            path.write_text(json.dumps(obj))
            self.files[name] = str(path)
            self.points[name] = points
            self.primes[name] = common.make_prime(sym, obj)

        for name, spec in common.ACCEPTANCE_POOL.items():
            obj = common.prime_obj(*spec)
            add(name, obj, POOL_POINTS.get(name) or _random_points(rng, len(spec[0])))
        for k in range(int(SEEDED_PRIMES * scale)):
            add("s%02d" % k, *_seeded_prime(sym, rng, k))
        names = list(self.files)
        by_r = {}
        for name in names:
            by_r.setdefault(self.primes[name].shape.r, []).append(name)
        # STREAMS popularity lists; the k-th pair of each list has part
        # counts PAIR_CLASSES[k % 9], and each side takes the primes of its
        # part count in turn, so every seed pairs the same shapes and kinds
        per_stream = max(1, int(DISTINCT_PAIRS * scale) // STREAMS)
        taken = dict.fromkeys(by_r, 0)

        def next_prime(r):
            taken[r] += 1
            return by_r[r][(taken[r] - 1) % len(by_r[r])]
        streams = [[(next_prime(rp), next_prime(rq))
                    for rp, rq in (PAIR_CLASSES[k % len(PAIR_CLASSES)]
                                   for k in range(per_stream))]
                   for _ in range(STREAMS)]
        failing = [(p, q, pt) for p, q, pt, verdict in common.SUITE if not verdict]

        # every kind gets its exact share of the stream, and the primes and
        # targets of the other commands cycle through fixed lists
        n_ops = max(10, int(STREAM_OPS * scale))
        kinds = [kind for kind, share in MIX for _ in range(round(n_ops * share / 100))]
        rng.shuffle(kinds)
        seen = dict.fromkeys(KEYS, 0)
        argvs = []
        for kind in kinds:
            i = seen[kind]
            seen[kind] += 1
            if kind == "contain":
                pairs = streams[i % STREAMS]
                p, q = pairs[common.zipf_index(rng, len(pairs))]
                argv = ["contain", p, q]
            elif kind == "theta":
                lam, e = TARGETS[i % len(TARGETS)].split(";")
                argv = ["theta", names[i % len(names)], "--lambda", lam, "--e", e]
            elif kind == "spectrum-slice":
                argv = ["spectrum-slice", names[i % len(names)],
                        "--target", TARGETS[i % len(TARGETS)],
                        "--target", TARGETS[(i + 3) % len(TARGETS)]]
            elif kind == "radical":
                argv = ["radical"] + [names[(i + j * 17) % len(names)]
                                      for j in range(2 + i % 2)]
            elif kind == "psi0":
                lam, e = TARGETS[i % len(TARGETS)].split(";")
                argv = ["psi0", "--lambda", lam, "--e", e]
            elif kind == "witness":
                p, q, pt = failing[i % len(failing)]
                shape = self.primes[q].shape.to_json_obj()
                argv = ["witness", p, "--lambda", ",".join(map(str, shape["lambda"])),
                        "--e", ",".join(map(str, shape["e"]))]
                if pt is not None:
                    argv += ["--point", ",".join(pt)]
            else:
                argv = ["member", names[i % len(names)], "--poly",
                        common.random_x_poly(rng, 1 + i % 2, max_terms=2)]
            argvs.append(argv)
        for k in range(self.cliff_ops):
            a = "c%02d" % (2 * k)
            b = "c%02d" % (2 * k + 1)
            add(a, *_cubic_prime(sym, rng))
            add(b, *_cubic_prime(sym, rng))
            argvs.insert(rng.randrange(len(argvs) + 1), ["contain", a, b])

        main = sym.cli.main
        self.ops = []
        for argv in argvs:
            real = [self.files.get(a, a) if i > 0 else a for i, a in enumerate(argv)]
            self.ops.append(common.Op(argv[0], lambda real=real: _call(main, real),
                                      None, argv))
        self.goldens = _load_goldens().get(str(seed), {}) if scale == 1 else {}
        self._verdicts = {}

    # -- checks --------------------------------------------------------
    def verify(self, index, value):
        op = self.ops[index]
        code, out = value
        key = " ".join(op.args)
        golden = self.goldens.get(key)
        if golden is not None and golden != digest(code, out):
            return "%s differs from the seed commit's output" % key
        memo = (key, code, out)
        if memo not in self._verdicts:
            self._verdicts[memo] = self._oracle(op, code, out)
        return self._verdicts[memo]

    def _oracle(self, op, code, out):
        kind = op.kind
        if code != 0:
            return "%s exited %d" % (" ".join(op.args), code)
        try:
            report = json.loads(out)
        except ValueError:
            return "%s printed no JSON" % kind
        if set(report) != KEYS[kind] | {"version", "budgets"}:
            return "%s report has keys %s" % (kind, sorted(report))
        if kind == "contain":
            return _check_verdict(report, self.points[op.args[2]])
        if kind == "member":
            f = self.sym.parse(op.args[3])
            want = self.sym.member_via_derivatives(f, self.primes[op.args[1]])
            if report["member"] is not want:
                return "member %s: got %r, oracle %r" % (op.args[3], report["member"], want)
        return None


def _call(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def digest(code, out):
    return "%d:%s" % (code, hashlib.sha256(out.encode()).hexdigest()[:16])


def _load_goldens():
    if GOLDENS.is_file():
        return json.loads(GOLDENS.read_text())
    return {}


def _check_verdict(report, points):
    """A containment holds iff every theta generator vanishes on q's locus;
    checked at rational points of that locus with sympy arithmetic."""
    from . import oracles
    gens = [oracles.parse_text(s) for s in report["theta"]]
    if report["contains"]:
        for pt in points:
            for g in gens:
                if oracles.evaluate(g, pt) != 0:
                    return "contains=true but a theta generator is nonzero on q's locus"
        return None
    if report["separator"] not in report["theta"]:
        return "the separator is not a theta generator"
    sep = oracles.parse_text(report["separator"])
    if all(oracles.evaluate(sep, pt) == 0 for pt in points):
        return "contains=false but the separator vanishes at every sample point"
    return None


class CliffWorkload(Workload):
    may_fail = True
    cliff_ops = CLIFF_OPS
