"""Input generators shared by the workloads.

Every prime built here is prime by construction: its configuration ideal is
empty (free), or the closure of the image of a polynomial map from one or
two parameters, computed by eliminating the parameters.  The image of an
irreducible parameter space is irreducible, and each map keeps coordinates
pairwise distinct as polynomials, so the configuration locus is nonempty.
"""

INF_TEXT = "inf"


class Op:
    """One operation of a workload: a thunk into the library, the kind of
    query it is, its expected answer when known by construction, and the
    inputs an oracle needs."""

    __slots__ = ("kind", "fn", "expected", "args")

    def __init__(self, kind, fn, expected=None, args=()):
        self.kind = kind
        self.fn = fn
        self.expected = expected
        self.args = args

# The acceptance pool (tests/test_acceptance.py), as problem-file objects.
ACCEPTANCE_POOL = {
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

# Criterion 5 of the acceptance suite: (p, q, rational point of q's locus
# off the degeneration closure, used when the containment fails and good
# pairs exist), with the containment verdict the suite cross-validates
# against the membership criterion.
SUITE = [
    ("line0", "allzero1", None, True), ("line0", "allzero2", None, True),
    ("line0", "allzero3", None, False), ("line1", "allzero1", None, True),
    ("line1", "allzero2", ("0",), False), ("line1", "allzero3", None, False),
    ("diag1", "diag2", None, False), ("diag2", "diag1", None, True),
    ("diag2", "allzero2", None, True), ("allzero2", "diag2", ("1",), False),
    ("allzero2", "allzero1", None, True), ("allzero1", "allzero2", None, False),
    ("free22", "allzero1", None, True), ("free22", "allzero5", None, False),
    ("free22", "fin31", None, False), ("free22", "circle22", None, True),
    ("circle22", "allzero1", None, True), ("circle22", "allzero2", None, True),
    ("circle22", "allzero3", ("0",), False), ("circle22", "one2", None, True),
    ("circle22", "allzero5", None, False), ("circle22", "circle11", None, True),
    ("circle11", "circle22", None, False), ("circle22", "free22", ("1", "2"), False),
    ("point", "allzero2", ("0",), False), ("point", "allzero1", ("0",), False),
    ("line0", "point", None, True), ("line1", "point", ("1", "-1"), False),
    ("free11", "line0", None, True), ("line0", "free11", ("1", "2"), False),
    ("mixed21", "allzero2", None, True), ("mixed21", "allzero3", None, True),
    ("allzero3", "mixed21", None, False), ("mixed21", "free22", None, False),
    ("free22", "mixed21", None, True), ("free22", "q3pts", None, False),
    ("line0", "q3pts", None, False), ("p3", "allzero1", None, True),
    ("p3", "allzero2", None, True), ("allzero2", "p3", None, False),
]


def prime_obj(parts, weights, z_texts):
    return {"lambda": list(parts), "e": list(weights), "Z": list(z_texts)}


def make_prime(sym, obj):
    parts = [sym.INF if p == INF_TEXT else int(p) for p in obj["lambda"]]
    return sym.make_sprime(parts, list(obj["e"]), [sym.parse(s) for s in obj["Z"]])


def _param_poly(rng, degree, nparams):
    """Text of a random polynomial of degree <= degree in e1..e_nparams."""
    pieces = [str(rng.randint(-3, 3))]
    for d in range(1, degree + 1):
        for j in range(1, nparams + 1):
            c = rng.randint(-3, 3)
            if c:
                pieces.append("(%d)*e%d^%d" % (c, j, d))
    return "+".join(pieces)


def image_ideal(sym, rng, r, degree, nparams=1):
    """Generators (text) of the closure of a random map into t1..tr, and
    the map itself as a list of coordinate polynomials in e1..e_nparams.

    degree 0 gives a point, 1 a line or plane, 2 a conic, 3 a space cubic.
    The map is redrawn until its coordinates differ pairwise as polynomials
    and, for degree >= 1, at least one is nonconstant."""
    while True:
        coords = [_param_poly(rng, degree, nparams) for _ in range(r)]
        polys = [sym.parse(c) for c in coords]
        distinct = all(not (polys[a] - polys[b]).is_zero()
                       for a in range(r) for b in range(a + 1, r))
        moving = degree == 0 or any(not f.is_constant() for f in polys)
        if distinct and moving:
            break
    gens = [sym.parse("t%d-(%s)" % (a + 1, coords[a])) for a in range(r)]
    ideal = sym.Ideal(gens)
    params = [("e", j) for j in range(1, nparams + 1) if ("e", j) in ideal.ambient]
    return [str(g) for g in sym.eliminate(ideal, params).gens], polys


def random_x_poly(rng, nvars, max_terms=3, max_deg=2):
    """Text of a small random nonzero polynomial in x1..x_nvars."""
    while True:
        pieces = []
        for _ in range(rng.randint(1, max_terms)):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            mono = ["x%d^%d" % (i, rng.randint(1, max_deg))
                    for i in range(1, nvars + 1) if rng.random() < 0.6]
            pieces.append("(%d)%s" % (c, "".join("*" + m for m in mono)))
        text = "+".join(pieces)
        if text:
            return text


def zipf_index(rng, n, s=1.0):
    """Index in range(n) drawn with probability proportional to 1/(i+1)^s."""
    weights = [1.0 / (i + 1) ** s for i in range(n)]
    return rng.choices(range(n), weights=weights)[0]
