"""contract_grid: `verify_contract` over a seeded grid, plus seeded
`groebner_basis`, `eliminate` and `saturate` calls on small random ideals.

Why: a few large block-order eliminations exercise `normal_form`,
`MonomialOrder.key`, coefficient growth and the GF(p) field path, while
nothing in sprime or theta runs.  It uses groebner unlike contain_cli: few
big calls on fresh ideals instead of many small cached ones.

Input space, fixed ahead of any measurement:
- always the cases n=4, q=(4,4,4,4) and n=5, q=(3,3,3,3,3) in char 0;
- GRID_CHAR0 seeded char-0 cases, n in 2..5 and q_i in 1..6, redrawn until
  sum(q) <= CHAR0_ORDER_SUM;
- GRID_CHARP seeded cases in char 2 or 3, n in 2..5, with a uniform order
  q that is a power of the characteristic at most 4;
- RANDOM_CALLS seeded calls on ideals in 3..4 variables over QQ or
  GF(32003), 2..3 generators of 1..3 terms and degree <= 2; the calls cycle
  through a grevlex basis, a lex basis, an elimination of the first
  variable and a saturation at a random variable, both fields, both
  variable counts, both generator counts and the terms per generator, so
  that only coefficients, exponents and the saturating variable are
  seeded.  The calls are many because op_p90_ms falls in the steep tail of
  their costs: with 800 calls it moved by a sixth between seeds.
Every answer is checked against sympy's `groebner`.
"""

import random

from . import common

CHAR0_ORDER_SUM = 10
GRID_CHAR0 = 6
GRID_CHARP = 6
RANDOM_CALLS = 2400
FIXED_CASES = ((4, (4, 4, 4, 4)), (5, (3, 3, 3, 3, 3)))
PRIME = 32003


def _random_poly_text(rng, nvars, nterms):
    pieces = []
    for _ in range(nterms):
        c = rng.randint(-5, 5) or 1
        exps = [0] * nvars
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(nvars)] += 1
        mono = "".join("*t%d^%d" % (i + 1, k) for i, k in enumerate(exps) if k)
        pieces.append("(%d)%s" % (c, mono))
    return "+".join(pieces)


class Workload:
    # every call builds fresh ideals, so a repeated call does the same work
    # and there are no caches to warm up
    warm_up = False
    may_fail = False
    def __init__(self, sym, seed, scale=1.0):
        self.sym = sym
        rng = random.Random(seed)
        self.ops = []
        verify = sym.verify_contract
        cases = [(n, q, 0) for n, q in FIXED_CASES] if scale >= 1 else []
        for _ in range(max(1, int(GRID_CHAR0 * scale))):
            n = rng.randint(2, 5)
            while True:
                q = tuple(rng.randint(1, 6) for _ in range(n))
                if sum(q) <= CHAR0_ORDER_SUM:
                    break
            cases.append((n, q, 0))
        for _ in range(max(1, int(GRID_CHARP * scale))):
            char = rng.choice([2, 3])
            k = rng.choice([1, char] + ([4] if char == 2 else []))
            n = rng.randint(2, 5)
            cases.append((n, (k,) * n, char))
        for n, q, char in cases:
            self.ops.append(common.Op("contract:char%d" % char,
                                      lambda n=n, q=q, c=char: verify(n, q, c),
                                      None, (n, q, char)))
        for i in range(max(8, int(RANDOM_CALLS * scale))):
            # kind, field and variable count cycle, so every seed has the
            # same mix of calls and only the ideals differ
            kind = ("grevlex", "lex", "eliminate", "saturate")[i % 4]
            field = (0, PRIME)[(i // 4) % 2]
            nvars = 3 + (i // 8) % 2
            fld = sym.QQ if field == 0 else sym.GF(field)
            ambient = tuple(("t", i + 1) for i in range(nvars))
            gens = tuple(sym.parse(_random_poly_text(rng, nvars, 1 + (i // 16 + j) % 3), fld)
                         for j in range(2 + (i // 48) % 2))
            # each call builds a fresh Ideal, so no pass reuses a cached basis
            fresh = (lambda g=gens, a=ambient, f=fld: sym.Ideal(g, ambient=a, field=f))
            if kind in ("grevlex", "lex"):
                order = getattr(sym.MonomialOrder, kind)(ambient)
                fn = (lambda new=fresh, o=order: sym.groebner_basis(new(), o).gens)
                extra = None
            elif kind == "eliminate":
                fn = (lambda new=fresh, d=ambient[:1]: sym.eliminate(new(), d).gens)
                extra = ambient[:1]
            else:
                extra = sym.Poly.variable(rng.choice(ambient), fld)
                fn = (lambda new=fresh, f=extra: sym.saturate(new(), f).gens)
            self.ops.append(common.Op("gb:%s" % kind, fn, None,
                                      (kind, fresh(), extra, field)))
        rng.shuffle(self.ops)
        self._checked = {}

    def verify(self, index, value):
        from . import oracles
        op = self.ops[index]
        if op.kind.startswith("contract"):
            verified, basis = value
            if verified is not True:
                return "verify_contract(%r) was not verified" % (op.args,)
            n, q, char = op.args
            got = oracles.monic_set(basis.gens, char)
            want = self._checked.get(index)
            if want is None:
                want = self._checked[index] = oracles.contraction_basis(n, q, char)
        else:
            kind, ideal, extra, field = op.args
            got = oracles.monic_set(value, field)
            want = self._checked.get(index)
            if want is None:
                want = self._checked[index] = oracles.basis(kind, ideal, extra, field)
        if got != want:
            return "%s basis differs from sympy's" % op.kind
        return None
