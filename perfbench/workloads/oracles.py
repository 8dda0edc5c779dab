"""Independent answers from sympy, used only after the timed region.

Bases are compared as sets of monic polynomials, each a frozenset of
(exponent tuple over the sorted variables, coefficient) items, with GF(p)
coefficients reduced to [0, p).
"""

from fractions import Fraction

import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)


def _name(v):
    return "%s%d" % v


def _variables(polys):
    names = set()
    for f in polys:
        for mono in f.terms:
            names.update(_name(v) for v, _k in mono)
    return names


def _sorted_names(names):
    fam = {"x": 0, "t": 1, "e": 2, "z": 3}
    return sorted(names, key=lambda s: (fam[s[0]], int(s[1:])))


def _normal(items, p):
    """Monic frozenset from (exponents, coefficient) items."""
    items = [(e, Fraction(c) if p == 0 else int(c) % p) for e, c in items]
    items = [(e, c) for e, c in items if c]
    lead = max(items)[1]  # any fixed term serves: all bases are compared monic
    inv = 1 / lead if p == 0 else pow(lead, -1, p)
    return frozenset((e, c * inv if p == 0 else c * inv % p) for e, c in items)


def monic_set(polys, p):
    """Normal form of a basis of symprime polynomials."""
    names = _sorted_names(_variables(polys))
    pos = {n: i for i, n in enumerate(names)}
    out = set()
    for f in polys:
        items = []
        for mono, c in f.terms.items():
            exps = [0] * len(names)
            for v, k in mono:
                exps[pos[_name(v)]] = k
            items.append((tuple(exps), c))
        out.add((tuple(names), _normal(items, p)))
    return frozenset(out)


def _sympy_set(polys, names, p):
    used = set()
    for g in polys:
        used.update(str(s) for s in g.free_symbols)
    keep = [n for n in names if n in used]
    out = set()
    for g in polys:
        if keep:
            terms = sympy.Poly(g, *[sympy.Symbol(n) for n in keep]).terms()
        else:
            terms = [((), g)]
        out.add((tuple(keep), _normal([(e, _coeff(c)) for e, c in terms], p)))
    return frozenset(out)


def _coeff(c):
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def _groebner(exprs, names, order, p):
    gens = [sympy.Symbol(n) for n in names]
    kw = {"modulus": p} if p else {"domain": "QQ"}
    return list(sympy.groebner(exprs, *gens, order=order, **kw).exprs)


def _to_expr(f):
    expr = 0
    for mono, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for v, k in mono:
            term *= sympy.Symbol(_name(v)) ** k
        expr += term
    return expr


def basis(kind, ideal, extra, p):
    """Reduced basis sympy computes for one random-ideal call."""
    names = _sorted_names({_name(v) for v in ideal.ambient})
    exprs = [_to_expr(g) for g in ideal.gens]
    if kind in ("grevlex", "lex"):
        return _sympy_set(_groebner(exprs, names, kind, p), names, p)
    if kind == "eliminate":
        drop = [_name(v) for v in extra]
        keep = [n for n in names if n not in drop]
    else:
        drop = ["z1"]
        keep = names
        exprs = exprs + [1 - sympy.Symbol("z1") * _to_expr(extra)]
    lex = _groebner(exprs, drop + keep, "lex", p)
    dropped = {sympy.Symbol(n) for n in drop}
    elim = [g for g in lex if not (g.free_symbols & dropped)]
    if not elim:
        return frozenset()
    return _sympy_set(_groebner(elim, keep, "grevlex", p), keep, p)


def contraction_basis(n, q, p):
    """Reduced grevlex basis of the predicted difference-power ideal."""
    names = ["x%d" % i for i in range(1, n + 1)]
    xs = [sympy.Symbol(s) for s in names]
    exprs = []
    for i in range(n):
        for j in range(i + 1, n):
            exp = q[i] + q[j] - 1 if p == 0 else q[0]
            exprs.append((xs[i] - xs[j]) ** exp)
    return _sympy_set(_groebner(exprs, names, "grevlex", p), names, p)


def parse_text(text):
    """A polynomial printed by symprime, read by sympy's own parser."""
    return parse_expr(text, transformations=standard_transformations + (convert_xor,))


def evaluate(expr, point):
    """Value of an expression in t1..tr at a rational point."""
    subs = {sympy.Symbol("t%d" % (i + 1)): sympy.Rational(c.numerator, c.denominator)
            for i, c in enumerate(map(Fraction, point))}
    return expr.subs(subs)
