"""The Groebner kernel against sympy, and the packed monomials it runs on.

Bases are compared as sets of monic polynomials, each a frozenset of
(exponent tuple over the ambient variables, coefficient) items, with
GF(p) coefficients reduced to [0, p).  Eliminations, saturations and
intersections are compared by mutual membership: each of symprime's
generators lies in sympy's ideal, and each of sympy's in symprime's.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from symprime import groebner
from symprime.groebner import (Budget, BudgetExceededError, Ideal,
                               MonomialOrder, eliminate, groebner_basis,
                               ideal_intersect, ideal_member, radical_member, saturate)
from symprime.poly import (FAMILIES, GF, PackedLayout, Poly, QQ, mono_divides, mono_lcm,
                           mono_mul, parse, tvar, var_key)

P = 32003
SMALL = st.integers(-3, 3).filter(bool)
# non-integer rationals, so the fraction-free kernel clears denominators
FRACTIONS = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool),
                      st.integers(1, 50))
# (field, coefficient strategy) per test id
FIELDS = {"QQ": (QQ, SMALL), "GF32003": (GF(P), SMALL), "QQfrac": (QQ, FRACTIONS)}


def _symbols(nvars):
    return [sympy.Symbol("t%d" % i) for i in range(1, nvars + 1)]


def _poly(items, nvars, field):
    """symprime polynomial from (coefficient, exponent tuple) items."""
    return Poly.from_terms(
        [(tuple((tvar(i + 1), k) for i, k in enumerate(exps) if k), c)
         for c, exps in items], field)


def _expr(f):
    total = sympy.Integer(0)
    for mono, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for (_fam, i), k in mono:
            term *= sympy.Symbol("t%d" % i) ** k
        total += term
    return total


def _from_sympy(g, nvars, field):
    gens = _symbols(nvars)
    items = sympy.Poly(g, *gens).as_dict().items()
    if field.char:
        return _poly([(int(c) % P, e) for e, c in items], nvars, field)
    return _poly([(Fraction(int(c.p), int(c.q)), e) for e, c in items], nvars, field)


def _monic_set(polys, nvars, p):
    out = set()
    for f in polys:
        items = []
        for mono, c in f.terms.items():
            exps = [0] * nvars
            for (_fam, i), k in mono:
                exps[i - 1] = k
            items.append((tuple(exps), Fraction(c) if p == 0 else int(c) % p))
        lead = max(items)[1]  # any fixed term serves: both sides are monic
        inv = 1 / lead if p == 0 else pow(lead, -1, p)
        out.add(frozenset((e, c * inv if p == 0 else c * inv % p) for e, c in items))
    return frozenset(out)


def _sympy_groebner(polys, gens, order, field):
    kw = {"modulus": P} if field.char else {"domain": "QQ"}
    return sympy.groebner(polys, *gens, order=order, **kw)


@st.composite
def ideals(draw, nvars, maxexp=2, ngens=3, coeffs=SMALL):
    """Up to ngens generators of 1-3 terms, each exponent at most maxexp."""
    exps = st.tuples(*[st.integers(0, maxexp)] * nvars)
    term = st.tuples(coeffs, exps)
    return [draw(st.lists(term, min_size=1, max_size=3))
            for _ in range(draw(st.integers(1, ngens)))]


def _ideal(gens_items, nvars, field):
    gens = [_poly(items, nvars, field) for items in gens_items]
    return Ideal(gens, ambient=tuple(tvar(i) for i in range(1, nvars + 1)), field=field)


@pytest.mark.parametrize("field", FIELDS, ids=list(FIELDS))
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_groebner_basis_matches_sympy(kind, field, data):
    field, coeffs = FIELDS[field]
    nvars = data.draw(st.integers(2, 4))
    # sympy's lex bases of dense ideals in 4 variables can take minutes
    maxexp = 1 if kind == "lex" and nvars == 4 else 2
    I = _ideal(data.draw(ideals(nvars, maxexp, coeffs=coeffs)), nvars, field)
    assume(I.gens)
    order = getattr(MonomialOrder, kind)(I.ambient)
    got = groebner_basis(I, order).gens
    want = _sympy_groebner([_expr(g) for g in I.gens], _symbols(nvars), kind, field)
    assert (_monic_set(got, nvars, field.char)
            == _monic_set([_from_sympy(g, nvars, field) for g in want.exprs],
                          nvars, field.char))


def _sympy_eliminate(exprs, drop, keep, field, nvars):
    """Generators of the elimination ideal, from sympy's lex basis with the
    dropped symbols first, as symprime polynomials."""
    G = _sympy_groebner(exprs, drop + keep, "lex", field)
    dropped = set(drop)
    kept = [g for g in G.exprs if not (g.free_symbols & dropped)]
    return kept, [_from_sympy(g, nvars, field) for g in kept]


def _mutual_membership(R, kept_exprs, kept_polys, keep, field):
    if kept_exprs:
        G = _sympy_groebner(kept_exprs, keep, "lex", field)
        assert all(G.contains(_expr(g)) for g in R.gens)
    else:
        assert R.gens == ()
    assert all(ideal_member(g, R) for g in kept_polys)


@pytest.mark.parametrize("field", FIELDS, ids=list(FIELDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_eliminate_saturate_intersect_match_sympy(field, data):
    field, coeffs = FIELDS[field]
    nvars = data.draw(st.integers(2, 3))
    # sympy eliminates by a lex basis over every variable and z, which
    # takes minutes on some dense ideals in four variables
    maxexp = 2 if nvars == 2 else 1
    syms = _symbols(nvars + 1)
    gens, z = syms[:nvars], syms[nvars]
    I = _ideal(data.draw(ideals(nvars, maxexp, coeffs=coeffs)), nvars, field)
    J = _ideal(data.draw(ideals(nvars, maxexp, ngens=2, coeffs=coeffs)), nvars, field)
    assume(I.gens and J.gens)
    I_exprs = [_expr(g) for g in I.gens]
    J_exprs = [_expr(g) for g in J.gens]

    R = eliminate(I, [tvar(1)])
    kept = _sympy_eliminate(I_exprs, gens[:1], gens[1:], field, nvars)
    _mutual_membership(R, *kept, gens[1:], field)

    f = _poly(data.draw(ideals(nvars, maxexp, ngens=1, coeffs=coeffs))[0], nvars, field)
    if not f.is_zero():
        R = saturate(I, f)
        kept = _sympy_eliminate(I_exprs + [1 - z * _expr(f)], [z], gens,
                                field, nvars)
        _mutual_membership(R, *kept, gens, field)

    R = ideal_intersect(I, J)
    kept = _sympy_eliminate([z * g for g in I_exprs] + [(1 - z) * h for h in J_exprs],
                            [z], gens, field, nvars)
    _mutual_membership(R, *kept, gens, field)


@pytest.mark.parametrize("field", ["QQ", "GF32003"])
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_a_wide_degree_bound_widens_the_fields(kind, field):
    # t2 = t1^200 and t1*t2 = 1: the basis passes through degree ~200
    field = FIELDS[field][0]
    I = _ideal([[(1, (200, 0)), (-1, (0, 1))], [(1, (1, 1)), (-1, (0, 0))]], 2, field)
    order = getattr(MonomialOrder, kind)(I.ambient)
    with pytest.raises(BudgetExceededError):
        groebner_basis(I, order)  # the default bound is degree 120
    got = groebner_basis(I, order, Budget(max_degree=400)).gens
    assert max(g.degree() for g in got) > 100
    want = _sympy_groebner([_expr(g) for g in I.gens], _symbols(2), kind, field)
    assert (_monic_set(got, 2, field.char)
            == _monic_set([_from_sympy(g, 2, field) for g in want.exprs], 2, field.char))


# -- radical membership ------------------------------------------------------

def _sympy_radical_member(I, f, nvars, field):
    """sympy's answer: f is in the radical of I iff the reduced basis of
    I + (1 - z*f) is (1)."""
    z = sympy.Symbol("z")
    exprs = [_expr(g) for g in I.gens] + [1 - z * _expr(f)]
    return _sympy_groebner(exprs, _symbols(nvars) + [z], "grevlex", field).exprs == [1]


@st.composite
def radical_cases(draw, field, coeffs):
    """(I, f, nvars) with I of one of three kinds: random generators;
    products of powers of small generators, which are rarely radical; or
    linear generators, whose reduced basis has squarefree (linear)
    leading monomials.  With products of powers f is often one of the
    small generators or their product."""
    nvars = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["random", "powers", "linear"]))
    if kind == "linear":
        exps = st.sampled_from([tuple(int(i == j) for i in range(nvars))
                                for j in range(nvars + 1)])
        items = st.lists(st.tuples(coeffs, exps), min_size=1, max_size=3)
        gens = [_poly(draw(items), nvars, field)
                for _ in range(draw(st.integers(1, nvars)))]
    else:
        base = [_poly(items, nvars, field)
                for items in draw(ideals(nvars, 2 if kind == "random" else 1,
                                         coeffs=coeffs))]
        if kind == "random":
            gens = base
        else:
            powers = st.lists(st.integers(0, 2), min_size=len(base), max_size=len(base))
            gens = []
            for _ in range(draw(st.integers(1, 2))):
                g = Poly.const(1, field)
                for b, k in zip(base, draw(powers)):
                    g = g * b ** k
                gens.append(g)
    I = Ideal(gens, ambient=tuple(tvar(i) for i in range(1, nvars + 1)), field=field)
    f = _poly(draw(ideals(nvars, 2, ngens=1, coeffs=coeffs))[0], nvars, field)
    if kind == "powers":
        # the product of the small generators vanishes wherever I does
        product = Poly.const(1, field)
        for b in base:
            product = product * b
        f = draw(st.sampled_from([f, product] + base))
    return I, f, nvars


@pytest.mark.parametrize("field", ["QQ", "GF32003"])
# repeatable draws: on some random draws sympy's own Buchberger runs for minutes
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_radical_member_matches_sympy(field, data):
    field, coeffs = FIELDS[field]
    I, f, nvars = data.draw(radical_cases(field, coeffs))
    assert radical_member(f, I) == _sympy_radical_member(I, f, nvars, field)


# (generators, ambient size, f, answer, whether the Rabinowitsch fallback runs)
RADICAL_EXAMPLES = [
    (["t1*t2"], 2, "t1*t2", True, False),
    (["t1*t2"], 2, "t1", False, False),
    (["t1^2"], 1, "t1", True, True),
    (["t1^2+t2^2-1"], 2, "t1", False, True),
    (["t1^2+t2^2-1"], 2, "t1*(t1^2+t2^2-1)", True, False),
    ([], 2, "t1", False, False),
    ([], 2, "0", True, False),
    (["1"], 2, "t1", True, False),
    (["t1"], 1, "t2", False, False),
    (["t1"], 1, "t1*t2", True, False),
    (["t1^2"], 1, "t1*t2", True, True),
]


@pytest.mark.parametrize("field", ["QQ", "GF32003"])
@pytest.mark.parametrize("gens, n, f, answer, fallback", RADICAL_EXAMPLES)
def test_radical_member_examples_match_sympy(gens, n, f, answer, fallback, field,
                                             monkeypatch):
    field = FIELDS[field][0]
    I = Ideal([parse(g, field) for g in gens], ambient=tuple(tvar(i) for i in range(1, n + 1)),
              field=field)
    f = parse(f, field)
    calls = []
    real = groebner._rabinowitsch

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(groebner, "_rabinowitsch", counted)
    assert radical_member(f, I) == answer
    assert bool(calls) == fallback
    assert _sympy_radical_member(I, f, 2, field) == answer


# -- packed monomials -------------------------------------------------------

variables = st.tuples(st.sampled_from(FAMILIES), st.integers(1, 4))
monomials = st.dictionaries(variables, st.integers(1, 4), max_size=4).map(
    lambda d: tuple(sorted(d.items(), key=lambda it: var_key(it[0]))))
kinds = st.sampled_from(["lex", "grevlex", "block"])


def _order(kind, used, split):
    used = sorted(used, key=var_key)
    split %= len(used) + 1
    if kind == "lex":
        return MonomialOrder.lex(used[split:] + used[:split])
    if kind == "grevlex":
        return MonomialOrder.grevlex(used)
    return MonomialOrder.block(used[:split], used[split:])


def _pack(layout, m):
    return layout.pack({m: 1})[0][0][0]


@settings(max_examples=300, deadline=None)
@given(kinds, st.lists(monomials, min_size=1, max_size=10, unique=True),
       st.sets(variables, max_size=3), st.integers(0, 12), st.integers(0, 40))
def test_packed_monomials_follow_the_order(kind, monos, extra, split, slack):
    order = _order(kind, {v for m in monos for v, _ in m} | extra, split)
    layout = PackedLayout(order, max(sum(k for _, k in m) for m in monos) + slack)
    packed = {m: _pack(layout, m) for m in monos}
    f = layout._width + 1  # bits per field, guard included
    key_shifts = [f * (len(layout.fields) + order._width - j)
                  for j in range(order._width)]
    for m, p in packed.items():
        assert layout.unpack(p) == m
        # the top fields, most significant first, are the order's key
        assert tuple(p >> s & layout.mask for s in key_shifts) == order.key(m)
    assert sorted(monos, key=packed.__getitem__) == sorted(monos, key=order.key)
    for a in monos:
        for b in monos:
            pa, pb = packed[a], packed[b]
            assert (not (pb - pa) & layout.guard) == mono_divides(a, b)
            assert layout.lcm(pa, pb) == _pack(layout, mono_lcm(a, b))
            assert pa + pb == _pack(layout, mono_mul(a, b))


@settings(max_examples=200, deadline=None)
@given(kinds, monomials, st.sets(variables, max_size=6), st.integers(0, 6))
def test_packing_outside_the_order_raises_as_the_key_does(kind, mono, ambient, split):
    if not ambient:
        ambient = {("x", 1)}
    order = _order(kind, ambient, split)
    layout = PackedLayout(order, 16)
    try:
        order.key(mono)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            layout.pack({mono: 1})
        assert str(got.value) == str(exc)
    else:
        assert layout.unpack(_pack(layout, mono)) == mono
