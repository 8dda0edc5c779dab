"""Exact divisibility reads its leading terms on packed monomials; it is
checked against the tuple loop it replaced."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symprime import groebner
from symprime.groebner import poly_divides
from symprime.poly import GF, Poly, QQ, mono_degree, mono_div, parse, tvar, var_key, xvar

from reference import exponent_vector_key, mono_divides

P = 32003
VARIABLES = (xvar(1), xvar(2), xvar(3), tvar(1))
# QQ with fractions and either sign; GF(7), where many coefficients
# vanish; GF(P) with residues of any size
FIELDS = st.sampled_from([
    (QQ, st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-9, 9),
                                                 st.integers(2, 5)))),
    (GF(7), st.integers(-10, 10)),
    (GF(P), st.integers(0, P - 1)),
])
monomials = st.dictionaries(st.sampled_from(VARIABLES), st.integers(1, 2), max_size=3).map(
    lambda d: tuple(sorted(d.items(), key=lambda it: var_key(it[0]))))


def polys(field, coefficients, max_terms=4):
    return st.lists(st.tuples(monomials, coefficients), max_size=max_terms).map(
        lambda items: Poly.from_terms(items, field))


def nonzero_polys(field, coefficients):
    return polys(field, coefficients).filter(lambda f: not f.is_zero())


def oracle_poly_divides(d, f):
    """Single-divisor division as it ran on tuple monomials: rescan the
    canonical leading term and rebuild the remainder at every step."""
    if d.is_zero():
        return f.is_zero()
    if f.is_zero():
        return True
    field = f.field
    key = exponent_vector_key(d.variables() | f.variables())
    lm_d = max(d.terms, key=key)
    lc_d = d.terms[lm_d]
    rem = f
    while not rem.is_zero():
        lm = max(rem.terms, key=key)
        if not mono_divides(lm_d, lm):
            return False
        c = field.mul(rem.terms[lm], field.inv(lc_d))
        rem = rem - d * Poly(field, {mono_div(lm, lm_d): c})
    return True


@st.composite
def divisibility_cases(draw):
    field, coefficients = draw(FIELDS)
    nonzero = nonzero_polys(field, coefficients)
    d = draw(st.one_of(nonzero, nonzero, nonzero,
                       st.just(Poly.zero(field)),
                       coefficients.map(lambda c: Poly.const(c, field))))
    q = draw(nonzero)
    case = draw(st.sampled_from(["multiple", "below", "zero", "any", "foreign"]))
    if case == "multiple":
        f = d * q
    elif case == "below":
        # r lies below the lead of d*q, so the first step divides and a
        # later one may not
        f = d * q
        r = draw(polys(field, coefficients))
        f = f + Poly(field, {m: c for m, c in r.terms.items() if mono_degree(m) < f.degree()})
    elif case == "zero":
        f = Poly.zero(field)
    elif case == "any":
        f = draw(polys(field, coefficients))
    else:  # d in a variable that f lacks
        d = d + Poly.variable(tvar(9), field)
        f = draw(polys(field, coefficients))
    return d, f


@settings(max_examples=600, deadline=None)
@given(divisibility_cases())
def test_poly_divides_matches_the_tuple_loop(case):
    d, f = case
    assert poly_divides(d, f) == oracle_poly_divides(d, f)


def test_poly_divides_is_one_packed_division(monkeypatch, leading_calls):
    calls = []
    real = groebner._divide

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(groebner, "_divide", counted)
    d = parse("x1 - x2")
    assert poly_divides(d, d ** 3 * parse("x1^2 + x2^2 - 1"))
    assert len(calls) == 1
    assert not poly_divides(d, d ** 3 + parse("x3"))
    assert len(calls) == 2
    assert leading_calls == []


def test_poly_divides_refuses_mixed_fields():
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        poly_divides(parse("x1 - 2", GF(7)), parse("1/7*x1 - 2/7"))
