"""The canonical monomial order agrees with grevlex over any ambient, and
printing and leading terms follow it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from symprime.generators import sign_normalize
from symprime.groebner import MonomialOrder
from symprime.poly import FAMILIES, GF, Poly, QQ, product, var_key, var_name, xvar

from reference import exponent_vector_key

variables = st.tuples(st.sampled_from(FAMILIES), st.integers(1, 4))
monomials = st.dictionaries(variables, st.integers(1, 4), max_size=4).map(
    lambda d: tuple(sorted(d.items(), key=lambda it: var_key(it[0]))))


@settings(max_examples=300, deadline=None)
@given(st.lists(monomials, min_size=1, max_size=12, unique=True),
       st.sets(variables, max_size=4))
def test_grevlex_key_is_the_exponent_vector_order(monos, extra):
    used = {v for m in monos for v, _ in m}
    expected = sorted(monos, key=exponent_vector_key(used))
    assert sorted(monos, key=exponent_vector_key(used | extra)) == expected
    assert sorted(monos, key=MonomialOrder.grevlex(used).key) == expected
    assert sorted(monos, key=MonomialOrder.grevlex(used | extra).key) == expected


def reference_text(f):
    """The canonical print, terms sorted by grevlex over f's variables."""
    words = []
    for m in sorted(f.terms, key=exponent_vector_key(f.variables()), reverse=True):
        c = f.terms[m]
        sign, mag = ("-", -c) if f.field.char == 0 and c < 0 else ("+", c)
        mono = "*".join(var_name(v) if k == 1 else "%s^%d" % (var_name(v), k)
                        for v, k in m)
        body = str(mag) if not m else mono if mag == 1 else "%s*%s" % (mag, mono)
        words.append((sign, body))
    if not words:
        return "0"
    first = ("-" if words[0][0] == "-" else "") + words[0][1]
    return " ".join([first] + ["%s %s" % w for w in words[1:]])


coefficients = st.one_of(st.integers(-20, 20).filter(bool),
                         st.builds(Fraction, st.integers(-20, 20).filter(bool),
                                   st.integers(2, 6)))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(monomials, coefficients, min_size=1, max_size=12),
       st.sampled_from([0, 7, 32003]))
def test_print_and_lead_follow_canonical_key(terms, char):
    field = GF(char) if char else QQ
    f = Poly.from_terms(terms.items(), field)
    assert str(f) == reference_text(f)
    if f.terms and char == 0:
        assert sign_normalize(f).terms[max(f.terms, key=exponent_vector_key(f.variables()))] > 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(monomials, coefficients, min_size=1, max_size=5),
                min_size=2, max_size=4),
       st.sampled_from([0, 7, 32003]))
def test_products_print_as_their_terms_built_unordered(factors, char):
    field = GF(char) if char else QQ
    polys = [Poly.from_terms(t.items(), field) for t in factors]
    prod = product(polys, field)
    assert prod.ordered or prod.is_zero()
    # the same terms in reversed dict order, printed through the sort
    plain = Poly.from_terms(reversed(prod.terms.items()), field)
    assert not plain.ordered
    assert str(prod) == str(plain) == reference_text(plain)
    assert str(-prod) == str(-plain)
    assert prod.degree() == (-prod).degree() == plain.degree()
    big = polys[0] * polys[1]  # the operator's packed branch past 12 term pairs
    assert str(big) == reference_text(big)
    assert big.degree() == Poly.from_terms(big.terms.items(), field).degree()
    # + appends new terms and rename re-sorts nothing: neither keeps the flag
    added = prod + Poly.variable(xvar(5), field) ** 9
    assert str(added) == reference_text(added)
    swapped = prod.rename({xvar(1): xvar(2), xvar(2): xvar(1), ("t", 1): xvar(3)})
    assert str(swapped) == reference_text(swapped)
