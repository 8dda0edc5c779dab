"""QQ keeps integral coefficients as int and all others as reduced Fraction."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from symprime.poly import Poly, QQ, xvar

fractions = st.fractions(max_denominator=12) | st.integers(-50, 50).map(Fraction)


def assert_normal(result, expected):
    assert result == expected
    assert type(result) is (int if expected.denominator == 1 else Fraction)


@settings(max_examples=300, deadline=None)
@given(fractions, fractions)
def test_field_operations_match_fraction(a, b):
    assert_normal(QQ.coerce(a), a)
    assert_normal(QQ.coerce(a.numerator), a.numerator)
    ca, cb = QQ.coerce(a), QQ.coerce(b)
    assert_normal(QQ.add(ca, cb), a + b)
    assert_normal(QQ.mul(ca, cb), a * b)
    assert_normal(QQ.neg(ca), -a)
    assume(a != 0)
    assert_normal(QQ.inv(ca), 1 / a)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), fractions), max_size=6))
def test_int_and_fraction_coefficients_give_equal_polys(items):
    terms = {}
    for i, j, c in items:
        if c:
            terms[tuple((xvar(k), e) for k, e in ((1, i), (2, j)) if e)] = c
    as_fraction = Poly(QQ, {m: Fraction(c) for m, c in terms.items()})
    as_normal = Poly(QQ, {m: QQ.coerce(c) for m, c in terms.items()})
    assert as_fraction == as_normal
    assert hash(as_fraction) == hash(as_normal)
    assert str(as_fraction) == str(as_normal)
    assert Poly.from_terms(as_fraction.terms.items()).terms == as_normal.terms
