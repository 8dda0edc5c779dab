"""QQ keeps integral coefficients as int and all others as reduced Fraction."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from symprime.poly import Poly, QQ, divide_out, xvar

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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 3, 32003]), st.integers(2, 100_000), st.data())
def test_divide_out_matches_fraction_and_pow(p, d, data):
    # keys are arbitrary; coefficients are ints, some of them multiples of
    # d (and of p), some zero
    assume(d % p if p else True)
    ints = st.integers(-10**6, 10**6)
    cs = data.draw(st.lists(ints | ints.map(lambda k: k * d) | st.just(p or 0), max_size=8))
    pairs = list(enumerate(cs))
    got = divide_out(pairs, d, p)
    if p:
        inv = pow(d, p - 2, p)  # Fermat's little theorem
        assert got == {m: c * inv % p for m, c in pairs if c % p}
        assert all(type(c) is int and 0 < c < p for c in got.values())
    else:
        expected = {m: Fraction(c, d) for m, c in pairs if c}
        assert got == expected
        for m, c in got.items():
            assert_normal(c, expected[m])
