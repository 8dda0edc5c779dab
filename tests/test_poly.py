"""Polynomial arithmetic, parsing, printing, and discriminants."""

import itertools
import random

import pytest

from symprime.poly import (GF, ParseError, Poly, QQ, discriminant, parse,
                           poly_divides, tvar, xvar)


def test_parse_literals():
    assert parse("x1 - x2") == Poly.variable(xvar(1)) - Poly.variable(xvar(2))
    f = parse("t1^2 + t2^2 - 1")
    assert f == Poly.variable(tvar(1)) ** 2 + Poly.variable(tvar(2)) ** 2 - 1
    assert parse("(x1-x2)^3") == (parse("x1") - parse("x2")) ** 3


def test_parse_rationals_and_signs():
    assert parse("1/2") == Poly.const("1/2")
    assert parse("-3/4 + x1") == parse("x1") - Poly.const("3/4")
    assert parse("x1 - -3") == parse("x1") + 3
    assert parse("0").is_zero()


@pytest.mark.parametrize("bad", ["2x1", "y1", "x0", "x", "x1^-1", "x1 +",
                                 "(x1", "x1/2", "1/0", "x1**2"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + y2")
    assert "position 5" in str(err.value)


def test_canonical_printing():
    assert str(parse("(x1-x2)^3")) == "x1^3 - 3*x1^2*x2 + 3*x1*x2^2 - x2^3"
    assert str(Poly.zero()) == "0"
    assert str(parse("-x1 + 1/2")) == "-x1 + 1/2"
    assert str(parse("x1 + t1*e1^2")) == "t1*e1^2 + x1"
    assert str(parse("x1*t1^2 + x2^3")) == "x2^3 + x1*t1^2"
    assert str(parse("e1*t1 + t1*x1 + x1*e1 + e1^2 + t1^2 + x1^2 + 1")) == (
        "x1^2 + x1*t1 + t1^2 + x1*e1 + t1*e1 + e1^2 + 1")
    mixed = ("x1^2*t1 + t1^3 + x3*t2*e1 - 3*t2*e1^2 - 2/3*t1*e2^2"
             " + 1/2*x2*e3 - e2 + 7")
    assert str(parse("7 - e2 + 1/2*x2*e3 - 2/3*t1*e2^2 + t1^3 + x3*t2*e1"
                     " - 3*t2*e1^2 + x1^2*t1")) == mixed
    assert str(parse(mixed)) == mixed


def _random_poly(rng, nvars=3, nterms=4, maxdeg=3, field=QQ):
    out = Poly.zero(field)
    for _ in range(rng.randint(0, nterms)):
        term = Poly.const(rng.randint(-5, 5), field)
        for i in range(1, nvars + 1):
            term = term * Poly.variable(xvar(i), field) ** rng.randint(0, maxdeg)
        out = out + term
    return out


@pytest.mark.parametrize("seed", range(40))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    a, b, c = (_random_poly(rng) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Poly.zero()
    assert a * 1 == a and a * 0 == Poly.zero()


@pytest.mark.parametrize("seed", range(25))
def test_print_parse_roundtrip(seed):
    rng = random.Random(1000 + seed)
    f = _random_poly(rng, nterms=6)
    assert parse(str(f)) == f


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_gf(seed):
    rng = random.Random(2000 + seed)
    f = _random_poly(rng, field=GF(7))
    assert parse(str(f), field=GF(7)) == f


def test_substitute_simultaneous():
    f = parse("x1 - x2")
    image = f.substitute({xvar(1): parse("t1 + e1"), xvar(2): parse("t1 + e2")})
    assert image == parse("e1 - e2")
    # simultaneous, not sequential: swapping variables
    g = parse("x1 + 2*x2")
    swapped = g.substitute({xvar(1): parse("x2"), xvar(2): parse("x1")})
    assert swapped == parse("2*x1 + x2")


def test_sub_of_square_leaves_cross_term():
    sq = parse("(e1 - e2)^2")
    dropped = Poly.from_terms(
        (m, c) for m, c in sq.terms.items()
        if all(k < 2 for _, k in m))
    assert dropped == parse("-2*e1*e2")


def test_derivative():
    f = parse("x1^3 - 3*x1*x2")
    assert f.derivative(xvar(1)) == parse("3*x1^2 - 3*x2")
    assert f.derivative(xvar(2)) == parse("-3*x1")
    assert parse("5").derivative(xvar(1)).is_zero()


def test_evaluate():
    from fractions import Fraction
    f = parse("x1^2 + x2 - 1/2")
    assert f.evaluate({xvar(1): Fraction(1, 2), xvar(2): Fraction(3)}) == Fraction(11, 4)


def test_discriminant_small():
    assert discriminant([1]) == 1
    assert discriminant([1, 2]) == parse("x1 - x2")
    assert discriminant([1, 2, 3]) == parse("(x1-x2)*(x1-x3)*(x2-x3)")
    assert discriminant([2, 1]) == parse("x2 - x1")
    with pytest.raises(ValueError):
        discriminant([])


def _sign(perm):
    flips = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                if perm[i] > perm[j])
    return -1 if flips % 2 else 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_discriminant_alternating_sum(n):
    # independent oracle: signed sum over permutations of falling powers
    total = Poly.zero()
    for perm in itertools.permutations(range(1, n + 1)):
        term = Poly.const(_sign(perm))
        for pos, idx in enumerate(perm):
            term = term * Poly.variable(xvar(idx)) ** (n - 1 - pos)
        total = total + term
    assert total == discriminant(range(1, n + 1))


def test_poly_divides():
    f = parse("(x1-x2)^3*(x1^2+x2^2-1)")
    assert poly_divides(parse("(x1-x2)^2"), f)
    assert poly_divides(parse("x1^2+x2^2-1"), f)
    assert not poly_divides(parse("x1-x3"), f)
    assert poly_divides(f, Poly.zero())
    assert not poly_divides(Poly.zero(), f)


def test_gf_arithmetic():
    two = GF(2)
    f = parse("x1 + x2", field=two)
    assert f * f == parse("x1^2 + x2^2", field=two)
    with pytest.raises(ValueError):
        GF(6)
