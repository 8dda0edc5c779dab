"""Polynomial arithmetic, parsing, printing, and discriminants."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from symprime import poly
from symprime.groebner import poly_divides
from symprime.poly import (FAMILIES, GF, InputError, ParseError, Poly, QQ, discriminant,
                           mono_mul, parse, tvar, xvar)


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


@pytest.mark.parametrize("text, pos", [
    ("x1^\u00b2", 3), ("x\u00b2", 0), ("1" * 5000 + "*x1", 0),
    ("x1 + x" + "1" * 5000, 6), ("3/" + "2" * 5000, 2)],
    ids=["superscript exponent", "superscript index", "5000-digit coefficient",
         "5000-digit index", "5000-digit denominator"])
def test_digit_runs_int_refuses_are_parse_errors(text, pos):
    # a superscript is a digit to str.isdigit but not to int(), and int()
    # refuses runs past its digit limit
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.pos == pos


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="parentheses nested too deeply"):
        parse("(" * 5000 + "x1" + ")" * 5000)
    # no depth limit of its own: nesting the stack holds parses
    assert parse("(" * 150 + "x1" + ")" * 150) == parse("x1")


def test_decimal_digits_of_any_script_parse():
    assert parse("\u0663*x\u0661 + x12") == parse("3*x1 + x12")


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


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("seed", range(10))
def test_a_sum_parses_as_its_terms_added_in_turn(field, seed):
    # same terms in the same dict order as adding each parsed term as a
    # Poly; repeated summands make terms cancel and come back
    rng = random.Random(4000 + seed)
    pool = [parse(str(_random_poly(rng, field=field)), field) for _ in range(3)]
    summands = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
    ops = [rng.choice("+-") for _ in summands[1:]]
    text = "(%s)" % summands[0] + "".join(" %s (%s)" % (op, g)
                                          for op, g in zip(ops, summands[1:]))
    want = summands[0]
    for op, g in zip(ops, summands[1:]):
        want = want + g if op == "+" else want - g
    got = parse(text, field)
    assert list(got.terms.items()) == list(want.terms.items()), text


def test_a_long_sum_is_not_added_one_poly_per_term(monkeypatch):
    # adding each term as a Poly copied the sum so far: parsing the print
    # of the 7080-term product over i < j <= 5 took about a second, and a
    # 56,183-term print about 27 s
    v = [Poly.variable(xvar(i)) for i in range(1, 5)]
    f = poly.product([(a - b) ** 3 for a, b in itertools.combinations(v, 2)])
    text = str(f)
    adds = []
    add = Poly.__add__

    def counted(self, other):
        adds.append(other)
        return add(self, other)
    monkeypatch.setattr(Poly, "__add__", counted)
    g = parse(text)
    assert len(f.terms) == 384 and adds == []
    assert g == f and str(g) == text


def test_rename_simultaneous():
    # simultaneous, not sequential: swapping variables
    g = parse("x1 + 2*x2 + x1^3*t1")
    swapped = g.rename({xvar(1): xvar(2), xvar(2): xvar(1)})
    assert swapped == parse("2*x1 + x2 + x2^3*t1")
    # across families, with every monomial re-sorted
    assert g.rename({xvar(1): tvar(2), tvar(1): xvar(3)}) == parse("t2 + 2*x2 + x3*t2^3")


def test_rename_merges_variables_sent_to_one():
    f = parse("x1^2*x2 + x2*x3 + x1*x3 + 1")
    merged = f.rename({xvar(2): xvar(1), xvar(3): xvar(1)})
    assert merged == parse("x1^3 + 2*x1^2 + 1")
    assert merged.terms[((xvar(1), 2),)] == 2
    assert parse("x1 - x2").rename({xvar(2): xvar(1)}).is_zero()


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


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_derivative_follows_the_power_rule(field):
    f = parse("x1^7 + 2/3*x1^3*x2^2 - 5*x1*t1 + x2^4 + 1", field)
    for v in (xvar(1), xvar(2), tvar(1), tvar(2)):
        expected = Poly.from_terms(
            ((tuple((w, k - (w == v)) for w, k in m if w != v or k > 1),
              field.mul(c, field.coerce(dict(m)[v])))
             for m, c in f.terms.items() if v in dict(m)), field)
        assert f.derivative(v) == expected
    # d/dx1 x1^7 = 7*x1^6, which is 0 over GF(7)
    seventh = parse("x1^7", field).derivative(xvar(1))
    assert seventh == (parse("7*x1^6") if field is QQ else Poly.zero(field))


def test_evaluate():
    from fractions import Fraction
    f = parse("x1^2 + x2 - 1/2")
    assert f.evaluate({xvar(1): Fraction(1, 2), xvar(2): Fraction(3)}) == Fraction(11, 4)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_evaluate_matches_a_per_term_sum(field):
    rng = random.Random(7)
    values = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
              if field is QQ else [rng.randint(-20, 20) for _ in range(3)])
    point = {xvar(i + 1): v for i, v in enumerate(values)}
    f = parse("3*x1^5*x2 - 1/2*x2^3*x3^2 + 5*x1*x3^4 + x2^9 - 4", field)
    expected = sum(Fraction(c) * math.prod(Fraction(point[v]) ** k for v, k in m)
                   for m, c in f.terms.items())
    assert f.evaluate(point) == field.coerce(expected)


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


# ---------------------------------------------------------------------------
# products against the tuple reference

def reference_product(a, b):
    """a * b one tuple monomial and one field operation at a time."""
    f = a.field
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = mono_mul(m1, m2)
            out[m] = f.add(out.get(m, f.coerce(0)), f.mul(c1, c2))
    return {m: c for m, c in out.items() if c}


def reference_fold(factors, field):
    """The product of a list of factors: reference_product folded from 1."""
    out = Poly.const(1, field)
    for f in factors:
        out = Poly(field, reference_product(out, f))
    return out.terms


def assert_chain_matches_the_fold(factors, field):
    got = poly.product(factors, field)
    assert got.field is field
    assert got.terms == reference_fold(factors, field)
    # integral values are ints over QQ, residues are ints over GF(p)
    assert all(type(c) is int or (field is QQ and c.denominator != 1)
               for c in got.terms.values())


def _coeff(rng, field):
    """A nonzero coefficient: half of those over QQ non-integral."""
    if field.char:
        return rng.randint(1, field.char - 1)
    if rng.random() < 0.5:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(2, 50))
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _sparse_poly(rng, field, variables, nterms, maxexp):
    terms = {}
    for _ in range(nterms):
        m = {v: rng.randint(1, maxexp) for v in rng.sample(variables, rng.randint(0, 3))}
        terms[tuple(sorted(m.items(), key=lambda it: poly.var_key(it[0])))] = _coeff(rng, field)
    return Poly.from_terms(terms.items(), field)


ALL_FAMILIES = [(fam, i) for fam in FAMILIES for i in (1, 2, 3)]


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(3)], ids=["QQ", "GF32003", "GF3"])
@pytest.mark.parametrize("seed", range(30))
def test_products_match_the_tuple_reference(field, seed):
    rng = random.Random(seed)
    pairs = set()
    for na, nb in ((1, 1), (1, 6), (3, 4), (2, 12), (5, 5), (12, 9)):
        a = _sparse_poly(rng, field, ALL_FAMILIES, na, rng.choice((2, 5, 40)))
        b = _sparse_poly(rng, field, ALL_FAMILIES, nb, rng.choice((2, 5, 40)))
        product = a * b
        assert product.terms == reference_product(a, b)
        assert all(type(c) is int for c in product.terms.values()) or field is QQ
        pairs.add(len(a.terms) * len(b.terms) >= poly._PACKED_PAIRS)
    assert pairs == {False, True}  # both the tuple and the packed path ran
    for n in (0, 1, 2, 5):
        chain = [_sparse_poly(rng, field, ALL_FAMILIES, rng.randint(1, 6), rng.choice((2, 5, 40)))
                 for _ in range(n)]
        assert_chain_matches_the_fold(chain, field)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=["QQ", "GF5", "GF32003"])
def test_packed_products_edge_cases(field):
    P = lambda text: parse(text, field=field)  # noqa: E731
    cases = [
        # terms cancel: every cross term of (x - y)(x + y), and over GF(5)
        # every middle binomial coefficient of (x + t)^5
        (P("x1 - t2 + e1 + x2 + 1"), P("x1 + t2 - e1 + x2 - 1")),
        (P("(x1 + t1)^4"), P("x1 + t1")),
        # constants and disjoint variables
        (P("7"), P("x1^2 + t1 + e1*x2 + 3")),
        (P("x1 + x2 + x3 + x4 + 1"), P("t1 + t2 + e1 + e2 + 2")),
        # exponents past the field width either operand alone would need
        (P("x1^33 + x1^2*t1 + e1^31 + 1"), P("x1^100 + t1^120 + e1^97 + x2 + 5")),
        (P("x1^7 + x2^7 + x3 + 1"), P("(x1 + x2)^9 - x3^40")),
    ]
    z = Poly.variable(poly.zvar(1), field)
    cases.append((z * z + P("x1") + 1, P("x1^3 + e1 + t1 + x2 + 3") * z - 2))
    cases.append((P("3"), P("-2")))
    for a, b in cases:
        expected = reference_product(a, b)
        # the packed path whatever the size, and the operator's choice
        assert poly._product([a.terms, b.terms], field.char) == expected
        assert poly._product([b.terms, a.terms], field.char) == expected
        assert (a * b).terms == expected
    if field.char == 5:
        assert P("(x1 + t1)^4") * P("x1 + t1") == P("x1^5 + t1^5")
    # chains: cross terms that cancel between factors, a zero factor,
    # fractional coefficients, and five of the edge cases above in one chain
    cancel = [P("x1 - x2"), P("x1 + x2"), P("x1^2 + x2^2")]
    assert poly.product(cancel, field) == P("x1^4 - x2^4")
    chains = [[], [P("x1 + 2*t1")], cancel, cancel + [P("x1^4 + x2^4"), P("x1^8 - x2^8")],
              [P("x1 + 1"), Poly.zero(field), P("t1 - e1")],
              [P("1/2*x1 - 2/3*t1"), P("3/4*x1^2 + e1"), P("x1 + 7/2"), P("2/3"), P("6*t1")],
              [a for a, _ in cases[:5]]]
    for chain in chains:
        assert_chain_matches_the_fold(chain, field)
    assert poly.product([], field) == 1 and poly.product(cancel[:1], field) is cancel[0]
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        poly.product([P("x1 + 1"), parse("x1 + 2", field=GF(7))], field)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(10))
def test_power_is_repeated_multiplication(field, seed):
    rng = random.Random(300 + seed)
    f = _sparse_poly(rng, field, ALL_FAMILIES[:6], rng.randint(1, 5), 3)
    expected = Poly.const(1, field)
    for n in range(7):
        assert f ** n == expected
        expected = Poly(field, reference_product(expected, f))


def test_identity_rename_returns_the_polynomial():
    f = parse("x1^2 - 3*x1*t2 + 1")
    assert f.rename({xvar(1): xvar(1), tvar(2): tvar(2), tvar(5): tvar(5)}) is f
    assert f.rename({}) is f
    assert f.rename({xvar(1): xvar(1), tvar(2): tvar(1)}) == parse("x1^2 - 3*x1*t1 + 1")


def test_rename_keeps_the_field():
    f = parse("3*x1^2 - x1*x2 + 5", GF(7))
    moved = f.rename({xvar(1): xvar(2), xvar(2): tvar(1)})
    assert moved.field is GF(7)
    assert moved == parse("3*x2^2 - x2*t1 + 5", GF(7))
    # 3*x1^2 + 4*x1^2 = 7*x1^2 = 0 in GF(7)
    g = parse("3*x1^2 + 4*x2^2 + x3", GF(7))
    assert g.rename({xvar(2): xvar(1)}) == parse("x3", GF(7))


def test_text_is_printed_once():
    f = parse("(x1 - x2)^3 + t1")
    assert str(f) is str(f)
    assert f == parse(str(f))


def _trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _builds_prime_field(p):
    try:
        poly.PrimeField(p)
    except InputError as exc:
        assert str(exc) == "characteristic must be prime, got %r" % p
        return False
    return True


def test_prime_fields_agree_with_trial_division():
    assert [p for p in range(-3, 10 ** 5)
            if _builds_prime_field(p) != _trial_division_is_prime(p)] == []


def test_strong_pseudoprimes_to_small_bases_are_refused():
    # 3215031751 passes bases 2, 3, 5 and 7; 3825123056546413051 every
    # prime base up to 23; 318665857834031151167461 every prime base up to 37
    for p in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _builds_prime_field(p)


def test_large_prime_fields_build_at_once():
    start = time.perf_counter()
    assert poly.PrimeField(2 ** 61 - 1).char == 2 ** 61 - 1
    assert time.perf_counter() - start < 1
    with pytest.raises(InputError, match="characteristic must be below 3317044064679887385961981"):
        poly.PrimeField(10 ** 399)
