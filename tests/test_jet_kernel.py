"""The jet expansion of membership agrees with the Taylor definition.

placement_jets(f, shape) walks the tree of placements and yields, for every
placement of assignments(xs, shape) in order, a leaf that maps e^beta to the
coefficient of f(x_i -> t_assign(i) + e_i) at e^beta, for beta below the part
weights.  By Taylor's formula that coefficient is (1/beta!) d^beta f with
x_i -> t_assign(i).  Over GF(p) the divided derivative is taken over QQ on
integer lifts of the coefficients (it stays integral) and reduced mod p
afterwards.  Given classes of parts, the walk yields the leaves of the first
placement of each orbit of the group permuting every class.  The walk runs on
ints (f's coefficients over their common denominator, unreduced residues over
GF(p)), so the cases include coprime denominators and binomials of degree
above 64.
"""

import itertools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symprime.combinat import INF, shape
from symprime.poly import GF, Poly, QQ, evar, parse, tvar, xvar
from symprime.sprime import assignments, placement_jets


def taylor_coefficients(f, assign, weights):
    """{e-monomial: (1/beta!) d^beta f at x_i -> t_assign(i)}, nonzero only."""
    lifted = Poly.from_terms(f.terms.items(), QQ)
    xs = sorted(assign)
    to_t = {xvar(i): tvar(assign[i]) for i in xs}
    out = {}
    for beta in itertools.product(*(range(weights[assign[i] - 1]) for i in xs)):
        g = lifted
        for i, b in zip(xs, beta):
            for _ in range(b):
                g = g.derivative(xvar(i))
        g = g * QQ.inv(math.prod(math.factorial(b) for b in beta))
        g = Poly.from_terms(g.rename(to_t).terms.items(), f.field)
        if not g.is_zero():
            out[tuple((evar(i), b) for i, b in zip(xs, beta) if b)] = g
    return out


def assert_no_zeros(coeffs):
    for g in coeffs.values():
        assert g.terms and all(g.terms.values())


@st.composite
def polynomials(draw):
    """A polynomial in x1..xn, n <= 3, over QQ or a small or large GF(p)."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, 5), min_size=n, max_size=n).map(
        lambda exps: tuple((xvar(i + 1), k) for i, k in enumerate(exps) if k))
    if field is QQ:
        coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    else:
        coefficient = st.integers(-field.char, field.char)
    return Poly.from_terms(draw(st.lists(st.tuples(monomial, coefficient), max_size=6)),
                           field), n


@st.composite
def walks(draw):
    f, _ = draw(polynomials())
    r = draw(st.integers(1, 3))
    # a shape needs one infinite part; finite parts hold at most 1 or 2
    parts = [INF] + draw(st.lists(st.sampled_from([INF, 1, 2]), min_size=r - 1,
                                  max_size=r - 1))
    weights = draw(st.lists(st.integers(1, 5), min_size=r, max_size=r))
    return f, shape(parts, weights)


def assert_walk_is_taylor(f, sh):
    leaves = list(placement_jets(f, sh))
    xs = tuple(sorted({v[1] for v in f.variables()}))
    assert [assign for assign, _ in leaves] == list(assignments(xs, sh))
    for assign, coeffs in leaves:
        assert coeffs == taylor_coefficients(f, assign, sh.weights)
        assert_no_zeros(coeffs)


@settings(max_examples=150, deadline=None)
@given(walks())
def test_every_leaf_of_the_walk_is_its_placement_jet(case):
    # siblings share their parent's state: a step that changed it would
    # corrupt every leaf after the first below that parent
    assert_walk_is_taylor(*case)


def test_binomial_divisible_by_the_characteristic():
    # (t1 + e1)^2 = t1^2 + 2*t1*e1 + e1^2, and 2 = 0 in GF(2)
    f = parse("x1^2", GF(2))
    [(_, coeffs)] = placement_jets(f, shape([INF], [3]))
    assert set(coeffs) == {(), ((evar(1), 2),)}
    # (t1 + e1)^3 = t1^3 + e1^3 in GF(3), so e1 and e1^2 have no coefficient
    g = parse("x1^3 + x2", GF(3))
    [(_, coeffs)] = placement_jets(g, shape([INF], [4]))
    assert set(coeffs) == {(), ((evar(1), 3),), ((evar(2), 1),)}
    for h, weights in ((f, [3]), (g, [4]), (g, [4, 2])):
        assert_walk_is_taylor(h, shape([INF] * len(weights), weights))


def test_integer_step_divides_the_common_denominator_back_out():
    # coprime denominators: the walk runs on 30 * f and divides 30 back out
    f = parse("1/2*x1 + 1/3*x2 - 1/5*x1*x2")
    assert_walk_is_taylor(f, shape([INF], [2]))
    assert_walk_is_taylor(f, shape([INF, INF], [2, 3]))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(32003)])
def test_binomials_beyond_degree_64(field):
    # C(70, j) for j < 4 comes from a table built up to deg f, not a fixed one
    f = parse("x1^70 - 3*x1^65*x2 + 2/7*x2^66", QQ)
    f = Poly.from_terms(f.terms.items(), field)
    assert f.degree() == 70
    assert_walk_is_taylor(f, shape([INF], [4]))
    assert_walk_is_taylor(f, shape([INF, INF], [3, 2]))


def orbit_representatives(xs, sh, classes):
    """The placements of assignments(xs, sh) that come first in their orbit
    under the group permuting each class, by brute force over the group."""
    group = [{}]
    for cls in classes:
        group = [{**g, **dict(zip(cls, image))}
                 for g in group for image in itertools.permutations(cls)]
    out = []
    for assign in assignments(xs, sh):
        row = tuple(assign[i] for i in xs)
        if row == min(tuple(g.get(a, a) for a in row) for g in group):
            out.append(assign)
    return out


@st.composite
def class_walks(draw):
    """A walk case whose parts of equal (size, weight) are split into
    classes at random: any such classes keep the capacities.  Weights 1
    and 2 only, so that parts of equal (size, weight) are common."""
    f, _ = draw(polynomials())
    r = draw(st.integers(2, 3))
    parts = [INF] + draw(st.lists(st.sampled_from([INF, 1, 2]), min_size=r - 1,
                                  max_size=r - 1))
    sh = shape(parts, draw(st.lists(st.integers(1, 2), min_size=r, max_size=r)))
    kinds = {}
    for alpha, kind in enumerate(zip(sh.parts, sh.weights), 1):
        kinds.setdefault(kind, []).append(alpha)
    classes = []
    for run in kinds.values():
        labels = draw(st.lists(st.integers(0, 2), min_size=len(run), max_size=len(run)))
        for label in sorted(set(labels)):
            classes.append(tuple(a for a, lab in zip(run, labels) if lab == label))
    return f, sh, tuple(sorted(classes))


@settings(max_examples=150, deadline=None)
@given(class_walks())
def test_walk_with_classes_yields_one_placement_per_orbit(case):
    f, sh, classes = case
    leaves = list(placement_jets(f, sh, classes))
    xs = tuple(sorted({v[1] for v in f.variables()}))
    assert [assign for assign, _ in leaves] == orbit_representatives(xs, sh, classes)
    for assign, coeffs in leaves:
        assert coeffs == taylor_coefficients(f, assign, sh.weights)
        assert_no_zeros(coeffs)


def test_walk_with_a_class_that_skips_a_part():
    # parts 1 and 3 form a class, part 2 sits between them: placements that
    # use part 3 before part 1 are skipped, the others kept in order
    f = parse("x1*x2 + x2^2")
    sh = shape([INF] * 3, [1, 1, 1])
    assigns = [tuple(a.values()) for a, _ in placement_jets(f, sh, ((1, 3), (2,)))]
    assert assigns == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
    assert len(list(placement_jets(f, sh))) == 9
