"""Prime data construction and the membership oracle."""

import itertools
import math
import random
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from symprime import sprime
from symprime.combinat import INF, shape
from symprime.generators import full_gens
from symprime.groebner import (Budget, BudgetExceededError, Ideal, groebner_basis,
                               radical_member, saturate)
from symprime.poly import (GF, InputError, MonomialOrder, PackedLayout, Poly, QQ,
                           discriminant, parse, tvar, xvar)
from symprime.sprime import (SPrimeData, assignments, make_sprime, member,
                             placement_jets,
                             member_via_derivatives, part_classes, radical_of)


def test_make_sprime_refuses_generators_outside_qq():
    with pytest.raises(InputError, match="not over QQ"):
        make_sprime([INF, INF], [1, 1], [parse("t1 + t2", GF(7))])


def test_make_sprime_canonicalizes():
    p = make_sprime([1, INF], [1, 2], [parse("t1 - 2*t2")])
    assert p.shape == shape([INF, 1], [2, 1])
    # part 1 (finite) moved to position 2, so t1 -> t2 and t2 -> t1
    assert [str(g) for g in p.z_ideal.gens] == ["-2*t1 + t2"]


def test_make_sprime_rejects_bad_variables():
    with pytest.raises(ValueError):
        make_sprime([INF], [1], [parse("t2")])
    with pytest.raises(ValueError):
        make_sprime([INF], [1], [parse("x1")])


def test_make_sprime_warnings():
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        make_sprime([INF, INF], [1, 1], [parse("t1-t2")])
    assert any("empty" in str(w.message) for w in log)


def test_radical_of():
    p = make_sprime([INF], [2], [parse("t1")])
    r = radical_of(p)
    assert r.shape.weights == (1,) and r.z_ideal == p.z_ideal
    assert radical_of(r) == r
    circ = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    assert radical_of(circ).shape == shape([INF, INF], [1, 1])


def test_member_power_ideal():
    p = make_sprime([INF], [2], [parse("t1")])
    assert member(parse("x1^2"), p)
    assert not member(parse("x1"), p)
    assert member(parse("x1^2*x2 + x3^5"), p)
    assert not member(parse("x1*x2*x3"), p)


def test_member_difference_powers():
    p = make_sprime([INF], [2], [])
    assert member(parse("(x1-x2)^3"), p)
    assert not member(parse("(x1-x2)^2"), p)


def test_member_is_stable_under_relabeling():
    p = make_sprime([INF], [2], [])
    assert member(parse("(x4-x7)^3"), p)
    assert not member(parse("(x4-x7)^2"), p)


@pytest.mark.parametrize("seed", range(8))
def test_member_stable_under_random_permutations(seed, rng):
    rng = random.Random(97 + seed)
    primes = [make_sprime([INF], [2], [parse("t1")]),
              make_sprime([INF, INF], [1, 1], [parse("t1+t2")])]
    probes = [parse("x1^2 + x2*x3"), parse("(x1-x2)^3"),
              parse("x1*x2 - x3^2"), parse("x1^2*x3^2")]
    window = list(range(1, 7))
    image = rng.sample(window, len(window))
    sigma = {xvar(i): xvar(j) for i, j in zip(window, image)}
    for p in primes:
        for f in probes:
            assert member(f, p) == member(f.rename(sigma), p)


@pytest.mark.parametrize("seed", range(10))
def test_member_ideal_predicate(seed, rng):
    rng = random.Random(seed * 31)
    p = make_sprime([INF], [2], [parse("t1")])
    inside = [parse("x1^2"), parse("x1^3 - x1^2*x2"), parse("x2^2*x1")]
    f = inside[rng.randrange(len(inside))]
    g = inside[rng.randrange(len(inside))]
    assert member(f + g, p)
    mult = Poly.const(rng.randint(-3, 3))
    for i in (1, 2):
        mult = mult * Poly.variable(xvar(i)) ** rng.randint(0, 2)
    assert member(f * mult, p)


def test_member_radical_power_relation():
    # below the weight, powers climb into the unreduced prime
    p = make_sprime([INF], [2], [])
    f = parse("x1 - x2")
    assert member(f, radical_of(p))
    assert not member(f, p)
    assert member(f ** 3, p)   # power bounded by twice the weight sum
    circ22 = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    circ11 = radical_of(circ22)
    g = parse("(x1-x2)*(x1^2+x2^2-1)")
    assert member(g, circ11)
    assert not member(g, circ22)
    assert member(g ** 4, circ22)


def test_member_empty_fiber_assignments_matter():
    # a single variable cannot reach both parts, yet placements with an
    # untouched part still constrain membership
    p = make_sprime([INF, INF], [1, 1], [parse("t1+t2")])
    assert not member(parse("x1"), p)


def test_assignments_respect_finite_capacity():
    p = make_sprime([INF, 1], [1, 1], [])
    out = list(assignments((1, 2, 3), p.shape))
    assert all(sum(1 for v in a.values() if v == 2) <= 1 for a in out)
    assert len(out) == 4  # 2^3 minus the four with two or three indices in part 2


def test_member_nonsense_variables_rejected():
    p = make_sprime([INF], [1], [])
    with pytest.raises(ValueError):
        member(parse("t1"), p)


def test_member_empty_locus_is_unit():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = make_sprime([INF, INF], [1, 1], [parse("t1-t2")])
    assert member(parse("x1"), p)
    assert member(parse("1"), p)


DERIV_CASES = [
    ("x1^2", [INF], [2], ["t1"]),
    ("x1", [INF], [2], ["t1"]),
    ("(x1-x2)^3", [INF], [2], []),
    ("(x1-x2)^2", [INF], [2], []),
    ("x1*x2 - x1 - x2 + 1", [INF], [1], ["t1-1"]),
    ("(x1-x2)*(x1^2+x2^2-1)", [INF, INF], [1, 1], ["t1^2+t2^2-1"]),
    ("x1^2+x2^2-1", [INF, INF], [1, 1], ["t1^2+t2^2-1"]),
]


@pytest.mark.parametrize("text,parts,weights,zgens", DERIV_CASES)
def test_member_agrees_with_derivative_oracle(text, parts, weights, zgens):
    p = make_sprime(parts, weights, [parse(s) for s in zgens])
    f = parse(text)
    assert member(f, p) == member_via_derivatives(f, p)


def test_json_roundtrip():
    p = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    assert SPrimeData.from_json_obj(p.to_json_obj()) == p


def _derivatives(f, p):
    """Derivatives member_via_derivatives takes for f in p."""
    xs = sorted({v[1] for v in f.variables()})
    return sum(math.prod(p.shape.weights[assign[i] - 1] for i in xs)
               for assign in assignments(xs, p.shape))


@st.composite
def member_cases(draw):
    r = draw(st.integers(1, 3))
    parts = [INF] + draw(st.lists(st.sampled_from([INF, 1, 2]), min_size=r - 1,
                                  max_size=r - 1))
    weights = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    # factors that vanish on the locus, on the diagonals, or wherever x1
    # lands, so that members are drawn as well
    factors = ["1", "x1 - x2", "x1^2 + x2^2 - 1", "(x1 - x2)*(x1 - x3)*(x2 - x3)"]
    locus = draw(st.sampled_from(["free", "point", "circle"] if r > 1 else ["free", "point"]))
    if locus == "point":
        coords = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r, unique=True))
        z = ["t%d - (%d)" % (a + 1, c) for a, c in enumerate(coords)]
        factors.append("*".join("(x1 - (%d))" % c for c in coords))
    else:
        z = ["t1^2 + t2^2 - 1"] if locus == "circle" else []
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda exps: tuple((xvar(i + 1), k) for i, k in enumerate(exps) if k))
    f = Poly.from_terms(draw(st.lists(st.tuples(monomial, st.integers(-3, 3)),
                                      min_size=1, max_size=4)), QQ)
    f = f * parse(draw(st.sampled_from(factors))) ** draw(st.integers(1, 3))
    return f, make_sprime(parts, weights, [parse(s) for s in z])


@settings(max_examples=120, deadline=None)
@given(member_cases())
def test_member_agrees_with_derivative_oracle_on_random_cases(case):
    f, p = case
    # the derivative oracle's cost grows with its derivative count; stay
    # within the count the benchmark's oracle allows
    assume(not f.is_zero() and _derivatives(f, p) <= 100)
    assert member(f, p) == member_via_derivatives(f, p)


# Loci of two equal parts t1, t2 that the swap t1 <-> t2 fixes, and loci it
# does not fix.
SYMMETRIC_LOCI = [[], ["t1 + t2"], ["t1*t2 - 1"], ["t1^2 + t2^2 - 1"]]
ASYMMETRIC_LOCI = [["t2 - t1^2"], ["t1 + 2*t2"], ["t1 - 1", "t2 + 1"]]


@pytest.mark.parametrize("parts,weights,zgens,classes", [
    ([INF, INF], [2, 2], [], ((1, 2),)),
    ([INF, INF], [1, 1], ["t1 + t2"], ((1, 2),)),
    ([INF, INF], [1, 1], ["t1*t2 - 1"], ((1, 2),)),
    ([INF, INF], [2, 2], ["t1^2 + t2^2 - 1"], ((1, 2),)),
    ([INF, INF], [2, 2], ["t2 - t1^2"], ((1,), (2,))),
    ([INF, INF], [1, 1], ["t1 + 2*t2"], ((1,), (2,))),
    ([INF, INF], [1, 1], ["t1 - 1", "t2 + 1"], ((1,), (2,))),
    # equal parts only: unequal weights or sizes never join
    ([INF, INF], [2, 1], [], ((1,), (2,))),
    ([INF, 1, 1], [1, 1, 1], [], ((1,), (2, 3))),
    ([INF, INF, INF], [1, 1, 1], [], ((1, 2, 3),)),
    ([INF, INF, INF], [1, 1, 1], ["t1 + t2 + t3"], ((1, 2, 3),)),
    ([INF, INF, INF], [1, 1, 1], ["t1 + t2"], ((1, 2), (3,))),
    # (1 3) fixes the ideal and (1 2) does not: a class with a gap
    ([INF, INF, INF], [1, 1, 1], ["t1 + t3 - 2*t2"], ((1, 3), (2,))),
])
def test_part_classes(parts, weights, zgens, classes):
    p = make_sprime(parts, weights, [parse(s) for s in zgens])
    assert part_classes(p) == classes


@st.composite
def equal_part_cases(draw):
    """Primes with two equal parts t1, t2 (r <= 3) on a locus that the swap
    fixes or not, and polynomials that vanish on the locus or the diagonal."""
    weight = draw(st.integers(1, 2))
    # a third part equal to the first two makes a class of three on a free
    # locus; an unequal one moves them in canonical order
    third = draw(st.sampled_from([None, (INF, weight), (INF, 3 - weight), (1, 1)]))
    parts, weights = [INF, INF], [weight, weight]
    if third:
        parts.append(third[0])
        weights.append(third[1])
    z = draw(st.sampled_from(draw(st.sampled_from([SYMMETRIC_LOCI, ASYMMETRIC_LOCI]))))
    # the locus's equations in x1, x2: they vanish under x1 -> t1, x2 -> t2
    # but, on an asymmetric locus, not under the swapped placement
    locus = [g.replace("t", "x") for g in z]
    swapped = [g.replace("x1", "x0").replace("x2", "x1").replace("x0", "x2") for g in locus]
    factors = ["1", "x1 - x2", "(x1 - x2)*(x1 - x3)*(x2 - x3)"]
    for g, h in zip(locus, swapped):
        factors += [g, "(x1 - x2)*(%s)" % g, "(x1 - x2)*(%s)*(%s)" % (g, h)]
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda exps: tuple((xvar(i + 1), k) for i, k in enumerate(exps) if k))
    f = Poly.from_terms(draw(st.lists(st.tuples(monomial, st.integers(-3, 3)),
                                      min_size=1, max_size=3)), QQ)
    f = f * parse(draw(st.sampled_from(factors))) ** draw(st.integers(1, 2))
    return f, make_sprime(parts, weights, [parse(s) for s in z])


@settings(max_examples=150, deadline=None)
@given(equal_part_cases())
def test_pruned_member_agrees_with_derivative_oracle_on_equal_parts(case):
    f, p = case
    assume(not f.is_zero() and _derivatives(f, p) <= 100)
    assert member(f, p) == member_via_derivatives(f, p)


def test_asymmetric_locus_keeps_the_swapped_placements():
    # x1 -> t1, x2 -> t2 sends f onto the parabola's ideal, and so do the
    # diagonal placements; only x1 -> t2, x2 -> t1 shows f is no member
    p = make_sprime([INF, INF], [1, 1], [parse("t2 - t1^2")])
    f = parse("(x1 - x2)*(x2 - x1^2)")
    assert not member(f, p)
    assert not member_via_derivatives(f, p)
    g = parse("(x1 - x2)*(x2 - x1^2)*(x1 - x2^2)")
    assert member(g, p) and member_via_derivatives(g, p)


@pytest.fixture()
def walk_counts(monkeypatch):
    """Counts of `member`'s walk leaves, of its per-coefficient division
    tests (`reduces_to_zero`, under the key radical_member) and of the
    class checks' `ideal_member` calls made by sprime."""
    counts = {"leaves": 0, "radical_member": 0, "ideal_member": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call
    monkeypatch.setattr(sprime._Jets, "groups", counted("leaves", sprime._Jets.groups))
    monkeypatch.setattr(sprime, "reduces_to_zero",
                        counted("radical_member", sprime.reduces_to_zero))
    monkeypatch.setattr(sprime, "ideal_member", counted("ideal_member", sprime.ideal_member))
    return counts


def test_circle_walks_one_placement_per_orbit(walk_counts):
    p = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    gens = full_gens(p)
    assert len(gens) == 8
    assert all(member(g, p) for g in gens)
    # every placement would be 108 leaves with 118 coefficients, each one
    # radical_member call, and the orbits of the part swap alone 54 leaves
    # with 59; six of the eight generators are also +-symmetric in some
    # adjacent pair of window variables, and the orbits of both symmetries
    # have 37 leaves holding 44.  The one ideal_member call is the class
    # check, made once for the prime
    assert walk_counts == {"leaves": 37, "radical_member": 44, "ideal_member": 1}
    assert all(member(g, p) for g in gens)
    assert walk_counts == {"leaves": 74, "radical_member": 88, "ideal_member": 1}


@pytest.mark.parametrize("gens", [[], ["t1^2 - 2"]])
def test_one_part_prime_is_its_own_saturation(gens):
    # the discriminant of one part is the constant 1, at which saturation
    # returns the ideal itself
    sprime._saturated.cache_clear()
    p = make_sprime([INF], [2], [parse(g) for g in gens])
    assert sprime.saturated_ideal(p) is p.z_ideal


# (r, Z) of loci with components on the diagonals, which the saturation
# removes
DIAGONAL_LOCI = (
    (2, ["(t1 - t2)^3*(t1^2 + t2^2 - 1)"]),
    (3, ["(t1 - t2)*(t1 - t3)*(t2 - t3)*(t1 + t2 + t3 - 1)"]),
    (3, ["(t1 - t2)^2*t3", "(t2 - t3)*(t1 - 1)"]),
)


def test_saturating_pair_by_pair_gives_the_product_saturation(acceptance_pool):
    # the reference saturates at the whole difference product at once
    diagonal = [make_sprime([INF] * r, [1] * r, [parse(g) for g in z])
                for r, z in DIAGONAL_LOCI]
    for p in diagonal:
        assert sprime.saturated_ideal(p) != groebner_basis(p.z_ideal)
    for p in list(acceptance_pool.values()) + diagonal:
        whole = saturate(p.z_ideal, discriminant(range(1, p.shape.r + 1), "t"))
        assert groebner_basis(sprime.saturated_ideal(p)) == groebner_basis(whole), p


def test_eight_part_sum_prime_saturates_at_two_term_differences(monkeypatch):
    # the 28-factor difference product has 8! terms; saturating at it took
    # about 15 s on the 7-part sum prime and over a minute on this one
    seen = []

    def saturate_at(ideal, f, *args, **kwargs):
        seen.append(len(f.terms))
        return saturate(ideal, f, *args, **kwargs)
    monkeypatch.setattr(sprime, "saturate", saturate_at)
    sprime._saturated.cache_clear()
    make_sprime([INF] * 8, [1] * 8, [parse("+".join("t%d" % i for i in range(1, 9)) + " - 1")])
    assert seen == [2] * 28


def test_asymmetric_locus_walks_every_placement(walk_counts):
    p = make_sprime([INF, INF], [2, 2], [parse("t2 - t1^2")])
    # each of the last two factors vanishes on the locus under one of the
    # off-diagonal placements; cubed, so do its jets of e-degree up to 2.
    # Without the factor x1, swapping x1 and x2 would map f to -f
    f = parse("x1*(x1 - x2)^3*(x2 - x1^2)^3*(x1 - x2^2)^3")
    assert part_classes(p) == ((1,), (2,))
    assert member(f, p) and member_via_derivatives(f, p)
    assert walk_counts["leaves"] == len(list(assignments((1, 2), p.shape))) == 4


def test_placement_budget_counts_every_placement():
    # the guard still counts r ** len(xs) placements, not orbits
    p = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    f = parse("x1^2 + x2^2 - 1")
    with pytest.raises(BudgetExceededError, match="placement space of size 4 exceeds"):
        member(f, p, Budget(max_reductions=3))
    assert not member(f, p, Budget(max_reductions=4))


def test_member_walks_a_window_deeper_than_the_recursion_limit():
    # a one-part prime places every window variable, one level each
    p = make_sprime([INF], [1], [])
    f = parse(" + ".join("x%d" % i for i in range(1, 1201)))
    assert not member(f, p)


def _leafwise_member(f, p, classes):
    """member's criterion over field coefficients: every coefficient of
    every leaf of the walk by `classes`, with no ties, lies in the radical
    of the saturated ideal."""
    sat = sprime.saturated_ideal(p)
    return all(radical_member(c, sat)
               for _, coeffs in placement_jets(f, p.shape, classes)
               for c in coeffs.values())


@st.composite
def leaf_cases(draw):
    # circle22's basis leads with t1^2, and (inf);(1) with Z = t1^2 is not
    # radical, so non-members there go through the Rabinowitsch fallback;
    # the factors make members of several primes
    key = draw(st.sampled_from(["diag1", "diag2", "allzero1", "allzero3", "free22",
                                "line1", "circle22", "point", "fin11", "mixed21",
                                "square"]))
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda exps: tuple((xvar(i + 1), k) for i, k in enumerate(exps) if k))
    coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    f = Poly.from_terms(draw(st.lists(st.tuples(monomial, coefficient),
                                      min_size=1, max_size=4)), QQ)
    factor = draw(st.sampled_from(["1", "x1", "x1 - x2",
                                   "(x1 - x2)^3*(x1^2 + x2^2 - 1)^2"]))
    return key, f * parse(factor)


@settings(max_examples=150, deadline=None)
@given(leaf_cases())
def test_member_decides_each_leaf_as_radical_member_does(prime_pool, case):
    key, f = case
    assume(not f.is_zero())
    pool = dict(prime_pool, square=make_sprime([INF], [1], [parse("t1^2")]))
    assert member(f, pool[key]) == _leafwise_member(f, pool[key], part_classes(pool[key]))


# allzero1 and q3pts pin parts over QQ; an f over GF(5) walks unpinned, so
# its coefficient t1 still meets the field test
@pytest.mark.parametrize("key", ["diag1", "free22", "circle22", "allzero1", "q3pts"])
def test_member_refuses_a_nonzero_coefficient_over_another_field(acceptance_pool, key):
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        member(parse("x1", GF(5)), acceptance_pool[key])


def test_member_over_gf_p_reduces_each_coefficient_first(acceptance_pool):
    # x1 - x2 is x1 + 4*x2 in GF(5); on one part of weight 1 its only
    # coefficient is 5*t1, which is 0 there, so no coefficient reaches the
    # test and no field mismatch is raised, on allzero1's pinned part too
    assert member(parse("x1 - x2", GF(5)), acceptance_pool["diag1"])
    assert member(parse("x1 - x2", GF(5)), acceptance_pool["allzero1"])


def test_member_fallback_reads_the_whole_coefficient():
    # Z = t1^2 has a basis whose head t1^2 is not squarefree; x1's one
    # coefficient t1 has a nonzero remainder but lies in the radical, and
    # x1 - 1's coefficient t1 - 1 does not, although the division that
    # runs first empties the dict it was handed
    p = make_sprime([INF], [1], [parse("t1^2")])
    assert member(parse("x1"), p)
    assert not member(parse("x1 - 1"), p)


def test_member_on_a_hand_built_prime_whose_ideal_omits_t1():
    # SPrimeData built directly, not by make_sprime, may leave t1 out of
    # the ideal's ambient; the leaves are packed over t1 all the same
    p = SPrimeData(shape([INF], [2]), Ideal([]))
    assert p.z_ideal.ambient == ()
    assert not member(parse("x1"), p)
    q = SPrimeData(shape([INF], [2]), Ideal([parse("t1^2")]))
    assert member(parse("x1^2"), q) and not member(parse("x1"), q)


# The acceptance pool of tests/test_acceptance.py: finite parts, mixed
# weights, points, lines, conics and three parts.
ACCEPTANCE_POOL = {
    "diag1": ([INF], [1], []), "diag2": ([INF], [2], []),
    "allzero1": ([INF], [1], ["t1"]), "allzero2": ([INF], [2], ["t1"]),
    "allzero3": ([INF], [3], ["t1"]), "allzero5": ([INF], [5], ["t1"]),
    "one2": ([INF], [2], ["t1-1"]),
    "free11": ([INF, INF], [1, 1], []), "free22": ([INF, INF], [2, 2], []),
    "mixed21": ([INF, INF], [2, 1], []),
    "line0": ([INF, INF], [1, 1], ["t1+t2"]), "line1": ([INF, INF], [1, 1], ["t1+t2-1"]),
    "circle22": ([INF, INF], [2, 2], ["t1^2+t2^2-1"]),
    "circle11": ([INF, INF], [1, 1], ["t1^2+t2^2-1"]),
    "point": ([INF, INF], [1, 1], ["t1-1", "t2+1"]),
    "fin31": ([INF, 1], [3, 1], ["t1"]),
    "p3": ([INF, INF, INF], [1, 1, 1], []),
    "q3pts": ([INF, 1, 1], [1, 1, 1], ["t1", "t2-1", "t3-2"]),
}


@pytest.fixture(scope="module")
def acceptance_pool():
    return {key: make_sprime(parts, weights, [parse(s) for s in z])
            for key, (parts, weights, z) in ACCEPTANCE_POOL.items()}


def _jets(f, sh):
    """The `_Jets` of f over sh's parts, read out in grevlex over t1..tr."""
    window = sprime._x_window(f)
    order = MonomialOrder.grevlex([tvar(alpha) for alpha in range(1, sh.r + 1)])
    return sprime._Jets(f, window, sh.r, PackedLayout(order, window[1]))


@pytest.mark.parametrize("text,ties", [
    ("x1 + x2", (1,)),
    ("x1 - x2", (1,)),
    ("x1 + 2*x2", ()),
    ("x1*x2 + x3", (1,)),
    ("(x1 - x2)*(x1 - x3)*(x2 - x3)", (1, 2)),
    ("(x1 - x2)*(x1 - x3)*(x2 - x3)*(x1 + x2 + x3 - 1)", (1, 2)),
    # x1 and x3 are exchangeable, but not adjacent in the window
    ("x1 + x2^2 + x3", ()),
    # one half of f keeps its sign under the swap and the other flips it
    ("x1^2 - x2^2 + x1 + x2", ()),
    ("1/2*x1 - 1/2*x2 + x1^2*x2^2", ()),
    ("1/2*x1*x4 + 1/2*x1*x7", (2,)),
])
def test_jets_find_the_signed_swaps_of_adjacent_window_variables(text, ties):
    assert _jets(parse(text), shape([INF, INF], [1, 1])).ties() == ties


def test_jets_find_signed_swaps_over_gf_p():
    # x1 - x2 is x1 + 4*x2 in GF(5): the swap multiplies it by 4 = -1
    assert _jets(parse("x1 - x2", GF(5)), shape([INF, INF], [1, 1])).ties() == (1,)
    assert _jets(parse("x1 + 2*x2", GF(5)), shape([INF, INF], [1, 1])).ties() == ()
    # in GF(2), -f is f
    assert _jets(parse("x1 + x2", GF(2)), shape([INF, INF], [1, 1])).ties() == (1,)


@pytest.mark.parametrize("key", ["free22", "circle22"])
def test_member_with_ties_refuses_a_coefficient_over_another_field(prime_pool, key):
    f = parse("(x1 - x2)^3", GF(5))
    assert _jets(f, prime_pool[key].shape).ties() == (1,)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        member(f, prime_pool[key])


def test_vandermonde_walks_one_placement_per_orbit_of_both_symmetries(walk_counts,
                                                                      prime_pool):
    # (x1 - x2)(x1 - x3)(x2 - x3) changes sign under every swap, and
    # (inf,inf;1,1) free exchanges its parts: of the 8 placements, the
    # nondecreasing ones that open part 1 first are 111, 112 and 122; the
    # part swap alone leaves 4
    p = prime_pool["free11"]
    f = parse("(x1 - x2)*(x1 - x3)*(x2 - x3)")
    assert part_classes(p) == ((1, 2),)
    assert member(f, p) and member_via_derivatives(f, p)
    assert walk_counts["leaves"] == 3
    assert [path for path, _ in sprime._walk(_jets(f, p.shape), p.shape, ((1, 2),))] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]


def _orbit_leaders_met(xs, sh, classes, ties, walked):
    """True iff every placement of assignments(xs, sh) has one of `walked`
    (paths) in its orbit under the group permuting each class of parts and
    the levels of each run of tied window levels, by brute force."""
    parts = [{}]
    for cls in classes:
        parts = [{**g, **dict(zip(cls, image))}
                 for g in parts for image in itertools.permutations(cls)]
    runs, run = [], [0]
    for level in range(1, len(xs)):
        if level in ties:
            run.append(level)
        else:
            runs.append(run)
            run = [level]
    runs.append(run)
    levels = [[]]
    for run in runs:
        levels = [order + list(image) for order in levels
                  for image in itertools.permutations(run)]
    walked = set(walked)
    for assign in assignments(xs, sh):
        row = [assign[i] for i in xs]
        if not any(tuple(g.get(row[l], row[l]) for l in order) in walked
                   for g in parts for order in levels):
            return False
    return True


@st.composite
def signed_symmetric_polynomials(draw, n_max=3):
    """Products of elementary symmetric factors (shifted by constants) and
    differences: symmetric, antisymmetric, symmetric in x1, x2 only, or
    with no signed swap, in x1..xn."""
    n = draw(st.integers(2, n_max))
    xs = ["x%d" % i for i in range(1, n + 1)]
    elementary = [" + ".join("*".join(c) for c in itertools.combinations(xs, k))
                  for k in range(1, n + 1)]
    vandermonde = "*".join("(%s - %s)" % pair for pair in itertools.combinations(xs, 2))
    kind = draw(st.sampled_from(["symmetric", "antisymmetric", "partial", "asymmetric"]))
    factors = ["(%s + (%d))" % (draw(st.sampled_from(elementary)), draw(st.integers(-2, 2)))
               for _ in range(draw(st.integers(0, 2)))]
    if kind == "antisymmetric":
        factors.append("(%s)^%d" % (vandermonde, draw(st.sampled_from([1, 3]))))
    elif kind == "partial":
        factors.append(draw(st.sampled_from(["(x1 - x2)", "(x1 + x2 - x%d)" % n,
                                             "(x1 - x2)^2*x%d" % n])))
    elif kind == "asymmetric":
        factors.append(draw(st.sampled_from(["x1", "(x1 + 2*x2)", "(x1 - x2 + x1^2)"])))
    if draw(st.booleans()):
        factors.append("(%s)^%d" % (vandermonde, draw(st.integers(1, 2))))
    return parse("*".join(factors) or "x1 + x2")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ACCEPTANCE_POOL)), signed_symmetric_polynomials())
def test_member_with_ties_agrees_with_the_plain_walk_and_the_derivatives(
        acceptance_pool, key, f):
    p = acceptance_pool[key]
    assume(not f.is_zero())
    verdict = member(f, p)
    assert verdict == _leafwise_member(f, p, ())
    if _derivatives(f, p) <= 100:
        assert verdict == member_via_derivatives(f, p)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ACCEPTANCE_POOL)), signed_symmetric_polynomials(n_max=4))
def test_tied_walk_meets_every_orbit_of_both_symmetries(acceptance_pool, key, f):
    p = acceptance_pool[key]
    assume(not f.is_zero())
    classes = part_classes(p)
    jets = _jets(f, p.shape)
    ties = jets.ties()
    walked = [path for path, _ in sprime._walk(jets, p.shape, classes, ties)]
    plain = [path for path, _ in sprime._walk(jets, p.shape, classes)]
    # the tied walk keeps some leaves of the walk by classes, in its order
    assert walked == [path for path in plain if path in set(walked)]
    assert _orbit_leaders_met(jets.xs, p.shape, classes, ties, walked)


# Primes whose locus fixes coordinates, with the pins member reads off the
# reduced basis: t_alpha - c pins part alpha to c.  half2's 2*t1 - 1 pins
# nothing (its lc is 2), nor does line1's t1 + t2 - 1.  square is
# (inf,inf;1,2) with Z = (t1^2, t2 - 1), canonically (inf,inf;2,1) with
# Z = (t2^2, t1 - 1): a pin next to the head t2^2, which is not squarefree,
# so the radical fallback runs.
PINNED = {
    "allzero5": (([INF], [5], ["t1"]), (0,)),
    "one2": (([INF], [2], ["t1 - 1"]), (1,)),
    "fin31": (([INF, 1], [3, 1], ["t1"]), (0, None)),
    "point": (([INF, INF], [1, 1], ["t1 - 1", "t2 + 1"]), (1, -1)),
    "q3pts": (([INF, 1, 1], [1, 1, 1], ["t1", "t2 - 1", "t3 - 2"]), (0, 1, 2)),
    "half2": (([INF], [2], ["2*t1 - 1"]), (None,)),
    "line1": (([INF, INF], [1, 1], ["t1 + t2 - 1"]), (None, None)),
    "square": (([INF, INF], [1, 2], ["t1^2", "t2 - 1"]), (1, None)),
}


@pytest.fixture(scope="module")
def pinned_pool():
    return {key: make_sprime(parts, weights, [parse(s) for s in z])
            for key, ((parts, weights, z), _) in PINNED.items()}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pins_are_read_off_the_reduced_basis(pinned_pool, key):
    p = pinned_pool[key]
    assert sprime._pins(p) == PINNED[key][1]


@st.composite
def pinned_cases(draw):
    key = draw(st.sampled_from(sorted(PINNED)))
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda exps: tuple((xvar(i + 1), k) for i, k in enumerate(exps) if k))
    f = Poly.from_terms(draw(st.lists(st.tuples(monomial, st.integers(-3, 3)),
                                      min_size=1, max_size=4)), QQ)
    # factors that vanish at the pinned coordinates or on the diagonals,
    # so that members are drawn as well
    factor = draw(st.sampled_from(["1", "x1", "x1 - 1", "(x1 - 1)*(x1 + 1)", "2*x1 - 1",
                                   "x1*(x1 - 1)*(x1 - 2)", "x1 - x2"]))
    return key, f * parse(factor) ** draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(pinned_cases())
def test_pinned_member_agrees_with_every_leaf_and_the_derivatives(pinned_pool, case):
    key, f = case
    assume(not f.is_zero())
    p = pinned_pool[key]
    verdict = member(f, p)
    assert verdict == _leafwise_member(f, p, part_classes(p))
    if _derivatives(f, p) <= 100:
        assert verdict == member_via_derivatives(f, p)


@pytest.mark.parametrize("key,text,verdict", [
    ("allzero5", "x1^5", True), ("allzero5", "x1^4*x2", False),
    ("one2", "(x1 - 1)^2*x2", True), ("one2", "(x1 - 1)*(x2 - 1)", False),
    ("fin31", "x1^3*x2^3", True), ("fin31", "x1^3*x2^2", False),
    ("point", "(x1 - 1)*(x1 + 1)", True), ("point", "(x1 - 1)*(x2 - 1)", False),
    ("q3pts", "x1*(x1 - 1)*(x1 - 2)", True), ("q3pts", "x1*(x1 - 1)", False),
    ("half2", "(2*x1 - 1)^2", True), ("half2", "2*x1 - 1", False),
    ("square", "x1*(x1 - 1)^2", True), ("square", "x1^2*(x1 - 1)", False),
])
def test_pinned_member_on_fixed_polynomials(pinned_pool, key, text, verdict):
    p, f = pinned_pool[key], parse(text)
    assert member(f, p) == _leafwise_member(f, p, part_classes(p)) == verdict
    assert member_via_derivatives(f, p) == verdict


def test_step_tables_are_shared_by_every_window_size(acceptance_pool, monkeypatch):
    # x1*x2 and x1*x2*x3 have keys of the same width, so the second walk
    # finds the tables of levels 0 and 1 that the first one built
    real = sprime._moves
    real.cache_clear()
    missed = []

    def moves(*key):
        misses = real.cache_info().misses
        out = real(*key)
        if real.cache_info().misses > misses:
            missed.append(key)
        return out
    monkeypatch.setattr(sprime, "_moves", moves)
    free22 = acceptance_pool["free22"]
    assert member(parse("x1*x2"), free22) is False
    first = len(missed)
    assert member(parse("x1*x2*x3"), free22) is False
    levels = [level for _w, _r, level, *_ in missed[first:]]
    assert levels and set(levels) == {2}


@pytest.mark.parametrize("text,verdict,terms", [
    # unpinned, x -> t1 + e carried 133 and 95 terms through the steps
    ("(x1 - x2)^2*(x2 - x3)^2*(x1 - x3)^2", False, 57),
    ("x1^5 + x2^5*(x1 - x3)^3", True, 4),
])
def test_pinned_steps_carry_fewer_terms(acceptance_pool, monkeypatch, text, verdict, terms):
    counted = [0]
    real = sprime._Jets.step

    def step(self, *args):
        out = real(self, *args)
        counted[0] += len(out)
        return out
    monkeypatch.setattr(sprime._Jets, "step", step)
    assert member(parse(text), acceptance_pool["allzero5"]) is verdict
    assert counted[0] == terms
