"""Finite generating sets and their verification."""

import hashlib

import pytest

from symprime.combinat import INF, box_candidates, shape, shape_leq, shape_sort_key
from symprime.generators import (_phi_targets, dedup_sorted, full_gens, gens_G, gens_H,
                                 prune_translate_multiples, sign_normalize,
                                 translate_divides, verify_gens)
from symprime.poly import discriminant, parse
from symprime.sprime import make_sprime, member
from symprime.theta import theta
from symprime.witness import build_h
from test_acceptance import _pool


D3 = sign_normalize(discriminant([1, 2, 3]))
D5 = sign_normalize(discriminant([1, 2, 3, 4, 5]))
MIXED = sign_normalize(discriminant([1, 2, 3]) * parse("((x1-x4)*(x2-x4)*(x3-x4))^3"))


def test_gens_G_weight_two():
    assert set(gens_G(shape([INF], [2]))) == {D3, sign_normalize(parse("(x1-x2)^3"))}


def test_gens_G_two_infinite_parts():
    out = gens_G(shape([INF, INF], [2, 2]))
    assert set(out) == {D5, MIXED, sign_normalize(D3 ** 3)}


def test_gens_G_weight_one_collapses():
    assert set(gens_G(shape([INF], [1]))) == {sign_normalize(parse("x1-x2"))}


def test_gens_H_empty_for_full_locus():
    assert gens_H(make_sprime([INF, INF], [2, 2], [])) == ()
    assert gens_H(make_sprime([INF], [3], [])) == ()


def test_gens_H_power_ideal():
    p = make_sprime([INF], [2], [parse("t1")])
    out = gens_H(p)
    assert set(out) == {parse("x1^2"), parse("x1^3 - x1^2*x2")}
    assert all(member(g, p) for g in out)


CIRCLE = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
Q12 = parse("x1^2 + x2^2 - 1")
Q13 = parse("x1^2 + x3^2 - 1")


def circle_expected_full():
    # canonical construction output, derived by hand from the documented
    # layout, trace, and smallest-index lift conventions
    b2 = parse("(x1-x2)*((x1-x3)*(x2-x3))^3") * Q13 ** 4
    c22 = (parse("(x1-x2)*(x3-x4)")
           * parse("((x1-x3)*(x1-x4)*(x2-x3)*(x2-x4))^3") * Q13 ** 4)
    return {D5, MIXED, sign_normalize(D3 ** 3),
            sign_normalize(D3 * Q12 ** 4 * Q13 ** 4),
            sign_normalize(discriminant([1, 2, 3, 4]) * Q12 ** 4 * Q13 ** 4),
            sign_normalize(parse("(x1-x2)^3") * Q12 ** 4),
            sign_normalize(b2), sign_normalize(c22)}


def test_full_gens_circle_canonical_set():
    assert set(full_gens(CIRCLE)) == circle_expected_full()


def test_full_gens_free_is_gens_G():
    p = make_sprime([INF], [2], [])
    assert full_gens(p) == gens_G(p.shape)
    p1 = make_sprime([INF], [1], [])
    assert set(full_gens(p1)) == {sign_normalize(parse("x1-x2"))}


def test_verify_gens_power_ideal():
    report = verify_gens(make_sprime([INF], [2], [parse("t1")]))
    assert report and all(report.values())


def test_verify_gens_weight_one():
    report = verify_gens(make_sprime([INF], [1], []))
    assert report == {"x1 - x2": True}


@pytest.mark.slow
def test_verify_gens_circle():
    report = verify_gens(CIRCLE)
    assert len(report) == 8
    assert all(report.values()), report


@pytest.mark.slow
@pytest.mark.parametrize("name, count, digest", [
    ("fin31", 8, "78caf5b126f2cceaae77c95c46fd8dacdd3e00c41fad562e43b98dfa9a2302c2"),
    ("q3pts", 62, "3df21cf96ba5cd7f02c2761a17ff80bd1fec512204bf489457bd47d16a46ac6c"),
])
def test_full_gens_of_the_largest_products_are_pinned(name, count, digest):
    # the acceptance pool's longest chains of witness products; the values
    # were recorded from the construction that multiplied one factor at a
    # time with Poly.__mul__
    gens = full_gens(_pool()[name])
    assert len(gens) == count
    assert hashlib.sha256("\n".join(map(str, gens)).encode()).hexdigest() == digest


def test_separating_power_against_obstructions():
    # generators fail membership in primes at minimal obstruction shapes
    p22 = make_sprime([INF, INF], [2, 2], [])
    gens = full_gens(p22)
    targets = [make_sprime([INF], [5], [parse("t1")]),
               make_sprime([INF, 1], [3, 1], [parse("t1")]),
               make_sprime([INF, 1, 1], [1, 1, 1], [parse("t1"), parse("t2-1"),
                                                    parse("t3-2")])]
    for q in targets:
        assert not all(member(g, q) for g in gens), str(q)


def test_separating_power_circle_points():
    # a target point off the degeneration closure is separated
    q = make_sprime([INF], [3], [parse("t1-1")])
    gens = full_gens(CIRCLE)
    assert not all(member(g, q) for g in gens)
    # a point on the closure (2t1^2 = 1 has no rational solution, so pick
    # the two-part target where the closure is the circle itself)
    q_on = make_sprime([INF, INF], [2, 2], [parse("t1-1"), parse("t2")])
    assert all(member(g, q_on) for g in gens)


def test_determinism():
    assert full_gens(CIRCLE) == full_gens(
        make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")]))
    assert gens_G(shape([INF, INF], [2, 2])) == gens_G(shape([INF, INF], [2, 2]))


def test_translate_divides():
    assert translate_divides(parse("x1-x2"), D3)
    assert translate_divides(parse("(x1-x2)^3"), sign_normalize(D3 ** 3))
    assert not translate_divides(parse("(x1-x2)^3"), D3)
    assert translate_divides(D3, D5)


def test_prune_translate_multiples():
    kept = prune_translate_multiples([D3, D5, sign_normalize(D3 ** 3)])
    assert kept == (D3,)
    kept2 = prune_translate_multiples([parse("(x1-x2)^3"), D3])
    assert set(kept2) == {D3, sign_normalize(parse("(x1-x2)^3"))}


def test_dedup_sorted():
    a = parse("x1 - x2")
    assert dedup_sorted([a, -a, a]) == (a,)


# Failing containments of the acceptance suite where p has configuration
# equations and good pairs against q: (p, q, point of q's locus off the
# degeneration closure).
WITNESS_PAIRS = [
    ("line1", "allzero2", ("0",)),
    ("allzero2", "diag2", ("1",)),
    ("circle22", "allzero3", ("0",)),
    ("circle22", "free22", ("1", "2")),
    ("point", "allzero2", ("0",)),
    ("point", "allzero1", ("0",)),
    ("line1", "point", ("1", "-1")),
    ("line0", "free11", ("1", "2")),
]


@pytest.fixture(scope="module")
def gens_H_of(prime_pool):
    cache = {}

    def get(key):
        if key not in cache:
            cache[key] = gens_H(prime_pool[key])
        return cache[key]

    return get


@pytest.mark.parametrize("p_key,q_key,point", WITNESS_PAIRS)
def test_build_h_witness_is_a_locus_generator(prime_pool, gens_H_of, p_key, q_key, point):
    # build_h picks one locus generator per good pair; gens_H takes every
    # pick over the admissible targets, so it contains build_h's witness
    p, q = prime_pool[p_key], prime_pool[q_key]
    h = sign_normalize(build_h(p, q.shape, point))
    assert h in gens_H_of(p_key)


POOL = _pool()


def _closure_targets(p):
    lam = p.shape
    expected = [cand for cand in box_candidates(lam.r, 1 + lam.finite_sum(),
                                                lam.inf_weight_sum())
                if shape_leq(cand, lam) and theta(p, cand).ideal.gens]
    return sorted(expected, key=shape_sort_key)


@pytest.mark.parametrize("key", sorted(POOL))
def test_phi_targets_match_the_intersected_closure(key):
    # _phi_targets asks only whether every good pair's component is
    # nonzero; theta intersects the components and asks the same of that
    assert _phi_targets(POOL[key]) == _closure_targets(POOL[key])


@pytest.mark.parametrize("z,merges", [
    ("t1 - 2*t2 + t3", False), ("2*t1 - 3*t2 + t3", False), ("t1 + t2 - 2*t3", False),
    ("t1 - 2*t2 + t3 - 1", True), ("t1 + t2 + t3", True)])
def test_phi_targets_drop_a_target_whose_merge_empties_the_locus(z, merges):
    # the one good pair onto (inf;3) merges all three parts, and renaming a
    # linear locus whose t-coefficients sum to zero then gives the zero
    # ideal, although the projection is not zero
    p = make_sprime([INF] * 3, [1] * 3, [parse(z)])
    assert (shape([INF], [3]) in _phi_targets(p)) == merges
    assert _phi_targets(p) == _closure_targets(p)
