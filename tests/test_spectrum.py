"""Antichain arithmetic on radical stable ideals and topology slices."""

import itertools
import random

import pytest

from symprime.combinat import INF, shape
from symprime.groebner import BudgetExceededError, Ideal, ideal_equal, radical_member, saturate
from symprime.poly import discriminant, parse
from symprime.sprime import make_sprime
from symprime.spectrum import (RadicalSIdeal, contains_radical, d3_stabilize,
                               intersect_radical, make_radical, theta_slice)
from symprime.theta import contains


def test_make_radical_prunes_containing_component(prime_pool):
    p1 = prime_pool["allzero1"]
    p2 = prime_pool["allzero2"]
    assert make_radical([p1, p2]).primes == (p2,)
    assert make_radical([p2, p1]).primes == (p2,)


def test_make_radical_keeps_the_first_of_equal_data():
    # distinct data for the same prime: each contains the other
    a = make_sprime([INF], [1], [parse("t1-1")])
    b = make_sprime([INF], [1], [parse("2*t1-2")])
    assert a != b
    assert make_radical([a, b]).primes == (a,)
    assert make_radical([b, a]).primes == (b,)


def test_make_radical_trivia(prime_pool):
    p = prime_pool["circle22"]
    assert make_radical([p]).primes == (p,)
    assert make_radical([p, p]).primes == (p,)
    assert make_radical([]).primes == ()


def test_make_radical_keeps_one_of_equal_pair():
    a = make_sprime([INF, INF], [1, 1], [parse("t1+2*t2")])
    b = make_sprime([INF, INF], [1, 1], [parse("t2+2*t1")])
    out = make_radical([a, b])
    assert len(out.primes) == 1 and out.primes[0] in (a, b)


def test_zero_flag():
    z = RadicalSIdeal((), True)
    with pytest.raises(ValueError):
        RadicalSIdeal((make_sprime([INF], [1], []),), True)
    a = make_radical([make_sprime([INF], [1], [])])
    assert intersect_radical(a, z) == z
    assert intersect_radical(z, a) == z
    assert contains_radical(z, a) and not contains_radical(a, z)
    assert contains_radical(z, z)


def test_intersect_radical_examples(prime_pool):
    a = make_radical([prime_pool["allzero2"]])
    b = make_radical([prime_pool["allzero1"]])
    assert intersect_radical(a, a) == a
    assert intersect_radical(a, b) == a
    # the line through the origin lies inside the square-power prime, so the
    # latter is pruned from the intersection
    c = make_radical([prime_pool["line0"]])
    assert intersect_radical(a, c) == c
    # an incomparable pair survives as a two-element antichain
    three = make_radical([prime_pool["allzero3"]])
    both = intersect_radical(three, c)
    assert set(both.primes) == {prime_pool["allzero3"], prime_pool["line0"]}


def test_contains_radical_examples(prime_pool):
    a = make_radical([prime_pool["allzero2"]])
    b = make_radical([prime_pool["allzero1"]])
    assert contains_radical(a, a)
    assert contains_radical(a, b)
    assert not contains_radical(b, a)
    curve = make_radical([prime_pool["line0"]])
    three = make_radical([prime_pool["allzero3"]])
    assert not contains_radical(three, curve)
    # unit ideal edge: empty antichain contains everything
    unit = make_radical([])
    assert contains_radical(a, unit) and not contains_radical(unit, a)


def test_radical_lattice_properties(prime_pool, rng):
    pool = [make_radical([p]) for p in
            (prime_pool["allzero1"], prime_pool["allzero2"],
             prime_pool["line0"], prime_pool["circle22"], prime_pool["diag2"])]
    for a, b in itertools.product(pool, repeat=2):
        ab, ba = intersect_radical(a, b), intersect_radical(b, a)
        assert set(ab.primes) == set(ba.primes)
        assert intersect_radical(a, a) == a
    for a, b, c in itertools.combinations(pool, 3):
        left = intersect_radical(intersect_radical(a, b), c)
        right = intersect_radical(a, intersect_radical(b, c))
        assert set(left.primes) == set(right.primes)


def test_contains_radical_partial_order(prime_pool):
    singles = [make_radical([p]) for p in
               (prime_pool["allzero1"], prime_pool["allzero2"],
                prime_pool["allzero3"], prime_pool["line0"])]
    rel = {(i, j): contains_radical(a, b)
           for i, a in enumerate(singles) for j, b in enumerate(singles)}
    n = len(singles)
    for i in range(n):
        assert rel[(i, i)]
        for j in range(n):
            for k in range(n):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_antichain_invariant_maintained(prime_pool, rng):
    pool = list(prime_pool.values())
    for _ in range(30):
        sample = rng.sample(pool, rng.randint(1, 4))
        out = make_radical(sample)
        for p, q in itertools.permutations(out.primes, 2):
            assert not contains(p, q).contains


def test_theta_slice_examples(prime_pool):
    circ = prime_pool["circle22"]
    sl = theta_slice(circ, [shape([INF], [3])])
    assert ideal_equal(sl[shape([INF], [3])], Ideal([parse("2*t1^2-1")]))
    sl2 = theta_slice(circ, [circ.shape])
    assert ideal_equal(sl2[circ.shape], circ.z_ideal)
    free22 = prime_pool["free22"]
    sl3 = theta_slice(free22, [shape([INF], [5])])
    assert sl3[shape([INF], [5])].gens[0].is_constant()


def test_slice_monotone_under_weight_decrement(prime_pool):
    # enlarging the target downward never shrinks the slice variety
    cases = [(prime_pool["circle22"], shape([INF], [3]), shape([INF], [2])),
             (prime_pool["circle22"], shape([INF, INF], [2, 2]), shape([INF, INF], [2, 1])),
             (prime_pool["free22"], shape([INF], [4]), shape([INF], [3])),
             (prime_pool["line0"], shape([INF], [2]), shape([INF], [1]))]
    for p, bigger, smaller in cases:
        hi = theta_slice(p, [bigger])[bigger]
        lo = theta_slice(p, [smaller])[smaller]
        sat = saturate(hi, discriminant(range(1, bigger.r + 1), "t")) if bigger.r > 1 else hi
        for g in lo.gens:
            assert radical_member(g, sat)


def test_d3_stabilize_examples(prime_pool):
    c11 = prime_pool["circle11"]
    n = d3_stabilize(c11, shape([INF, INF], [1, 1]), 0)
    assert n >= 1
    n2 = d3_stabilize(prime_pool["free11"], shape([INF, INF], [1, 1]), 1)
    assert n2 == 1
    c22 = prime_pool["circle22"]
    n3 = d3_stabilize(c22, shape([INF, INF], [2, 1]), 1)
    assert n3 >= 1


def test_d3_stabilize_validation(prime_pool):
    with pytest.raises(ValueError):
        d3_stabilize(prime_pool["circle22"], shape([INF, INF], [2, 1]), 0)
    with pytest.raises(ValueError):
        d3_stabilize(prime_pool["allzero1"], shape([INF], [1]), 0)


def test_d3_trivial_family_stabilizes_immediately(prime_pool):
    # slices that are unit ideals from the start stabilize at the first step
    p = prime_pool["allzero2"]  # one part only
    base = shape([INF, INF], [1, 1])
    assert d3_stabilize(p, base, 0) == 1
