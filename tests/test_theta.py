"""Degeneration closures and the containment oracle."""

import importlib
import itertools
import warnings

import pytest

from symprime.combinat import GoodPair, INF, shape
from symprime.groebner import (Budget, BudgetExceededError, Ideal, ideal_equal,
                               radical_member, saturate)
from symprime.poly import discriminant, parse, tvar
from symprime.sprime import SPrimeData, _saturated, make_sprime
from symprime.theta import contains, equal, projection_ideal, theta, theta_pair


def test_theta_pair_examples():
    p = make_sprime([INF, INF], [1, 1], [parse("t1+t2")])
    c = theta_pair(p, shape([INF], [2]), GoodPair((0, 1), (0, 0)))
    assert ideal_equal(c, Ideal([parse("2*t1")]))
    circ = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    c2 = theta_pair(circ, shape([INF], [3]), GoodPair((0, 1), (0, 0)))
    assert ideal_equal(c2, Ideal([parse("2*t1^2-1")]))
    c3 = theta_pair(circ, shape([INF], [2]), GoodPair((0,), (0,)))
    assert c3.gens == ()


def test_make_sprime_reuses_the_saturation_basis(buchberger_calls):
    # the saturation's elimination leaves its basis for is_unit_ideal
    _saturated.cache_clear()
    make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    assert len(buchberger_calls) == 1


def test_projection_ideal_reuses_the_elimination_basis(buchberger_calls):
    _saturated.cache_clear()
    p = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    counts = []
    for _ in range(3):
        before = len(buchberger_calls)
        projection_ideal(p, (0,))
        counts.append(len(buchberger_calls) - before)
    # one block-order basis of the saturation, then only cache hits
    assert counts == [1, 0, 0]


def test_theta_of_a_reloaded_prime_is_served_by_the_memo(buchberger_calls):
    theta.cache_clear()
    target = shape([INF, INF], [2, 2])
    first = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    th = theta(first, target)
    assert buchberger_calls  # at least the intersection of the two components
    again = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    assert again == first and again is not first
    before = len(buchberger_calls)
    assert theta(again, target) == th
    assert len(buchberger_calls) == before


def test_theta_memo_is_keyed_by_the_budget():
    # the two components' intersection needs more than one division step
    p = make_sprime([INF, INF], [1, 1], [parse("t1+2*t2-1")])
    target = shape([INF, INF], [1, 1])
    assert theta(p, target).ideal.gens
    assert theta(p, target, Budget(max_reductions=2_000_000)).ideal.gens
    for _ in range(2):  # an exhausted budget is not remembered either
        with pytest.raises(BudgetExceededError):
            theta(p, target, Budget(max_reductions=1))


def test_theta_intersects_each_distinct_component_once(monkeypatch):
    target = shape([INF, INF], [1, 1])
    # the package exports the function theta under the module's name
    theta_module = importlib.import_module("symprime.theta")
    calls = []
    real = theta_module.ideal_intersect

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(theta_module, "ideal_intersect", counted)
    for zgens, distinct_count, calls_count in [
            # 12 good pairs of three parts into two share 5 component
            # ideals, none zero: each distinct one is intersected once
            (["t1+t2+t3", "t1*t2*t3-1"], 5, 4),
            # they share 4, one of them the zero ideal (the pairs whose
            # domain drops t1 or t2): it is the intersection, and none runs
            (["t1+t2-1"], 4, 0)]:
        p = make_sprime([INF, INF, INF], [1, 1, 1], [parse(s) for s in zgens])
        calls.clear()
        th = theta.__wrapped__(p, target)
        distinct = set(comp for _, comp in th.components)
        assert len(th.components) == 12 and len(distinct) == distinct_count
        assert len(calls) == calls_count
        total = th.components[0][1]
        for _, comp in th.components[1:]:
            total = real(total, comp)
        assert ideal_equal(th.ideal, total)


def test_theta_examples():
    free22 = make_sprime([INF, INF], [2, 2], [])
    th = theta(free22, shape([INF], [5]))
    assert not th.components and th.ideal.gens[0].is_constant()
    circ = make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])
    assert theta(circ, shape([INF], [2])).ideal.gens == ()
    p = make_sprime([INF, INF], [1, 1], [parse("t1+t2-1")])
    assert ideal_equal(theta(p, shape([INF], [2])).ideal, Ideal([parse("2*t1-1")]))


@pytest.mark.parametrize("zgen,expected", [
    ("t1+t2", (True, True, False)),
    ("t1+t2-1", (True, False, False)),
])
def test_containment_triple(zgen, expected):
    p = make_sprime([INF, INF], [1, 1], [parse(zgen)])
    got = tuple(contains(p, make_sprime([INF], [n], [parse("t1")])).contains
                for n in (1, 2, 3))
    assert got == expected


def test_contains_certificate():
    p = make_sprime([INF], [2], [parse("t1")])
    q = make_sprime([INF], [3], [parse("t1")])
    res = contains(p, q)
    assert not res.contains and res.separator is not None
    sat_q = q.z_ideal
    assert not radical_member(res.separator, sat_q)
    ok = contains(q, p)
    assert ok.contains and ok.separator is None


def test_contains_weight_one_target_always():
    for p in [make_sprime([INF], [3], [parse("t1")]),
              make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")]),
              make_sprime([INF, INF], [2, 1], [])]:
        target = SPrimeData(shape(list(p.shape.parts), [1] * p.shape.r), p.z_ideal)
        assert contains(p, target).contains


def test_contains_empty_target_warns_vacuous():
    p = make_sprime([INF], [1], [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # make_sprime warns of the empty locus
        q = make_sprime([INF, INF], [1, 1], [parse("t1-t2")])
    for _ in range(2):  # the memo of the generator scan does not swallow it
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            res = contains(p, q)
        assert res.contains
        assert any("vacuous" in str(w.message) for w in log)


# the first containment of seed 1 of the contain_cli benchmark that a
# budget of 5 pair reductions refuses
S17 = ([INF, INF, 1], [2, 1, 1], ["t1 - 2", "t2 + 1", "t3 + 2"])
CIRCLE11 = ([INF, INF], [1, 1], ["t1^2+t2^2-1"])


def _prime(parts, weights, gens):
    return make_sprime(parts, weights, [parse(g) for g in gens])


@pytest.mark.parametrize("p_data,q_data,separator", [
    (S17, CIRCLE11, "t1 + t2 - 1"), (CIRCLE11, CIRCLE11, None)])
def test_a_repeated_containment_makes_no_division(monkeypatch, p_data, q_data, separator):
    theta_module = importlib.import_module("symprime.theta")
    calls = []

    def counted(*args):
        calls.append(args)
        return radical_member(*args)
    monkeypatch.setattr(theta_module, "radical_member", counted)
    theta_module._separator.cache_clear()
    q = _prime(*q_data)
    first = contains(_prime(*p_data), q)
    assert calls
    assert (first.contains, first.separator) == (separator is None, separator and parse(separator))
    calls.clear()
    again = contains(_prime(*p_data), q)  # an equal prime, loaded again
    assert calls == []
    assert (again.contains, again.separator) == (first.contains, first.separator)


def test_a_budget_error_of_the_generator_scan_is_not_stored():
    theta_module = importlib.import_module("symprime.theta")
    p, q = _prime(*S17), _prime(*CIRCLE11)
    th = theta(p, q.shape)
    sat_q = _saturated(q.z_ideal, q.shape.r)
    assert th.ideal.gens and not contains(p, q).contains
    before = theta_module._separator.cache_info().currsize
    for _ in range(2):  # raised again by the next call
        with pytest.raises(BudgetExceededError):
            theta_module._separator(th.ideal, sat_q, Budget(max_reductions=1))
    assert theta_module._separator.cache_info().currsize == before
    # the small budget still fails after the default one has succeeded
    with pytest.raises(BudgetExceededError):
        contains(p, q, Budget(max_reductions=5))


def test_equal_examples():
    p = make_sprime([INF], [2], [parse("t1")])
    assert equal(p, p)
    a = make_sprime([INF, INF], [2, 1], [parse("t1+2*t2")])
    b = make_sprime([INF, INF], [1, 2], [parse("t2+2*t1")])
    assert a == b and equal(a, b)
    assert not equal(make_sprime([INF], [1], [parse("t1")]),
                     make_sprime([INF], [2], [parse("t1")]))
    # same shape, swapped variety description
    c1 = make_sprime([INF, INF], [1, 1], [parse("t1+2*t2")])
    c2 = make_sprime([INF, INF], [1, 1], [parse("t2+2*t1")])
    assert c1 != c2 and equal(c1, c2)


def test_contains_reflexive(prime_pool, contains_memo):
    for p in prime_pool.values():
        assert contains_memo(p, p)


def test_contains_transitive(prime_pool, contains_memo):
    pool = list(prime_pool.values())
    rel = {(p, q): contains_memo(p, q) for p in pool for q in pool}
    checked = 0
    for p, q, r in itertools.product(pool, repeat=3):
        if rel[(p, q)] and rel[(q, r)]:
            assert rel[(p, r)], (str(p), str(q), str(r))
            checked += 1
    assert checked >= 100


def test_relabeling_invariance(prime_pool, contains_memo):
    # feeding permuted raw data must not change any containment answer
    raw = [([INF, INF], [2, 2], ["t1^2+t2^2-1"]),
           ([INF, INF], [1, 1], ["t1+t2"]),
           ([INF, INF], [2, 1], ["t1-2*t2"]),
           ([INF, 1], [1, 1], ["t1-1"])]
    count = 0
    for parts, weights, gens in raw:
        p = make_sprime(parts, weights, [parse(s) for s in gens])
        swapped_gens = [parse(s).rename({tvar(1): tvar(2), tvar(2): tvar(1)})
                        for s in gens]
        p_swapped = make_sprime(parts[::-1], weights[::-1], swapped_gens)
        for q in prime_pool.values():
            assert contains_memo(p, q) == contains_memo(p_swapped, q)
            assert contains_memo(q, p) == contains_memo(q, p_swapped)
            count += 2
    assert count >= 100


def test_theta_composition_containment(prime_pool):
    # composing degeneration closures through an intermediate shape lands
    # inside the direct closure
    cases = [(prime_pool["circle22"], shape([INF, INF], [2, 1]), shape([INF], [2])),
             (prime_pool["circle22"], shape([INF, INF], [1, 1]), shape([INF], [1])),
             (prime_pool["line0"], shape([INF, INF], [1, 1]), shape([INF], [1])),
             (prime_pool["free22"], shape([INF, INF], [2, 1]), shape([INF], [3])),
             (prime_pool["free22"], shape([INF], [4]), shape([INF], [2])),
             (prime_pool["mixed21"], shape([INF, INF], [1, 1]), shape([INF], [2]))]
    for p, mid, final in cases:
        step1 = theta(p, mid).ideal
        mid_data = SPrimeData(mid, step1)
        composed = theta(mid_data, final).ideal
        direct = theta(p, final).ideal
        sat = saturate(composed, discriminant(range(1, final.r + 1), "t")) if final.r > 1 else composed
        for g in direct.gens:
            assert radical_member(g, sat), (str(p), str(mid), str(final), str(g))
