"""Witness layouts, compatible traces, and separating polynomials."""

import pytest

from symprime import witness
from symprime.combinat import INF, good_pairs, shape
from symprime.groebner import Budget, BudgetExceededError
from symprime.poly import discriminant, parse, product
from symprime.sprime import make_sprime
from symprime.witness import (NoWitnessError, WitnessLayout, build_h, certify,
                              compatible_partitions)


@pytest.fixture(scope="module")
def free22():
    return make_sprime([INF, INF], [2, 2], [])


@pytest.fixture(scope="module")
def circle22():
    return make_sprime([INF, INF], [2, 2], [parse("t1^2+t2^2-1")])


def test_layout_fields(free22):
    lay = WitnessLayout.build(free22.shape, shape([INF, 1], [3, 1]))
    assert lay.n == 1 and lay.tau == (3, 1) and lay.m == 4
    assert lay.blocks == ((1, 2, 3), (4,))
    assert lay.sub_blocks == (((1, 2, 3),), ())
    assert lay.N == 3


def test_layout_blocks_partition_window():
    p = make_sprime([INF, 2], [2, 1], [])
    lay = WitnessLayout.build(p.shape, shape([INF, INF, 2], [2, 1, 1]))
    assert lay.n == 3
    flat = [i for b in lay.blocks for i in b]
    assert flat == list(range(1, lay.m + 1))
    for subs, block in zip(lay.sub_blocks, lay.blocks):
        if subs:
            assert [i for s in subs for i in s] == list(block)


def test_compatible_partition_counts(circle22, free22):
    t3 = shape([INF], [3])
    gp = good_pairs(t3, circle22.shape)[0]
    lay = WitnessLayout.build(circle22.shape, t3)
    assert len(compatible_partitions(gp, lay, circle22.shape)) == 6

    pm = make_sprime([INF], [2], [parse("t1")])
    t2 = shape([INF], [2])
    gp2 = good_pairs(t2, pm.shape)[0]
    lay2 = WitnessLayout.build(pm.shape, t2)
    assert len(compatible_partitions(gp2, lay2, pm.shape)) == 1

    t4 = shape([INF], [4])
    gp4 = good_pairs(t4, free22.shape)[0]
    lay4 = WitnessLayout.build(free22.shape, t4)
    parts = compatible_partitions(gp4, lay4, free22.shape)
    assert len(parts) == 6
    for trace in parts:
        assert trace.count(0) == 2 and trace.count(1) == 2


def test_compatible_partitions_respect_budget():
    p = make_sprime([INF, INF], [2, 1], [parse("t1+t2-1")])
    target = shape([INF], [3])
    gp = good_pairs(target, p.shape)[0]
    lay = WitnessLayout.build(p.shape, target)
    assert compatible_partitions(gp, lay, p.shape)
    with pytest.raises(BudgetExceededError):
        compatible_partitions(gp, lay, p.shape, budget=Budget(max_reductions=4))


def test_compatible_partitions_respect_finite_parts():
    p = make_sprime([INF, 1], [2, 1], [])
    target = shape([INF], [3])
    gp = good_pairs(target, p.shape)
    # only the infinite part can absorb a weight-3 target on its own... both parts needed
    lay = WitnessLayout.build(p.shape, target)
    for g in gp:
        for trace in compatible_partitions(g, lay, p.shape):
            assert trace.count(1) <= 1


def test_build_h_goldens(free22):
    assert build_h(free22, shape([INF], [5])) == discriminant([1, 2, 3, 4, 5])
    expect = discriminant([1, 2, 3]) * parse("((x1-x4)*(x2-x4)*(x3-x4))^3")
    assert build_h(free22, shape([INF, 1], [3, 1])) == expect
    assert build_h(free22, shape([INF, 1, 1], [1, 1, 1])) == discriminant([1, 2, 3]) ** 3


def test_build_h_window_is_exactly_the_layout(free22, circle22):
    cases = [(free22, shape([INF], [5]), None),
             (free22, shape([INF, 1], [3, 1]), None),
             (free22, shape([INF, 1, 1], [1, 1, 1]), None),
             (circle22, shape([INF], [3]), ["5"])]
    for p, target, point in cases:
        lay = WitnessLayout.build(p.shape, target)
        h = build_h(p, target, q_point=point)
        assert {v[1] for v in h.variables()} == set(range(1, lay.m + 1))
        assert all(v[0] == "x" for v in h.variables())


def test_build_h_cross_block_exponent(free22):
    h = build_h(free22, shape([INF, 1], [3, 1]))
    # every cross-block difference carries exponent exactly N = 3
    from symprime.groebner import poly_divides
    for i in (1, 2, 3):
        d = parse("x%d - x4" % i)
        assert poly_divides(d ** 3, h)
        assert not poly_divides(d ** 4, h)


def test_build_h_needs_point_when_good_pairs_exist(circle22):
    with pytest.raises(NoWitnessError):
        build_h(circle22, shape([INF], [3]))


def test_build_h_rejects_bad_points(circle22):
    with pytest.raises(ValueError):
        build_h(circle22, shape([INF], [3]), q_point=["1", "2"])
    p = make_sprime([INF, INF], [1, 1], [parse("t1-2*t2")])
    with pytest.raises(ValueError):
        build_h(p, shape([INF, INF], [1, 1]), q_point=["1", "1"])


def test_build_h_rejects_bad_points_without_good_pairs():
    # a given point is checked as when good pairs exist, though none reads it
    p = make_sprime([INF], [1], [])
    target = shape([INF], [3])
    assert not good_pairs(target, p.shape)
    for point, message in ((["abc"], "Invalid literal for Fraction: 'abc'"),
                           (["1", "2", "3"], "point has 3 coordinates, target has 1 parts"),
                           (["1/0"], "point coordinates need nonzero denominators")):
        with pytest.raises(ValueError) as err:
            build_h(p, target, q_point=point)
        assert str(err.value) == message
    assert build_h(p, target, q_point=["5"]) == build_h(p, target)


def test_build_h_point_inside_closure_raises():
    p = make_sprime([INF, INF], [1, 1], [parse("t1+t2")])
    with pytest.raises(NoWitnessError):
        build_h(p, shape([INF], [2]), q_point=["0"])


def test_witness_certifies(circle22):
    y = make_sprime([INF], [3], [parse("t1-1")])
    h = build_h(circle22, y.shape, q_point=["1"])
    assert certify(h, circle22, y) == (True, False)


def test_witness_difference_power_pair():
    p = make_sprime([INF], [2], [])
    q = make_sprime([INF, 1], [1, 1], [])
    h = build_h(p, q.shape)
    assert h == parse("(x1-x2)^3")
    assert certify(h, p, q) == (True, False)


def test_discriminant_witness_membership():
    p = make_sprime([INF, INF], [1, 1], [])
    q = make_sprime([INF], [3], [parse("t1")])
    d3 = discriminant([1, 2, 3])
    in_p, in_q = certify(d3, p, q)
    assert in_p and not in_q


def test_unit_is_never_a_member(circle22):
    q = make_sprime([INF], [2], [parse("t1")])
    assert certify(parse("1"), circle22, q) == (False, False)


def test_each_witness_is_one_product(circle22, monkeypatch):
    # h1's and h2's factors and the locus factors go into one product, with
    # no product of h1*h2 alone to multiply again per witness
    calls = []

    def counted(factors, field):
        calls.append(len(factors))
        return product(factors, field)
    monkeypatch.setattr(witness, "product", counted)
    target = shape([INF], [2])
    gps = good_pairs(target, circle22.shape)
    locus = {gp: (parse("t1^2+t2^2-1"), parse("t1-t2")) for gp in gps}
    out = list(witness.witnesses(circle22.shape, target, locus))
    assert len(out) == 2 ** len(gps) == len(calls)
    assert len(set(out)) > 1


def test_traces_are_enumerated_once_per_call(circle22, monkeypatch):
    calls = []

    def counted(gp, *args):
        calls.append(gp)
        return compatible_partitions(gp, *args)
    monkeypatch.setattr(witness, "compatible_partitions", counted)
    target = shape([INF], [2])
    gps = good_pairs(target, circle22.shape)
    locus = {gp: (parse("t1^2+t2^2-1"), parse("t1-t2")) for gp in gps}
    assert len(list(witness.witnesses(circle22.shape, target, locus))) == 2 ** len(gps)
    assert calls == list(gps)
    # a good pair with no generators: no witness and no trace space enumerated
    calls.clear()
    locus[gps[-1]] = ()
    assert list(witness.witnesses(circle22.shape, target, locus)) == []
    assert calls == []
