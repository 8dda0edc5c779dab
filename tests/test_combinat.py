"""Shapes, good pairs, the degeneration order, psi0, refinement pairs."""

import itertools
import random

import pytest

from symprime import combinat
from symprime.combinat import (INF, WeightedShape, _pairs, _rank, box_candidates,
                               box_degenerations, canonicalize, good_pairs, psi0,
                               refinement_pairs, shape, shape_leq, shape_sort_key,
                               parse_shape_arg)
from symprime.generators import _phi_targets

try:
    import hypothesis
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the property test needs it
    hypothesis = None


def test_canonicalize_examples():
    s, perm = canonicalize([1, INF], [1, 2])
    assert s == WeightedShape((INF, 1), (2, 1)) and perm == (1, 0)
    s2, _ = canonicalize([INF, 3], [2, 5])
    assert s2 == WeightedShape((INF, 3), (2, 1))
    s3, perm3 = canonicalize([INF], [4])
    assert s3 == WeightedShape((INF,), (4,)) and perm3 == (0,)


def test_shape_validation():
    with pytest.raises(ValueError):
        WeightedShape((3,), (1,))          # no infinite part
    with pytest.raises(ValueError):
        WeightedShape((INF, 2), (1, 3))    # weight on finite part
    with pytest.raises(ValueError):
        WeightedShape((1, INF), (1, 1))    # not sorted
    with pytest.raises(ValueError):
        canonicalize([2, 3], [1, 1])


def test_good_pairs_examples():
    src = shape([INF, INF], [2, 2])
    gps = good_pairs(shape([INF], [4]), src)
    assert len(gps) == 1
    assert gps[0].domain == (0, 1) and gps[0].targets == (0, 0)
    assert good_pairs(shape([INF], [5]), src) == ()
    gps2 = good_pairs(shape([INF], [1]), shape([INF], [1]))
    assert len(gps2) == 1 and gps2[0].domain == (0,)


def test_shape_leq_examples():
    src = shape([INF, INF], [2, 2])
    assert shape_leq(shape([INF], [4]), src)
    assert not shape_leq(shape([INF, 1], [3, 1]), src)
    for s in [src, shape([INF], [3]), shape([INF, 2], [1, 1])]:
        assert shape_leq(s, s)


def test_psi0_goldens():
    assert set(psi0(shape([INF], [2]))) == {shape([INF], [3]),
                                            shape([INF, 1], [1, 1])}
    assert set(psi0(shape([INF, INF], [2, 2]))) == {
        shape([INF], [5]), shape([INF, 1], [3, 1]),
        shape([INF, 1, 1], [1, 1, 1])}
    assert set(psi0(shape([INF], [1]))) == {shape([INF], [2]),
                                            shape([INF, 1], [1, 1])}


def test_psi0_handles_merge_dominance():
    # ((inf,inf),(2,2)) passes the predecessor-move check against this base
    # but is dominated by ((inf),(4)) through a part merge, so it must not
    # appear among the minimal obstructions.
    out = psi0(shape([INF, INF], [2, 1]))
    assert shape([INF], [4]) in out
    assert shape([INF, INF], [2, 2]) not in out


BASES = [shape([INF], [1]), shape([INF], [2]), shape([INF], [3]),
         shape([INF, INF], [1, 1]), shape([INF, INF], [2, 2]),
         shape([INF, INF], [2, 1]), shape([INF, 1], [2, 1]),
         shape([INF, 2], [1, 1])]


@pytest.mark.parametrize("base", BASES, ids=str)
def test_psi0_invariants(base):
    out = psi0(base)
    c = base.inf_weight_sum()
    for s in out:
        assert not shape_leq(s, base)
    # pairwise antichain
    for s in out:
        for t in out:
            if s != t:
                assert not shape_leq(s, t)
    # the weight-threshold element is always present
    assert shape([INF], [c + 1]) in out
    # anything with more parts than base plus one dominates the all-ones element
    all_ones = shape([INF] + [1] * base.r, [1] * (base.r + 1))
    assert all_ones in out or any(shape_leq(m, all_ones) for m in out)
    wide = shape([INF] * (base.r + 2), [1] * (base.r + 2))
    assert any(shape_leq(m, wide) for m in out)


SAMPLE = [shape([INF], [1]), shape([INF], [2]), shape([INF], [4]),
          shape([INF, INF], [1, 1]), shape([INF, INF], [2, 2]),
          shape([INF, INF], [3, 1]), shape([INF, 1], [1, 1]),
          shape([INF, 1], [3, 1]), shape([INF, 2], [2, 1]),
          shape([INF, INF, 1], [1, 1, 1])]


def test_shape_leq_reflexive_transitive_antisymmetric(rng):
    for s in SAMPLE:
        assert shape_leq(s, s)
    rel = {(a, b): shape_leq(a, b) for a in SAMPLE for b in SAMPLE}
    for a in SAMPLE:
        for b in SAMPLE:
            if rel[(a, b)] and a != b:
                assert not rel[(b, a)], (str(a), str(b))
            for c in SAMPLE:
                if rel[(a, b)] and rel[(b, c)]:
                    assert rel[(a, c)], (str(a), str(b), str(c))


@pytest.mark.parametrize("box", [(3, 3, 3), (4, 2, 2)], ids=str)
def test_shape_leq_agrees_with_good_pairs(box):
    shapes = list(box_candidates(*box))
    for a in shapes:
        for b in shapes:
            assert shape_leq(a, b) == bool(good_pairs(a, b)), (str(a), str(b))


def _good_pairs_unpruned(target, source):
    """good_pairs without its domain prune, as the reference: every
    nonempty subset of source parts is tried, in sorted order."""
    subsets = sorted(tuple(c) for k in range(1, source.r + 1)
                     for c in itertools.combinations(range(source.r), k))
    out = []
    for domain in subsets:
        for targets in itertools.product(range(target.r), repeat=len(domain)):
            ok = True
            for beta in range(target.r):
                fiber = [a for a, b in zip(domain, targets) if b == beta]
                size = sum(source.parts[a] for a in fiber)
                wsum = sum(source.weights[a] for a in fiber if source.parts[a] == INF)
                if target.parts[beta] > size or (target.parts[beta] == INF
                                                 and target.weights[beta] > wsum):
                    ok = False
                    break
            if ok:
                out.append(combinat.GoodPair(domain, targets))
    return tuple(out)


@pytest.mark.parametrize("box", [(3, 3, 3), (4, 2, 1)], ids=str)
def test_good_pairs_matches_the_unpruned_loop(box):
    shapes = list(box_candidates(*box))
    for a in shapes:
        for b in shapes:
            assert good_pairs(a, b) == _good_pairs_unpruned(a, b), (str(a), str(b))


def _degeneration(data, b):
    """A shape below b, built from a total map of some of b's parts onto
    new parts followed by shrinking each new part's size or weight."""
    src = list(zip(b.parts, b.weights))
    labels = data.draw(st.lists(st.integers(-1, b.r - 1),
                                min_size=b.r, max_size=b.r))
    parts, weights = [], []
    for label in sorted(set(labels) - {-1}):
        fiber = [src[i] for i, lab in enumerate(labels) if lab == label]
        inf_weight = sum(w for p, w in fiber if p == INF)
        if inf_weight and data.draw(st.booleans()):
            parts.append(INF)
            weights.append(data.draw(st.integers(1, inf_weight)))
        else:
            size = INF if inf_weight else sum(p for p, _ in fiber)
            parts.append(data.draw(st.integers(1, min(size, 6))))
            weights.append(1)
    hypothesis.assume(INF in parts)
    return shape(parts, weights)


PART = [(INF, w) for w in range(1, 5)] + [(p, 1) for p in range(1, 5)]


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_rank_strictly_increases_along_degeneration():
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(PART), min_size=1, max_size=5), st.data())
    def check(pws, data):
        hypothesis.assume(any(p == INF for p, _ in pws))
        b = shape([p for p, _ in pws], [w for _, w in pws])
        a = _degeneration(data, b)
        assert shape_leq(a, b)
        if a != b:
            assert _rank(_pairs(a)) < _rank(_pairs(b))
            assert not shape_leq(b, a)

    check()


def _psi0_all_pairs(base):
    """psi0 with minimality decided by testing every obstruction against
    every other one (no certificate or boundary checks)."""
    obstructions = [s for s in box_candidates(base.r + 1, 1 + base.finite_sum(),
                                              1 + base.inf_weight_sum())
                    if not shape_leq(s, base)]
    minimal = [s for s in obstructions
               if not any(t != s and shape_leq(t, s) for t in obstructions)]
    return tuple(sorted(minimal, key=shape_sort_key))


CONTAIN_CLI_TARGETS = ("inf;1", "inf;2", "inf;3", "inf,inf;1,1", "inf,inf;2,2",
                       "inf,inf;2,1", "inf,1;2,1", "inf,1;1,1")


# BASES and the contain_cli targets ("inf,2;1,1" is the one base the
# targets lack), plus two three-part bases
PSI0_BASES = CONTAIN_CLI_TARGETS + ("inf,2;1,1", "inf,inf,inf;1,1,1", "inf,1,2;2,1,1")


@pytest.mark.parametrize("text", PSI0_BASES)
def test_psi0_matches_all_pairs_minimality(text):
    base = parse_shape_arg(*text.split(";"))
    assert psi0(base) == _psi0_all_pairs(base)


def _check_minimal_in_larger_box(base):
    """psi0(base) is the set of minimal obstructions of the box with one
    more part, and finite sizes and weights one above psi0's caps.

    An antichain of obstructions is that set exactly when every obstruction
    of the box lies above one of its members: a minimal obstruction then
    lies above a member and so equals it, and a member with an obstruction
    below it would lie above another member.
    """
    out = psi0(base)
    obstructions = [s for s in box_candidates(base.r + 2, 2 + base.finite_sum(),
                                              2 + base.inf_weight_sum())
                    if not shape_leq(s, base)]
    assert set(out) <= set(obstructions)
    assert all(s == t or not shape_leq(s, t) for s in out for t in out)
    for s in obstructions:
        assert any(shape_leq(m, s) for m in out), (str(base), str(s))


@pytest.mark.parametrize("text", PSI0_BASES + ("inf,inf,2;3,2,1",))
def test_psi0_box_agrees_with_a_larger_box(text):
    _check_minimal_in_larger_box(parse_shape_arg(*text.split(";")))


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_psi0_box_agrees_with_a_larger_box_on_random_bases():
    parts = [(INF, w) for w in range(1, 4)] + [(p, 1) for p in range(1, 4)]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(parts), min_size=1, max_size=3))
    def check(pws):
        hypothesis.assume(any(p == INF for p, _ in pws))
        _check_minimal_in_larger_box(shape([p for p, _ in pws], [w for _, w in pws]))

    check()


def test_psi0_golden_three_parts():
    out = psi0(shape([INF, INF, 2], [3, 2, 1]))
    assert [str(s) for s in out] == ["(inf);(6)", "(inf,3);(4,1)", "(inf,1,1);(4,1,1)",
                                     "(inf,3,3);(1,1,1)", "(inf,1,1,1);(1,1,1,1)"]


def test_psi0_shape_leq_calls(monkeypatch):
    calls = []
    leq = combinat._leq

    def counting(a, b):
        calls.append((a, b))
        return leq(a, b)

    # psi0 runs the search on (size, weight) pairs, not through shape_leq
    monkeypatch.setattr(combinat, "_leq", counting)
    psi0(shape([INF, INF], [2, 2]))
    # testing every obstruction against every other one took 753 calls
    assert len(calls) == 165


def _shape_rank(s):
    """The rank of `_psi0_on_shapes`, read off a WeightedShape."""
    return (s.r, s.inf_weight_sum(), sum(1 for p in s.parts if p == INF),
            s.finite_sum())


def _psi0_on_shapes(base):
    """psi0 as a filter and rank sweep over WeightedShapes: every box
    candidate is built as a shape and tested with shape_leq."""
    obstructions = [s for s in box_candidates(base.r + 1, 1 + base.finite_sum(),
                                              1 + base.inf_weight_sum())
                    if not shape_leq(s, base)]
    kept = []
    for s in sorted(obstructions, key=_shape_rank):
        if not any(shape_leq(m, s) for m in kept):
            kept.append(s)
    return tuple(sorted(kept, key=shape_sort_key))


def test_psi0_matches_the_shape_sweep_on_a_box():
    for base in box_candidates(3, 3, 3):
        assert psi0(base) == _psi0_on_shapes(base), str(base)


def test_psi0_matches_the_shape_sweep_on_phi_targets(prime_pool):
    for p in prime_pool.values():
        lam = p.shape
        below = [s for s in box_candidates(lam.r, 1 + lam.finite_sum(), lam.inf_weight_sum())
                 if shape_leq(s, lam)]
        assert box_degenerations(lam, lam.r, 1 + lam.finite_sum(),
                                 lam.inf_weight_sum()) == below
        for target in _phi_targets(p):
            assert psi0(target) == _psi0_on_shapes(target), str(target)


def test_refinement_pairs_examples():
    assert refinement_pairs(shape([INF], [1]), shape([INF], [1])) == \
        [((0,), (INF,))]
    assert refinement_pairs(shape([INF, 1], [1, 1]), shape([INF], [1])) == \
        [((0, 0), (INF, 1))]
    assert refinement_pairs(shape([INF, INF], [1, 1]), shape([INF, 1], [1, 1])) == \
        [((0, 1), (INF, 1)), ((1, 0), (1, INF))]


def test_refinement_pairs_fiber_sums():
    src = shape([INF, 2], [3, 1])
    tgt = shape([INF, 2], [1, 1])
    for phi, kappa in refinement_pairs(src, tgt):
        for beta, mu in enumerate(tgt.parts):
            fiber_sum = sum(kappa[a] for a, b in enumerate(phi) if b == beta)
            assert fiber_sum == mu
        for a, k in enumerate(kappa):
            assert k <= src.parts[a]
            if tgt.parts[phi[a]] == INF:
                assert k == src.parts[a]


def _reference_refinement_pairs(source, target):
    """The recursive enumeration refinement_pairs replaced: per map, the
    compositions of each finite target under its sources' caps."""
    lam, mu = source.parts, target.parts
    out = []
    for phi in itertools.product(range(len(mu)), repeat=len(lam)):
        fibers = [[a for a, b in enumerate(phi) if b == beta] for beta in range(len(mu))]
        if any(not f for f in fibers):
            continue
        choices_per_beta = []
        for beta, fiber in enumerate(fibers):
            if mu[beta] == INF:
                if all(lam[a] != INF for a in fiber):
                    break
                choices_per_beta.append([tuple(lam[a] for a in fiber)])
            else:
                opts = _bounded_compositions(mu[beta], [lam[a] for a in fiber])
                if not opts:
                    break
                choices_per_beta.append(opts)
        else:
            for pick in itertools.product(*choices_per_beta):
                kappa = [None] * len(lam)
                for fiber, sizes in zip(fibers, pick):
                    for a, k in zip(fiber, sizes):
                        kappa[a] = k
                out.append((phi, tuple(kappa)))
    return sorted(out)


def _bounded_compositions(total, caps):
    """All tuples of positive integers below the caps summing to total."""
    results = []

    def rec(i, remaining, acc):
        if i == len(caps):
            if remaining == 0:
                results.append(tuple(acc))
            return
        hi = remaining - (len(caps) - i - 1)
        cap = caps[i] if caps[i] != INF else hi
        for k in range(1, min(cap, hi) + 1):
            rec(i + 1, remaining - k, acc + [k])

    rec(0, total, [])
    return results


def test_refinement_pairs_match_the_recursive_reference():
    shapes = list(box_candidates(3, 3, 2))
    nonempty = 0
    for src in shapes:
        for tgt in shapes:
            got = refinement_pairs(src, tgt)
            want = _reference_refinement_pairs(src, tgt)
            assert got == want, (src, tgt)
            # INF is a float and finite sizes are ints, on both sides
            assert [[type(k) for k in kappa] for _, kappa in got] == \
                [[type(k) for k in kappa] for _, kappa in want]
            nonempty += bool(got)
    assert nonempty > 100


def test_parse_shape_arg():
    assert parse_shape_arg("inf,inf", "2,2") == shape([INF, INF], [2, 2])
    assert parse_shape_arg("inf,3", "2,1") == shape([INF, 3], [2, 1])


def test_shape_json_roundtrip():
    s = shape([INF, 2], [3, 1])
    assert WeightedShape.from_json_obj(s.to_json_obj()) == s
    assert s.to_json_obj() == {"lambda": ["inf", 2], "e": [3, 1]}
