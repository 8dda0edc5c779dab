"""Separating polynomials certifying non-containment between stable primes.

Given source data p and a target shape, the witness h = h1 * h2 * h3 places a
finite window of variables into target blocks, multiplies discriminants over
the jet sub-blocks (h1), difference powers across distinct blocks (h2), and
lifts of locus equations over all good pairs and compatible traces (h3).
A valid witness lies in p's prime but not in the target prime.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinat import INF, good_pairs
from .groebner import BudgetExceededError, DEFAULT_BUDGET
from .poly import InputError, Poly, QQ, discriminant, xvar
from .sprime import member
from .theta import projection_ideal


class NoWitnessError(RuntimeError):
    """No separating polynomial exists for the requested data."""


@dataclass(frozen=True)
class WitnessLayout:
    """Window bookkeeping: block index ranges per target part, jet sub-blocks
    inside infinite blocks, and the cross-block difference exponent."""

    n: int
    tau: tuple
    m: int
    blocks: tuple          # per target part: tuple of 1-based window indices
    sub_blocks: tuple      # per target part: tuple of index tuples (infinite parts)
    N: int

    @classmethod
    def build(cls, source, target):
        n = 1 + source.finite_sum()
        tau = tuple(p if p != INF else n * w
                    for p, w in zip(target.parts, target.weights))
        blocks, subs = [], []
        offset = 0
        for size, part, weight in zip(tau, target.parts, target.weights):
            idx = tuple(range(offset + 1, offset + size + 1))
            blocks.append(idx)
            if part == INF:
                subs.append(tuple(idx[k * weight:(k + 1) * weight] for k in range(n)))
            else:
                subs.append(())
            offset += size
        return cls(n, tau, offset, tuple(blocks), tuple(subs), 2 * source.e_max() - 1)

    def to_json_obj(self):
        return {"n": self.n, "tau": list(self.tau), "m": self.m,
                "blocks": [list(b) for b in self.blocks],
                "sub_blocks": [[list(s) for s in sb] for sb in self.sub_blocks],
                "N": self.N}


def compatible_partitions(gp, layout, source, budget=None):
    """Trace assignments of the window into the chosen source parts.

    Each window index is assigned a source part from the fiber of its block;
    every chosen part receives at least one index, jet sub-blocks meet each
    part in at most its weight, and finite parts are not overfilled.  Yields
    tuples giving the source part position (0-based) per window index.
    Raises BudgetExceededError when the trace space exceeds the budget's
    max_reductions.
    """
    allowed = [gp.fiber(beta) for beta, block in enumerate(layout.blocks)
               for _ in block]
    total = 1
    for a in allowed:
        total *= len(a)
    if total > (budget or DEFAULT_BUDGET).max_reductions:
        raise BudgetExceededError("trace space of size %d exceeds budget" % total)
    out = []
    for choice in itertools.product(*allowed):
        counts = {}
        for alpha in choice:
            counts[alpha] = counts.get(alpha, 0) + 1
        if any(alpha not in counts for alpha in gp.domain):
            continue
        if any(source.parts[a] != INF and counts.get(a, 0) > source.parts[a]
               for a in gp.domain):
            continue
        ok = True
        for beta, subs in enumerate(layout.sub_blocks):
            for sub in subs:
                local = {}
                for i in sub:
                    a = choice[i - 1]
                    local[a] = local.get(a, 0) + 1
                if any(cnt > source.weights[a] for a, cnt in local.items()):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(choice)
    return tuple(out)


def _lift(u, trace, source_r):
    """Send each source coordinate to the smallest window index of its trace."""
    reps = {}
    for i, alpha in enumerate(trace):
        reps.setdefault(alpha, i + 1)
    rename = {("t", a + 1): Poly.variable(xvar(reps[a]), QQ)
              for a in range(source_r) if a in reps}
    return u.substitute(rename)


def _h1(layout):
    out = Poly.const(1, QQ)
    for subs in layout.sub_blocks:
        for sub in subs:
            out = out * discriminant(sub, "x", QQ)
    return out


def _h2(layout):
    out = Poly.const(1, QQ)
    for b1, b2 in itertools.combinations(range(len(layout.blocks)), 2):
        for i in layout.blocks[b1]:
            for j in layout.blocks[b2]:
                lo, hi = min(i, j), max(i, j)
                diff = Poly.variable(xvar(lo), QQ) - Poly.variable(xvar(hi), QQ)
                out = out * diff ** layout.N
    return out


def _h3_factors(source, layout, u_choices, budget=None):
    """Distinct lifted-and-raised locus factors, in order of first
    appearance, over the good pairs keying u_choices."""
    return dict.fromkeys(
        _lift(u, trace, source.r) ** (len(gp.domain) * source.e_max())
        for gp, u in u_choices.items()
        for trace in compatible_partitions(gp, layout, source, budget))


def _h12_degree(layout):
    """Degree of h1*h2, read off the layout without expanding either."""
    h1 = sum(len(sub) * (len(sub) - 1) // 2
             for subs in layout.sub_blocks for sub in subs)
    h2 = layout.N * sum(len(a) * len(b)
                        for a, b in itertools.combinations(layout.blocks, 2))
    return h1 + h2


def _check_degree(degree, budget):
    if degree > budget.max_degree:
        raise BudgetExceededError("witness degree %d exceeds budget" % degree)


def _times(a, b, budget):
    """a * b, unless its degree would exceed the budget's max_degree."""
    _check_degree(a.degree() + b.degree(), budget)
    return a * b


def witnesses(source, target, locus_gens, budget=None):
    """Witnesses h1*h2*h3 of a prime of the source shape against the target.

    locus_gens maps every good pair of the target and source shapes, in
    good_pairs order, to the locus generators it may lift.  One witness is
    yielded per choice of one generator for each good pair: h1*h2 is built
    once and multiplied by the distinct locus factors of that choice.  With
    no good pairs the single witness is h1*h2.  Raises BudgetExceededError
    before h1*h2 or a partial product would exceed the budget's max_degree.
    """
    budget = budget or DEFAULT_BUDGET
    layout = WitnessLayout.build(source, target)
    _check_degree(_h12_degree(layout), budget)
    h12 = _h1(layout) * _h2(layout)
    for picks in itertools.product(*locus_gens.values()):
        h = h12
        for factor in _h3_factors(source, layout, dict(zip(locus_gens, picks)),
                                  budget):
            h = _times(h, factor, budget)
        yield h


def build_h(p, q_shape, q_point=None, budget=None):
    """Separating polynomial for p's prime against the target shape.

    When no good pairs exist the locus factors are trivial and no point is
    needed.  Otherwise q_point must be a rational point of the target
    configuration space, with distinct coordinates, outside the degeneration
    closure of p's locus; the locus factor of each good pair is built from
    the first projected-ideal generator not vanishing at the pulled-back
    point.
    """
    gps = good_pairs(q_shape, p.shape)
    if not gps:
        return next(witnesses(p.shape, q_shape, {}, budget))
    if q_point is None:
        raise NoWitnessError("a rational target point outside the degeneration "
                             "closure is required when good pairs exist")
    try:
        point = tuple(Fraction(c) for c in q_point)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    except ZeroDivisionError:
        raise InputError("point coordinates need nonzero denominators") from None
    if len(point) != q_shape.r:
        raise InputError("point has %d coordinates, target has %d parts"
                         % (len(point), q_shape.r))
    if len(set(point)) != len(point):
        raise InputError("target point must have pairwise distinct coordinates")
    picks = {}
    for gp in gps:
        coords = {("t", a + 1): point[b] for a, b in zip(gp.domain, gp.targets)}
        chosen = next((g for g in projection_ideal(p, gp.domain, budget).gens
                       if g.evaluate(coords) != 0), None)
        if chosen is None:
            raise NoWitnessError("point lies in the degeneration closure; "
                                 "containment holds and no witness exists")
        picks[gp] = (chosen,)
    return next(witnesses(p.shape, q_shape, picks, budget))


def certify(h, p, q, budget=None):
    """(h in p's prime, h in q's prime); a valid witness gives (True, False)."""
    return member(h, p, budget), member(h, q, budget)
