"""Separating polynomials certifying non-containment between stable primes.

Given source data p and a target shape, the witness h = h1 * h2 * h3 places a
finite window of variables into target blocks, multiplies discriminants over
the jet sub-blocks (h1), difference powers across distinct blocks (h2), and
lifts of locus equations over all good pairs and compatible traces (h3).
A valid witness lies in p's prime but not in the target prime.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import INF, good_pairs
from .groebner import BudgetExceededError, DEFAULT_BUDGET
from .poly import InputError, Poly, QQ, product, xvar
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
    total = math.prod(len(a) for a in allowed)
    if total > (budget or DEFAULT_BUDGET).max_reductions:
        raise BudgetExceededError("trace space of size %d exceeds budget" % total)
    sub_blocks = [sub for subs in layout.sub_blocks for sub in subs]
    out = []
    for choice in itertools.product(*allowed):
        if any(alpha not in choice for alpha in gp.domain):
            continue
        if any(source.parts[a] != INF and choice.count(a) > source.parts[a]
               for a in gp.domain):
            continue
        picked = ([choice[i - 1] for i in sub] for sub in sub_blocks)
        if all(p.count(a) <= source.weights[a] for p in picked for a in p):
            out.append(choice)
    return tuple(out)


def _lift(u, trace):
    """Send each source coordinate to the smallest window index of its trace."""
    return u.rename({("t", a + 1): xvar(trace.index(a) + 1) for a in set(trace)})


def _differences(layout, budget):
    """(factors of h1*h2, its degree): h1's differences x_i - x_j, i < j,
    inside each jet sub-block, then N-th powers of h2's across each two
    distinct blocks.  The degree, len(h1) + N*len(h2), is checked against
    the budget first: a window too large for it has too many to list."""
    sub_blocks = [sub for subs in layout.sub_blocks for sub in subs]
    block_pairs = list(itertools.combinations(layout.blocks, 2))
    degree = (sum(math.comb(len(sub), 2) for sub in sub_blocks)
              + layout.N * sum(len(a) * len(b) for a, b in block_pairs))
    _check_degree(degree, budget)
    x = {i: Poly.variable(xvar(i), QQ) for i in range(1, layout.m + 1)}
    h1 = [x[i] - x[j] for sub in sub_blocks for i, j in itertools.combinations(sub, 2)]
    h2 = [(x[i] - x[j]) ** layout.N for a, b in block_pairs for i in a for j in b]
    return h1 + h2, degree


def _check_degree(degree, budget):
    if degree > budget.max_degree:
        raise BudgetExceededError("witness degree %d exceeds budget" % degree)


def witnesses(source, target, locus_gens, budget=None, layout=None):
    """Witnesses h1*h2*h3 of a prime of the source shape against the target,
    in `layout`, which is built here unless the caller passes it.

    locus_gens maps every good pair of the target and source shapes, in
    good_pairs order, to the locus generators it may lift.  One witness is
    yielded per choice of one generator for each good pair: one `product`
    of h1's and h2's factors and that choice's distinct locus factors.
    With no good pairs the single witness is h1*h2.  Raises
    BudgetExceededError before multiplying if h1*h2 or a partial product
    would exceed the budget's max_degree, summing the degrees of the factors.
    """
    budget = budget or DEFAULT_BUDGET
    layout = layout or WitnessLayout.build(source, target)
    factors, degree = _differences(layout, budget)
    if not all(locus_gens.values()):
        return
    traces = [compatible_partitions(gp, layout, source, budget) for gp in locus_gens]
    for picks in itertools.product(*locus_gens.values()):
        # h3: the distinct lifted and raised locus factors, in order of
        # first appearance
        h3 = list(dict.fromkeys(
            _lift(u, trace) ** (len(gp.domain) * source.e_max())
            for gp, u, gp_traces in zip(locus_gens, picks, traces)
            for trace in gp_traces))
        degrees = (f.degree() for f in h3)
        for total in itertools.accumulate(degrees, initial=degree):
            _check_degree(total, budget)
        yield product(factors + h3, QQ)


def build_h(p, q_shape, q_point=None, budget=None):
    """Separating polynomial for p's prime against the target shape; see
    `witness_and_layout`."""
    return witness_and_layout(p, q_shape, q_point, budget)[0]


def witness_and_layout(p, q_shape, q_point=None, budget=None):
    """(h, layout): the separating polynomial h for p's prime against the
    target shape, and the `WitnessLayout` it was built in.

    When no good pairs exist the locus factors are trivial and no point is
    needed.  Otherwise q_point must be a rational point of the target
    configuration space, with distinct coordinates, outside the degeneration
    closure of p's locus; the locus factor of each good pair is built from
    the first projected-ideal generator not vanishing at the pulled-back
    point.  A given q_point must be such a point of the target space either
    way.
    """
    gps = good_pairs(q_shape, p.shape)
    picks = {}
    if gps and q_point is None:
        raise NoWitnessError("a rational target point outside the degeneration "
                             "closure is required when good pairs exist")
    if q_point is not None:  # a given point is checked even if no pair reads it
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
    for gp in gps:
        coords = {("t", a + 1): point[b] for a, b in zip(gp.domain, gp.targets)}
        chosen = next((g for g in projection_ideal(p, gp.domain, budget).gens
                       if g.evaluate(coords) != 0), None)
        if chosen is None:
            raise NoWitnessError("point lies in the degeneration closure; "
                                 "containment holds and no witness exists")
        picks[gp] = (chosen,)
    layout = WitnessLayout.build(p.shape, q_shape)
    return next(witnesses(p.shape, q_shape, picks, budget, layout)), layout


def certify(h, p, q, budget=None):
    """(h in p's prime, h in q's prime); a valid witness gives (True, False)."""
    return member(h, p, budget), member(h, q, budget)
