"""Radical stable ideals as antichains of stable primes, their lattice
operations, and finite windows of the degeneration topology.

A radical ideal is the intersection of finitely many primes with no mutual
containments; the zero ideal (generic point over the rationals) is carried
as a flag rather than as prime data.
"""

from dataclasses import dataclass

from .combinat import INF, canonicalize
from .groebner import BudgetExceededError, Ideal, ideal_equal
from .poly import InputError, tvar
from .theta import contains, theta


@dataclass(frozen=True)
class RadicalSIdeal:
    """Antichain of prime data, or the zero ideal when includes_zero is set."""

    primes: tuple
    includes_zero: bool = False

    def __post_init__(self):
        if self.includes_zero and self.primes:
            raise InputError("the zero ideal absorbs every other component")

    def to_json_obj(self):
        return {"includes_zero": self.includes_zero,
                "primes": [p.to_json_obj() for p in self.primes]}


def make_radical(primes, includes_zero=False, budget=None):
    """Prune to an antichain: drop any component containing another one."""
    if includes_zero:
        return RadicalSIdeal((), True)
    primes = list(dict.fromkeys(primes))
    kept = []
    for i, p in enumerate(primes):
        redundant = False
        for j, q in enumerate(primes):
            if i == j:
                continue
            if contains(q, p, budget).contains:
                # q sits inside p, so p contributes nothing to the intersection
                if contains(p, q, budget).contains and j > i:
                    continue  # equal data: keep the first occurrence
                redundant = True
                break
        if not redundant:
            kept.append(p)
    return RadicalSIdeal(tuple(kept), False)


def intersect_radical(a, b, budget=None):
    if a.includes_zero or b.includes_zero:
        return RadicalSIdeal((), True)
    return make_radical(a.primes + b.primes, budget=budget)


def contains_radical(a, b, budget=None):
    """True iff the ideal of a is contained in the ideal of b: every
    component of b must contain some component of a."""
    if a.includes_zero:
        return True
    if b.includes_zero:
        return a.includes_zero
    return all(any(contains(p, q, budget).contains for p in a.primes)
               for q in b.primes)


def theta_slice(p, targets, budget=None):
    """Degeneration-closure ideals of p at each requested target shape."""
    return {target: theta(p, target, budget).ideal for target in targets}


def d3_stabilize(p, base_shape, grow_index, cap=20, budget=None):
    """Least window size at which the slice family stabilizes.

    base_shape must have at least two infinite parts; the part at grow_index
    (0-based, weight 1) is replaced by the finite sizes 1, 2, ... and the
    slice ideals are compared until two consecutive ones agree.
    """
    if base_shape.parts[grow_index] != INF or base_shape.weights[grow_index] != 1:
        raise InputError("the growing part must be infinite with weight 1")
    if sum(1 for q in base_shape.parts if q == INF) < 2:
        raise InputError("the base shape needs at least two infinite parts")

    def slice_at(n):
        parts = list(base_shape.parts)
        weights = list(base_shape.weights)
        parts[grow_index] = n
        shp, perm = canonicalize(parts, weights)
        ideal = theta(p, shp, budget).ideal
        # express the slice in the family's own part labeling so that
        # consecutive members are comparable even if sorting moved parts
        back = {tvar(k + 1): tvar(perm[k] + 1) for k in range(shp.r)}
        return Ideal(tuple(g.rename(back) for g in ideal.gens),
                     ambient=tuple(tvar(i + 1) for i in range(shp.r)))

    prev = slice_at(1)
    for n in range(1, cap + 1):
        nxt = slice_at(n + 1)
        if ideal_equal(prev, nxt, budget):
            return n
        prev = nxt
    raise BudgetExceededError("slice family did not stabilize within %d steps" % cap)
