"""Degeneration closures of configuration data and the containment oracle
between stable primes.

Containment of the prime described by p in the prime described by q reduces
to a containment of finite-dimensional varieties: q's configuration locus
must lie inside the closed set of target configurations reachable from p's
locus by merging parts, subject to the multiplicity and weight inequalities
of the good pairs.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

from .combinat import good_pairs
from .groebner import (Ideal, eliminate, groebner_basis, ideal_intersect,
                       is_unit_ideal, radical_member)
from .poly import Poly, QQ, tvar
from .sprime import saturated_ideal


@dataclass(frozen=True)
class ThetaResult:
    """Target-coordinate ideal of the reachable degenerations, with the
    per-good-pair component ideals retained for certificates."""

    ideal: Ideal
    components: tuple  # of (GoodPair, Ideal)


@dataclass(frozen=True)
class Containment:
    contains: bool
    theta: ThetaResult
    separator: object = None  # Poly witnessing failure, if any

    def __bool__(self):
        return self.contains


def projection_ideal(p, domain, budget=None):
    """Closure ideal of p's locus projected to the chosen part coordinates.

    domain is a tuple of part positions (0-based); the result is the reduced
    basis of the elimination ideal in those t-variables.
    """
    sat = saturated_ideal(p)
    drop = tuple(tvar(a + 1) for a in range(p.shape.r) if a not in set(domain))
    elim = eliminate(sat, drop, budget)
    return groebner_basis(elim, budget=budget)


def theta_pair(p, target, gp, budget=None):
    """Component of the degeneration closure for one good pair: project p's
    locus to the chosen parts, then pull back along the merge map."""
    elim = projection_ideal(p, gp.domain, budget)
    rename = {tvar(a + 1): tvar(b + 1) for a, b in zip(gp.domain, gp.targets)}
    gens = tuple(g.rename(rename) for g in elim.gens)
    ambient = tuple(tvar(b + 1) for b in range(target.r))
    return Ideal(gens, ambient=ambient)


@lru_cache(maxsize=None)
def theta(p, target, budget=None):
    """Intersection over all good pairs; the unit ideal when none exist.
    Each distinct component ideal is intersected once, none when one of
    them is the zero ideal, which is then the intersection; `components`
    keeps one entry per good pair.

    Memoized by value, unbounded, like `sprime._saturated`: the prime data,
    the target shape and the budget are frozen and hash by value, so an
    equal prime loaded again is served, and only under the budget that
    computed the result.  A budget error is not stored and is raised again
    by the next call.
    """
    gps = good_pairs(target, p.shape)
    ambient = tuple(tvar(b + 1) for b in range(target.r))
    if not gps:
        unit = Ideal((Poly.const(1, QQ),), ambient=ambient)
        return ThetaResult(unit, ())
    components = tuple((gp, theta_pair(p, target, gp, budget)) for gp in gps)
    distinct = dict.fromkeys(comp for _, comp in components)
    # the zero ideal's intersection with any ideal is the zero ideal
    zero = [comp for comp in distinct if not comp.gens]
    total, *rest = zero or distinct
    for comp in rest:
        total = ideal_intersect(total, comp, budget)
    total = groebner_basis(total, budget=budget)
    return ThetaResult(total, components)


def contains(p, q, budget=None):
    """Decide whether the prime of p is contained in the prime of q.

    Returns a Containment carrying the degeneration ideal and, on failure,
    a generator of it that does not vanish on q's locus.  Theta, q's
    saturated ideal and the empty-target test run on every call; only the
    scan of theta's generators is memoized (`_separator`).
    """
    th = theta(p, q.shape, budget)
    sat_q = saturated_ideal(q)
    if is_unit_ideal(sat_q, budget):
        warnings.warn("target locus is empty; containment holds vacuously")
        return Containment(True, th, None)
    separator = _separator(th.ideal, sat_q, budget)
    return Containment(separator is None, th, separator)


@lru_cache(maxsize=None)
def _separator(theta_ideal, sat_q, budget):
    """The first generator of theta_ideal outside the radical of sat_q, or
    None when every one lies in it.

    Memoized by value, unbounded, like `theta`: both ideals and the budget
    hash by value, so a repeated containment check is served without a
    division, and only under the budget that computed it.  A budget error
    is not stored and is raised again by the next call.
    """
    for g in theta_ideal.gens:
        if not radical_member(g, sat_q, budget):
            return g
    return None


def equal(p, q, budget=None):
    """Semantic equality via mutual containment."""
    return contains(p, q, budget).contains and contains(q, p, budget).contains
