"""Finite generating sets for stable primes, up to the equivariant radical.

The base set comes from the minimal obstruction shapes of the weight data;
when the configuration variety is a proper subvariety, extra elements carry
lifted locus equations, one for every choice of projected-ideal generator
over the good pairs of every admissible target shape.
"""

import itertools

from .combinat import box_degenerations, good_pairs, psi0, shape_sort_key
from .groebner import poly_divides
from .poly import xvar
from .sprime import member
from .theta import projection_ideal, theta_pair
from .witness import witnesses


def sign_normalize(f):
    """Scale by -1 if needed so the canonically-leading coefficient is positive.

    The print starts with the canonical lead, so its text, which
    `dedup_sorted` sorts by anyway, gives the sign: a generator whose lead
    is positive is put in canonical order once.  Zero prints as "0" and a
    GF(p) print never starts with "-", so both come back unchanged."""
    return -f if str(f).startswith("-") else f


def dedup_sorted(polys):
    # repeats are dropped before any is printed to read its sign
    unique = dict.fromkeys(map(sign_normalize, dict.fromkeys(polys)))
    return tuple(sorted(unique, key=lambda g: (g.degree(), len(g.terms), str(g))))


def _obstruction_witnesses(shape, budget=None):
    for mu_d in psi0(shape):
        yield from witnesses(shape, mu_d, {}, budget)  # no good pairs against psi0


def gens_G(shape, budget=None):
    """Witnesses against every minimal obstruction shape; these cut out the
    full-locus prime of the given shape up to the equivariant radical."""
    return dedup_sorted(_obstruction_witnesses(shape, budget))


def _phi_targets(p, budget=None):
    """Admissible target shapes: degenerations of p's shape with finite parts
    bounded by the window constant whose degeneration closure is proper.

    The closure is the intersection of the good pairs' components; in a
    domain it is nonzero exactly when every component is, so no
    intersection is computed.
    """
    lam = p.shape
    cands = [cand for cand in box_degenerations(lam, lam.r, 1 + lam.finite_sum(),
                                                lam.inf_weight_sum())
             if all(theta_pair(p, cand, gp, budget).gens
                    for gp in good_pairs(cand, lam))]
    return sorted(cands, key=shape_sort_key)


def _locus_witnesses(p, budget=None):
    if not p.z_ideal.gens:
        return
    bases = {}
    for target in _phi_targets(p, budget):
        gps = good_pairs(target, p.shape)
        for gp in gps:
            if gp.domain not in bases:
                bases[gp.domain] = projection_ideal(p, gp.domain, budget).gens
        yield from witnesses(p.shape, target, {gp: bases[gp.domain] for gp in gps},
                             budget)


def gens_H(p, budget=None):
    """Locus-equation elements: for each admissible target shape, every
    assignment of a projected-ideal generator to each good pair yields one
    element.  Empty when the configuration variety is the whole space."""
    return dedup_sorted(_locus_witnesses(p, budget))


def full_gens(p, budget=None):
    """Combined generating set, deduplicated; generates p up to the
    equivariant radical."""
    return dedup_sorted(itertools.chain(_obstruction_witnesses(p.shape, budget),
                                        _locus_witnesses(p, budget)))


def verify_gens(p, budget=None):
    """Membership report for every constructed generator; all must hold."""
    return {str(g): member(g, p, budget) for g in full_gens(p, budget)}


def translate_divides(g, h):
    """True iff some injective renumbering of g's x-variables divides h."""
    g_idx = sorted(v[1] for v in g.variables())
    h_idx = sorted(v[1] for v in h.variables())
    if len(g_idx) > len(h_idx) or g.degree() > h.degree():
        return False
    for image in itertools.permutations(h_idx, len(g_idx)):
        rename = {xvar(a): xvar(b) for a, b in zip(g_idx, image)}
        if poly_divides(g.rename(rename), h):
            return True
    return False


def prune_translate_multiples(polys):
    """Drop elements that are polynomial multiples of a renumbering of an
    earlier-kept element; processed in ascending degree for determinism."""
    ordered = dedup_sorted(polys)
    kept = []
    for g in ordered:
        if not any(translate_divides(k, g) for k in kept):
            kept.append(g)
    return tuple(kept)
