"""Multiplicity/weight/variety data for a symmetric-group-stable prime and a
decision procedure for membership of explicit polynomials.

A prime is described by a canonical WeightedShape together with an ideal in
the configuration coordinates t1..tr; the configuration locus is the variety
of that ideal restricted to the open set where all coordinates differ.
Membership of a polynomial is decided by substituting every admissible
placement of its variables into the parts, truncating jet directions at the
part weights, and testing each surviving coefficient on the locus.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .combinat import INF, WeightedShape, canonicalize
from .groebner import (DEFAULT_BUDGET, BudgetExceededError, Ideal,
                       ideal_member, is_unit_ideal, radical_member, saturate)
from .poly import Poly, QQ, canonical_lead, discriminant, evar, parse, tvar


@dataclass(frozen=True)
class SPrimeData:
    """Shape plus configuration ideal; the computable face of a stable prime."""

    shape: WeightedShape
    z_ideal: Ideal
    assume_irreducible: bool = True

    def to_json_obj(self):
        obj = self.shape.to_json_obj()
        obj["Z"] = [str(g) for g in self.z_ideal.gens]
        return obj

    @classmethod
    def from_json_obj(cls, obj, assume_irreducible=True):
        parts = [INF if p == "inf" else int(p) for p in obj["lambda"]]
        weights = [int(w) for w in obj["e"]]
        gens = [parse(s) for s in obj.get("Z", [])]
        return make_sprime(parts, weights, gens, assume_irreducible)

    def __str__(self):
        return "%s Z=<%s>" % (self.shape, ", ".join(str(g) for g in self.z_ideal.gens))


def make_sprime(parts, weights, gens, assume_irreducible=True):
    """Canonicalize the data, permuting t-variables of the ideal to match."""
    if isinstance(gens, Ideal):
        gens = gens.gens
    shape, perm = canonicalize(parts, weights)
    r = shape.r
    for g in gens:
        bad = [v for v in g.variables() if v[0] != "t" or v[1] > r]
        if bad:
            raise ValueError("ideal generator %s uses variables outside t1..t%d" % (g, r))
    # old position perm[k] moves to canonical position k
    rename = {tvar(perm[k] + 1): Poly.variable(tvar(k + 1), QQ) for k in range(r)}
    moved = tuple(g.substitute(rename) for g in gens)
    data = SPrimeData(shape, Ideal(moved, ambient=tuple(tvar(i + 1) for i in range(r))),
                      assume_irreducible)
    if not assume_irreducible:
        warnings.warn("configuration variety not asserted irreducible; "
                      "prime-ness of the data is not guaranteed")
    if is_unit_ideal(saturated_ideal(data)):
        warnings.warn("configuration locus is empty; the data describes the unit ideal")
    return data


def radical_of(p):
    """Same shape and variety with all weights reset to 1."""
    shape = WeightedShape(p.shape.parts, tuple(1 for _ in p.shape.weights))
    return SPrimeData(shape, p.z_ideal, p.assume_irreducible)


@lru_cache(maxsize=None)
def _saturated(z_ideal, r):
    return saturate(z_ideal, discriminant(range(1, r + 1), "t", z_ideal.field))


def saturated_ideal(p):
    """The configuration ideal saturated at the pairwise difference product."""
    if p.shape.r == 1:
        return p.z_ideal
    return _saturated(p.z_ideal, p.shape.r)


def q_ideal_truncated(p, rho):
    """Finite-window jet ideal: configuration relations plus e_i^(weight).

    rho maps each window index i (1-based) to a part position (1-based).
    """
    r = p.shape.r
    gens = list(p.z_ideal.gens)
    ambient = list(tvar(i + 1) for i in range(r))
    for i, alpha in sorted(rho.items()):
        if not 1 <= alpha <= r:
            raise ValueError("assignment target %d out of range" % alpha)
        gens.append(Poly.variable(evar(i), QQ) ** p.shape.weights[alpha - 1])
        ambient.append(evar(i))
    return Ideal(gens, ambient=tuple(ambient))


def assignments(indices, shape):
    """All placements of the window indices into parts, respecting finite
    part capacities.  Yields dicts index -> part position (1-based)."""
    indices = tuple(indices)
    r = shape.r
    caps = [p if p != INF else None for p in shape.parts]
    for choice in itertools.product(range(1, r + 1), repeat=len(indices)):
        if all(cap is None or choice.count(alpha) <= cap
               for alpha, cap in enumerate(caps, 1)):
            yield dict(zip(indices, choice))


def _x_window(f):
    xs = set()
    for v in f.variables():
        if v[0] != "x":
            raise ValueError("membership is defined for polynomials in x-variables")
        xs.add(v[1])
    return tuple(sorted(xs))


def _unpack_t(packed, width):
    """The t-monomial whose t_alpha exponent is bit field alpha - 1 of packed."""
    mask = (1 << width) - 1
    tm = []
    alpha = 1
    while packed:
        if packed & mask:
            tm.append((tvar(alpha), packed & mask))
        packed >>= width
        alpha += 1
    return tuple(tm)


def truncated_substitution(f, assign, weights):
    """Coefficients of f(x_i -> t_part(i) + e_i) with e_i^weight truncated.

    Returns a dict mapping jet monomials (in the e-variables) to polynomials
    in the t-variables.  weights is indexed by part position - 1.
    """
    fld = f.field
    add, mul = fld.add, fld.mul
    # a t-monomial is summed as a packed int, one bit field per part, wide
    # enough for any exponent up to f's degree
    width = max(f.degree(), 1).bit_length()
    t_monos = {}
    out = {}
    for mono, c in f.terms.items():
        # x_i^k contributes C(k,j) * t_alpha^(k-j) * e_i^j for each j < weight
        choices = []
        for v, k in mono:
            alpha = assign[v[1]]
            shift = width * (alpha - 1)
            ev = evar(v[1])
            choices.append([((k - j) << shift, ((ev, j),) if j else (), math.comb(k, j))
                            for j in range(min(k, weights[alpha - 1] - 1) + 1)])
        for combo in itertools.product(*choices):
            packed = 0
            em = ()
            binom = 1
            for tp, ej, b in combo:
                packed += tp
                em += ej
                binom *= b
            # f's monomials list x-variables in order, so em is already sorted
            tm = t_monos.get(packed)
            if tm is None:
                tm = t_monos[packed] = _unpack_t(packed, width)
            val = c if binom == 1 else mul(c, binom)
            if not val:
                continue
            bucket = out.setdefault(em, {})
            if tm in bucket:
                s = add(bucket[tm], val)
                if s:
                    bucket[tm] = s
                else:
                    del bucket[tm]
            else:
                bucket[tm] = val
    return {em: Poly(fld, terms) for em, terms in out.items() if terms}


def member(f, p, budget=None):
    """True iff f lies in the stable prime described by p.

    Every admissible placement of f's variables into the parts must send f
    into the jet ideal: after truncation, each coefficient polynomial has to
    vanish on the configuration locus.
    """
    budget = budget or DEFAULT_BUDGET
    if f.is_zero():
        return True
    xs = _x_window(f)
    sat = saturated_ideal(p)
    if is_unit_ideal(sat, budget):
        return True
    count = p.shape.r ** len(xs)
    if count > budget.max_reductions:
        raise BudgetExceededError("placement space of size %d exceeds budget" % count)
    verdicts = {}
    for assign in assignments(xs, p.shape):
        coeffs = truncated_substitution(f, assign, p.shape.weights)
        for tpoly in coeffs.values():
            keyp = _scale_normalize(tpoly)
            verdict = verdicts.get(keyp)
            if verdict is None:
                verdict = (ideal_member(keyp, sat, budget)
                           or radical_member(keyp, sat, budget))
                verdicts[keyp] = verdict
            if not verdict:
                return False
    return True


def _scale_normalize(f):
    if f.is_zero():
        return f
    return f.scale(f.field.inv(f.terms[canonical_lead(f)]))


def member_via_derivatives(f, p, budget=None):
    """Independent membership check through formal derivatives (char 0).

    f belongs iff for every placement and every derivative multi-order below
    the part weights, the derivative evaluated on the diagonal configuration
    vanishes on the locus.
    """
    if f.field.char != 0:
        raise ValueError("the derivative criterion needs characteristic 0")
    if f.is_zero():
        return True
    xs = _x_window(f)
    sat = saturated_ideal(p)
    if is_unit_ideal(sat):
        return True
    for assign in assignments(xs, p.shape):
        ranges = [range(p.shape.weights[assign[i] - 1]) for i in xs]
        to_t = {("x", i): Poly.variable(tvar(assign[i]), QQ) for i in xs}
        for orders in itertools.product(*ranges):
            g = f
            for i, k in zip(xs, orders):
                for _ in range(k):
                    g = g.derivative(("x", i))
            if not radical_member(g.substitute(to_t), sat, budget):
                return False
    return True
