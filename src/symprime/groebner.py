"""Buchberger completion, normal forms, elimination, saturation, and
radical-membership tests: the decision kernel for all variety operations.

Pair processing uses the Gebauer-Moeller elimination criteria with
normal-strategy selection.  Every potentially unbounded computation is
guarded by a resource budget and fails loudly instead of looping.
"""

from dataclasses import dataclass

from .poly import (Poly, QQ, mono_degree, mono_div, mono_divides, mono_lcm,
                   mono_mul, var_key, zvar)


class BudgetExceededError(RuntimeError):
    """The computation exceeded its step or degree budget."""


@dataclass(frozen=True)
class Budget:
    max_reductions: int = 2_000_000
    max_degree: int = 120


DEFAULT_BUDGET = Budget()


class MonomialOrder:
    """Total monomial order: lex, grevlex, or block (grevlex inside blocks).

    Variables are listed most-significant first; the canonical significance
    order is x1 > x2 > ... > t1 > ... > e1 > ..., matching canonical
    printing.  Block orders compare the first block before the second, so
    putting the variables to eliminate in the first block yields an
    elimination order.
    """

    __slots__ = ("kind", "blocks")

    def __init__(self, kind, blocks):
        self.kind = kind
        self.blocks = tuple(tuple(b) for b in blocks)

    @classmethod
    def grevlex(cls, variables):
        return cls("grevlex", (_sig(variables),))

    @classmethod
    def lex(cls, variables):
        return cls("lex", (tuple(variables),))

    @classmethod
    def block(cls, first, rest):
        return cls("block", (_sig(first), _sig(rest)))

    def variables(self):
        return tuple(v for b in self.blocks for v in b)

    def key(self, mono):
        exps = {v: k for v, k in mono}
        parts = []
        for block in self.blocks:
            block_exps = [exps.pop(v, 0) for v in block]
            if self.kind == "lex":
                parts.append(tuple(block_exps))
            else:
                parts.append((sum(block_exps),
                              tuple(-e for e in reversed(block_exps))))
        if exps:
            raise ValueError("monomial uses variables outside the order: %r"
                             % sorted(exps, key=var_key))
        return tuple(parts)

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.kind, self.blocks))

    def __repr__(self):
        return "MonomialOrder(%s, %r)" % (self.kind, self.blocks)


def _sig(variables):
    return tuple(sorted(variables, key=var_key))


class Ideal:
    """Finitely generated ideal with a per-order cache of reduced bases.

    Values are immutable apart from the cache; cache writes are single
    idempotent assignments of the unique reduced basis, so concurrent use
    at worst recomputes the same value.
    """

    __slots__ = ("field", "gens", "ambient", "_gb")

    def __init__(self, gens, ambient=(), field=None):
        gens = tuple(g for g in gens if not (isinstance(g, Poly) and g.is_zero()))
        if field is None:
            field = gens[0].field if gens else QQ
        gens = tuple(g if isinstance(g, Poly) else Poly.const(g, field) for g in gens)
        for g in gens:
            if g.field.char != field.char:
                raise ValueError("mixed coefficient fields in ideal")
        vs = set(ambient)
        for g in gens:
            vs |= g.variables()
        self.field = field
        self.gens = gens
        self.ambient = tuple(sorted(vs, key=var_key))
        self._gb = {}

    def default_order(self):
        return MonomialOrder.grevlex(self.ambient)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.field.char == other.field.char
                and self.gens == other.gens and self.ambient == other.ambient)

    def __hash__(self):
        return hash((self.field.char, self.gens, self.ambient))

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)


def _monic(f, order):
    _, lc = f.leading(order)
    return f.scale(f.field.inv(lc))


def spoly(f, g, order):
    """S-polynomial of f and g with respect to order."""
    field = f.field
    mf, cf = f.leading(order)
    mg, cg = g.leading(order)
    lcm = mono_lcm(mf, mg)
    a = Poly(field, {mono_div(lcm, mf): field.inv(cf)})
    b = Poly(field, {mono_div(lcm, mg): field.inv(cg)})
    return f * a - g * b


def normal_form(f, basis, order, budget=None):
    """Remainder of f on division by the (preferably reduced) basis."""
    basis = [g for g in basis if not g.is_zero()]
    if f.is_zero() or not basis:
        return f
    budget = budget or DEFAULT_BUDGET
    field = f.field
    heads = [g.leading(order) + (g,) for g in basis]
    remainder = Poly.zero(field)
    work = f
    steps = 0
    while not work.is_zero():
        lm, lc = work.leading(order)
        if mono_degree(lm) > budget.max_degree:
            raise BudgetExceededError("degree %d exceeds budget" % mono_degree(lm))
        steps += 1
        if steps > budget.max_reductions:
            raise BudgetExceededError("division step budget exhausted")
        for hm, hc, g in heads:
            if mono_divides(hm, lm):
                c = field.mul(lc, field.inv(hc))
                work = work - g * Poly(field, {mono_div(lm, hm): c})
                break
        else:
            remainder = remainder + Poly(field, {lm: lc})
            work = work - Poly(field, {lm: lc})
    return remainder


def _update(G, lms, P, f, order):
    """Gebauer-Moeller pair update when f joins the basis G."""
    lmf = f.leading(order)[0]
    i_new = len(G)
    kept = set()
    for (i, j) in P:
        lij = mono_lcm(lms[i], lms[j])
        if (not mono_divides(lmf, lij)
                or lij == mono_lcm(lms[i], lmf)
                or lij == mono_lcm(lms[j], lmf)):
            kept.add((i, j))
    by_lcm = {}
    for i in range(i_new):
        by_lcm.setdefault(mono_lcm(lms[i], lmf), []).append(i)
    minimal = []
    for L in sorted(by_lcm, key=order.key):
        if all(not mono_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        if any(mono_lcm(lms[i], lmf) == mono_mul(lms[i], lmf) for i in by_lcm[L]):
            continue  # coprime heads: S-pair reduces to zero
        kept.add((min(by_lcm[L]), i_new))
    G.append(f)
    lms.append(lmf)
    return kept


def _buchberger(gens, order, budget):
    field = gens[0].field if gens else QQ
    G, lms, P = [], [], set()
    for g in gens:
        if not g.is_zero():
            P = _update(G, lms, P, _monic(g, order), order)
    reductions = 0
    while P:
        pair = min(P, key=lambda p: order.key(mono_lcm(lms[p[0]], lms[p[1]])))
        P.discard(pair)
        reductions += 1
        if reductions > budget.max_reductions:
            raise BudgetExceededError("pair reduction budget exhausted")
        r = normal_form(spoly(G[pair[0]], G[pair[1]], order), G, order, budget)
        if r.is_zero():
            continue
        if r.degree() > budget.max_degree:
            raise BudgetExceededError("degree %d exceeds budget" % r.degree())
        P = _update(G, lms, P, _monic(r, order), order)
    # minimalize, then fully interreduce
    order_idx = sorted(range(len(G)), key=lambda i: order.key(lms[i]))
    minimal = []
    for i in order_idx:
        if all(not mono_divides(lms[j], lms[i]) for j in minimal):
            minimal.append(i)
    basis = [G[i] for i in minimal]
    reduced = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        r = normal_form(g, others, order, budget)
        if not r.is_zero():
            reduced.append(_monic(r, order))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return tuple(reduced)


def groebner_basis(I, order=None, budget=None):
    """Unique reduced Groebner basis of I, returned as an Ideal and cached
    on I per order (grevlex over I's ambient by default)."""
    order = order or I.default_order()
    if order not in I._gb:
        basis = _buchberger(list(I.gens), order, budget or DEFAULT_BUDGET)
        result = Ideal(basis, ambient=I.ambient, field=I.field)
        result._gb[order] = result
        I._gb[order] = result
    return I._gb[order]


def is_unit_ideal(I, budget=None):
    gb = groebner_basis(I, budget=budget)
    return len(gb.gens) == 1 and gb.gens[0].is_constant()


def ideal_member(f, I, budget=None):
    """True iff f lies in I (extended to f's variables).  Grevlex over the
    wider set restricts to I's default order, so I's cached basis serves."""
    order = MonomialOrder.grevlex(set(I.ambient) | f.variables())
    return normal_form(f, groebner_basis(I, budget=budget).gens, order, budget).is_zero()


def ideal_contains(I, J, budget=None):
    """True iff J is contained in I (every generator reduces to zero)."""
    return all(ideal_member(g, I, budget) for g in J.gens)


def ideal_equal(I, J, budget=None):
    return ideal_contains(I, J, budget) and ideal_contains(J, I, budget)


def _fresh_z(*objs):
    top = 0
    for obj in objs:
        vs = obj.variables() if isinstance(obj, Poly) else obj.ambient
        for fam, idx in vs:
            if fam == "z":
                top = max(top, idx)
    return zvar(top + 1)


def _rabinowitsch(I, f):
    """(I + (1 - z*f), z) for a z-variable fresh to I and f."""
    z = _fresh_z(I, f)
    one = Poly.const(1, I.field)
    J = Ideal(I.gens + (one - Poly.variable(z, I.field) * f,),
              ambient=I.ambient + (z,), field=I.field)
    return J, z


def eliminate(I, drop, budget=None):
    """Ideal of polynomials in I avoiding the dropped variables; it arrives
    with its reduced basis cached in its default order."""
    drop = tuple(sorted(set(drop), key=var_key))
    if not drop:
        return I
    missing = [v for v in drop if v not in I.ambient]
    if missing:
        raise ValueError("cannot eliminate variables outside the ambient: %r" % missing)
    keep = tuple(v for v in I.ambient if v not in set(drop))
    order = MonomialOrder.block(drop, keep)
    gb = groebner_basis(I, order, budget)
    dropped = set(drop)
    gens = [g for g in gb.gens if not (g.variables() & dropped)]
    result = Ideal(gens, ambient=keep, field=I.field)
    # the block order restricts to grevlex on keep (Elimination Theorem)
    result._gb[result.default_order()] = result
    return result


def saturate(I, f, budget=None):
    """Saturation I : f^infinity computed with one auxiliary variable."""
    if f.is_zero():
        raise ValueError("cannot saturate at zero")
    if f.is_constant():
        return I
    J, z = _rabinowitsch(I, f)
    return eliminate(J, (z,), budget)


def radical_member(f, I, budget=None):
    """True iff f vanishes on the variety of I (Rabinowitsch trick)."""
    return is_unit_ideal(_rabinowitsch(I, f)[0], budget)


def ideal_intersect(I, J, budget=None):
    """Generators of the intersection via the one-variable construction."""
    if I.field.char != J.field.char:
        raise ValueError("mixed coefficient fields")
    z = _fresh_z(I, J)
    zp = Poly.variable(z, I.field)
    one = Poly.const(1, I.field)
    gens = [zp * g for g in I.gens] + [(one - zp) * h for h in J.gens]
    K = Ideal(gens, ambient=I.ambient + J.ambient + (z,), field=I.field)
    return eliminate(K, (z,), budget)


def variety_contained(I, J, D, budget=None):
    """True iff the variety of I, off the locus D = 0, lies in the variety of J."""
    if D.is_zero():
        raise ValueError("the restriction polynomial D must be nonzero")
    sat = saturate(I, D, budget)
    return all(radical_member(g, sat, budget) for g in J.gens)
