"""Buchberger completion, normal forms, elimination, saturation, and
radical-membership tests: the decision kernel for all variety operations.

Pair processing uses the Gebauer-Moeller elimination criteria with
normal-strategy selection.  Every potentially unbounded computation is
guarded by a resource budget and fails loudly instead of looping.

Order keys are flat int tuples built from a column map each order
precomputes.  Division works in place on a term dict: each step pops the
leading term, found by `max` over a memo of keys that lasts one division,
and adds the matching multiple of the divisor's other terms.
`_buchberger` keeps the head (lm, lc, g) of every basis element and
divides S-polynomials and the final interreduction by those heads.
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

    `key` maps a monomial to one flat int tuple in a single pass: the
    constructor assigns each variable the column its exponent is added to
    and the column it is subtracted from.
    """

    __slots__ = ("kind", "blocks", "_cols", "_width")

    def __init__(self, kind, blocks):
        self.kind = kind
        self.blocks = tuple(tuple(b) for b in blocks)
        # variable -> (column it adds its exponent to, column it subtracts
        # it from); a variable listed twice counts in its first place only
        cols, width = {}, 0
        for block in self.blocks:
            if kind == "lex":
                for i, v in enumerate(block):
                    if v not in cols:
                        cols[v] = (width + i, -1)
                width += len(block)
            else:
                for i, v in enumerate(block):
                    if v not in cols:
                        cols[v] = (width, width + len(block) - i)
                width += 1 + len(block)
        self._cols = cols
        # lex subtracts into one trailing column, which only ever ties
        self._width = width + (kind == "lex")

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
        """Flat int tuple that sorts monomials in this order.

        A lex block contributes its exponents; a graded block contributes
        its degree, then its negated exponents last variable first.  Blocks
        have fixed widths, so the flat tuple sorts as the nested per-block
        tuples would.
        """
        out = [0] * self._width
        cols = self._cols
        try:
            for v, k in mono:
                plus, minus = cols[v]
                out[plus] += k
                out[minus] -= k
        except KeyError:
            raise ValueError("monomial uses variables outside the order: %r"
                             % sorted((v for v, _ in mono if v not in cols),
                                      key=var_key)) from None
        return tuple(out)

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
    heads = [g.leading(order) + (g,) for g in basis]
    key = order.key
    return Poly(f.field, _divide(dict(f.terms), {m: key(m) for m in f.terms},
                                 heads, f.field, key, budget or DEFAULT_BUDGET))


def _divide(work, keys, heads, field, key, budget):
    """Divide the term dict `work` in place by heads, a list of (lm, lc, g),
    and return the remainder's term dict.

    `keys` holds the order key of every monomial in `work` and gains one
    for each monomial that enters it, so each is scored once per call.
    Leading terms leave `work` in decreasing order, so the remainder's
    first term is its leading one.
    """
    mul, neg, inv = field.mul, field.neg, field.inv
    remainder = {}
    steps = 0
    while work:
        lm = max(work, key=keys.__getitem__)
        lc = work.pop(lm)
        if mono_degree(lm) > budget.max_degree:
            raise BudgetExceededError("degree %d exceeds budget" % mono_degree(lm))
        steps += 1
        if steps > budget.max_reductions:
            raise BudgetExceededError("division step budget exhausted")
        get = dict(lm).get
        for head in heads:
            if all(get(v, 0) >= k for v, k in head[0]):
                _add_multiple(work, keys, key, neg(mul(lc, inv(head[1]))),
                              mono_div(lm, head[0]), head, field)
                break
        else:
            remainder[lm] = lc
    return remainder


def _add_multiple(work, keys, key, c, u, head, field):
    """work += c*u*(g - lm) term by term for head = (lm, lc, g), where lm is
    g's own key object; monomials new to `keys` are scored there."""
    add, mul = field.add, field.mul
    hm, _, g = head
    for m, cg in g.terms.items():
        if m is hm:
            continue
        m = mono_mul(m, u)
        if m in work:
            s = add(work[m], mul(cg, c))
            if s:
                work[m] = s
            else:
                del work[m]
        else:
            work[m] = mul(cg, c)
            if m not in keys:
                keys[m] = key(m)


def _monic_head(terms, field):
    """(lm, 1, monic g) from a remainder's term dict (leading term first)."""
    g = Poly(field, terms).scale(field.inv(next(iter(terms.values()))))
    lm = next(iter(g.terms))
    return lm, g.terms[lm], g


def _update(heads, P, pairs, head, key):
    """Gebauer-Moeller pair update when head = (lm, lc, g) joins heads;
    `pairs` maps each pair to (order key of its lcm, lcm)."""
    lmf = head[0]
    i_new = len(heads)
    with_f = [mono_lcm(h[0], lmf) for h in heads]
    kept = set()
    for (i, j) in P:
        lij = pairs[i, j][1]
        if (not mono_divides(lmf, lij)
                or lij == with_f[i]
                or lij == with_f[j]):
            kept.add((i, j))
    by_lcm = {}
    for i in range(i_new):
        by_lcm.setdefault(with_f[i], []).append(i)
    lcm_keys = {L: key(L) for L in by_lcm}
    minimal = []
    for L in sorted(by_lcm, key=lcm_keys.__getitem__):
        if all(not mono_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        if any(L == mono_mul(heads[i][0], lmf) for i in by_lcm[L]):
            continue  # coprime heads: S-pair reduces to zero
        pair = (min(by_lcm[L]), i_new)
        kept.add(pair)
        pairs[pair] = (lcm_keys[L], L)
    heads.append(head)
    return kept


def _buchberger(gens, order, budget):
    field = gens[0].field if gens else QQ
    key = order.key
    one = field.coerce(1)
    minus_one = field.neg(one)
    heads, P, pairs = [], set(), {}
    for g in gens:
        if not g.is_zero():
            lm, lc = g.leading(order)
            g = g.scale(field.inv(lc))
            P = _update(heads, P, pairs, (lm, g.terms[lm], g), key)
    reductions = 0
    while P:
        i, j = pair = min(P, key=pairs.__getitem__)
        P.discard(pair)
        reductions += 1
        if reductions > budget.max_reductions:
            raise BudgetExceededError("pair reduction budget exhausted")
        # the S-polynomial of two monic heads; their leading terms cancel
        work, keys, lcm = {}, {}, pairs[pair][1]
        _add_multiple(work, keys, key, one, mono_div(lcm, heads[i][0]), heads[i], field)
        _add_multiple(work, keys, key, minus_one, mono_div(lcm, heads[j][0]), heads[j], field)
        r = _divide(work, keys, heads, field, key, budget)
        if not r:
            continue
        head = _monic_head(r, field)
        if head[2].degree() > budget.max_degree:
            raise BudgetExceededError("degree %d exceeds budget" % head[2].degree())
        P = _update(heads, P, pairs, head, key)
    # minimalize, then fully interreduce
    lm_keys = [key(h[0]) for h in heads]
    minimal = []
    for i in sorted(range(len(heads)), key=lm_keys.__getitem__):
        if all(not mono_divides(heads[j][0], heads[i][0]) for j in minimal):
            minimal.append(i)
    basis = [heads[i] for i in minimal]
    reduced = []
    for i, head in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        if not others:
            reduced.append(head)  # already reduced; keeps its term order
            continue
        terms = head[2].terms
        r = _divide(dict(terms), {m: key(m) for m in terms}, others, field, key, budget)
        if r:
            reduced.append(_monic_head(r, field))
    reduced.sort(key=lambda h: key(h[0]))
    return tuple(h[2] for h in reduced)


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
