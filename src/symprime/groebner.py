"""Buchberger completion, normal forms, elimination, saturation, and
radical-membership tests: the decision kernel for all variety operations.

Pair processing uses the Gebauer-Moeller elimination criteria with sugar
selection (Giovini et al., "One sugar cube, please", ISSAC 1991): each
basis element carries a sugar, its input's degree or the sugar of the pair
it came from, and the pair of least sugar is reduced next, ties going to
the least lcm.  Every potentially unbounded computation is guarded by a
resource budget and fails loudly instead of looping.

Polynomials speak in sorted ((family, idx), exp) tuples.  Orders and the
packed monomial layout live in `poly` (`MonomialOrder`, `PackedLayout`),
one shared instance per key, so a call builds neither once its key has
been seen.  Every entry point packs each monomial into one int and
unpacks on exit, so inside the kernel (after Monagan and Pearce, CASC
2007) int `<` is the order, `+` and `-` multiply and divide, and one mask
tests divisibility.
Division, one loop for every caller, exact divisibility included, works in
place on a term dict: each step pops the leading term, found by `max` over
the ints, and adds the matching multiple of the divisor's other terms.
`_buchberger` keeps the head (lm, lc, other terms) of every basis element
and divides S-polynomials and the final interreduction by those heads.
For `eliminate` it keeps at the end only the heads free of the dropped
variables, one mask test on each leading monomial, and interreduces and
unpacks only those: in the block order no other head divides a monomial
free of them, so the result is the same (Cox, Little and O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 3 §1).

Coefficients inside the kernel are plain ints.  Over GF(p) heads are monic
residues.  Over QQ the kernel is fraction-free: a head is a primitive
integer polynomial (denominators cleared, content divided out, lc > 0), an
S-polynomial is cross-multiplied by the heads' lcs over their gcd, and a
division step multiplies the working dict by hc/gcd(lc, hc) only when the
head's lc hc does not divide the leading coefficient lc.  Field
coefficients come back only on the way out, through `poly.divide_out`: a
basis element is divided by its lc, and a remainder by its denominator
and scale.  A reduced basis keeps its packed heads, and whether their
leading monomials are all squarefree (`packed_basis`), so `ideal_member`,
`radical_member` and `sprime.member` pack it once per order and degree
bound, and `reduces_to_zero` divides packed ints by it.  The caller names
the variables it packs over; `packed_basis` picks the order from them.
"""

from dataclasses import dataclass
from math import gcd

from .poly import (MonomialOrder, PackedLayout, Poly, QQ, clear_denominators, divide_out,
                   var_key, zvar)


class BudgetExceededError(RuntimeError):
    """The computation exceeded its step or degree budget."""


@dataclass(frozen=True)
class Budget:
    max_reductions: int = 2_000_000
    max_degree: int = 120


DEFAULT_BUDGET = Budget()


class Ideal:
    """Ideal of `Poly` generators with a per-order cache of reduced bases.

    Values are immutable apart from the caches (reduced bases per order,
    elimination ideals per tuple of dropped variables, default order, on a
    reduced basis its packed heads with their squarefree flag, and the
    hash); cache writes are single idempotent assignments of a
    unique value, so concurrent use at worst recomputes the same value.
    Ideals share their orders and packed layouts, which are never mutated
    either.  The kernel builds its results with `_known`, which skips the
    checks of `__init__`.
    """

    __slots__ = ("field", "gens", "ambient", "_gb", "_elim", "_order", "_heads", "_hash")

    def __init__(self, gens, ambient=(), field=None):
        gens = tuple(g for g in gens if not g.is_zero())
        if field is None:
            field = gens[0].field if gens else QQ
        vs = set(ambient)
        for g in gens:
            if g.field.char != field.char:
                raise ValueError("mixed coefficient fields in ideal")
            vs |= g.variables()
        self._fill(gens, tuple(sorted(vs, key=var_key)), field)

    @classmethod
    def _known(cls, gens, ambient, field):
        """The ideal of a tuple of nonzero polynomials over the field whose
        variables lie in the ambient, a tuple in `var_key` order: what
        `__init__` would build from them, without the scan."""
        self = cls.__new__(cls)
        self._fill(gens, ambient, field)
        return self

    def _fill(self, gens, ambient, field):
        self.field = field
        self.gens = gens
        self.ambient = ambient
        self._gb = {}
        self._elim = {}
        self._order = None
        self._heads = {}
        self._hash = None

    def default_order(self):
        """Grevlex over the ambient, built on first use."""
        if self._order is None:
            self._order = MonomialOrder.grevlex(self.ambient)
        return self._order

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.field.char == other.field.char
                and self.gens == other.gens and self.ambient == other.ambient)

    def __hash__(self):
        if self._hash is None:  # memo lookups hash the same ideal again and again
            self._hash = hash((self.field.char, self.gens, self.ambient))
        return self._hash

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)


def normal_form(f, basis, order, budget=None):
    """Remainder of f on division by the (preferably reduced) basis."""
    basis = [g for g in basis if not g.is_zero()]
    if any(g.field.char != f.field.char for g in basis):
        raise ValueError("mixed coefficient fields")
    if f.is_zero() or not basis:
        return f
    budget = budget or DEFAULT_BUDGET
    p = f.field.char
    layout, heads = _packed_heads(basis, order, max(budget.max_degree, f.degree()))
    work, den = clear_denominators(layout.pack(f.terms)[0])
    r, scale = _divide(dict(work), heads, p, layout, budget)
    unpack = layout.unpack
    return Poly(f.field, divide_out([(unpack(m), c) for m, c in r.items()], den * scale, p))


def poly_divides(d, f):
    """True iff polynomial d exactly divides f: d alone is a Groebner basis
    of (d), so f's remainder by it is zero.  The order is graded, so no
    division step leads with a degree above deg f, and the division stops
    at the first remainder term."""
    if d.field.char != f.field.char:
        raise ValueError("mixed coefficient fields")
    if d.is_zero() or f.is_zero():
        return f.is_zero()
    p, degree = f.field.char, f.degree()
    order = MonomialOrder.grevlex(d.variables() | f.variables())
    layout, ((head, _), (terms, _)) = _pack_all([d, f], order, degree)
    work = dict(clear_denominators(terms)[0])
    return not _divide(work, [_head(head, p)], p, layout, Budget(max_degree=degree),
                       first=True)[0]


def _packed_heads(basis, order, bound):
    """(layout, normalized heads) of nonzero polynomials, in a layout for
    the degree bound and for their own degrees."""
    layout, packed = _pack_all(basis, order, bound)
    return layout, [_head(terms, basis[0].field.char) for terms, _ in packed]


def _pack_all(polys, order, bound):
    """(layout, [(packed terms, degree)] per poly): the layout is wide
    enough for the degree bound and for the inputs' degrees."""
    layout = PackedLayout.shared(order, bound)
    packed = [layout.pack(g.terms) for g in polys]
    top = max(d for _, d in packed)
    if top > bound:
        layout = PackedLayout.shared(order, top)
        packed = [layout.pack(g.terms) for g in polys]
    return layout, packed


def _head(terms, p):
    """(lm, lc, other terms) of a nonzero list of packed terms, normalized:
    monic over GF(p), and over QQ (p = 0) a primitive integer polynomial
    with lc > 0."""
    terms = clear_denominators(terms)[0]
    lm, lc = max(terms)
    if p:
        if lc != 1:
            inv = pow(lc, -1, p)
            terms = [(m, c * inv % p) for m, c in terms]
            lc = 1
    else:
        g = gcd(*[c for _, c in terms])
        if lc < 0:
            g = -g
        if g != 1:
            terms = [(m, c // g) for m, c in terms]
            lc //= g
    return lm, lc, [t for t in terms if t[0] != lm]


def _divide(work, heads, p, layout, budget, first=False):
    """Divide the packed term dict `work` in place by heads, a list of
    normalized (lm, lc, other terms), and return (r, scale), r a term dict:
    the remainder of work is r / scale, with scale 1 over GF(p).  With
    `first` it returns at the first remainder term, with r that term alone,
    which tells only whether the remainder is zero.

    Leading terms leave `work` in decreasing order, so the remainder's
    first term is its leading one.  A leading term of degree above the
    budget is refused before it can reach the remainder.  Over QQ a step
    whose head's lc does not divide the leading coefficient first
    multiplies `work`, the remainder so far and the scale by the smallest
    factor that makes it divide.
    """
    guard, mask = layout.guard, layout.mask
    max_degree, max_steps = budget.max_degree, budget.max_reductions
    remainder = {}
    scale = 1
    steps = 0
    while work:
        lm = max(work)
        lc = work.pop(lm)
        if lm & mask > max_degree:
            raise BudgetExceededError("degree %d exceeds budget" % (lm & mask))
        steps += 1
        if steps > max_steps:
            raise BudgetExceededError("division step budget exhausted")
        for hm, hc, tail in heads:
            if not (lm - hm) & guard:
                if hc != 1:  # over QQ only; GF(p) heads are monic
                    g = gcd(lc, hc)
                    if g != hc:
                        k = hc // g
                        for m in work:
                            work[m] *= k
                        for m in remainder:
                            remainder[m] *= k
                        scale *= k
                    lc //= g
                _add_multiple(work, -lc, lm - hm, tail, p)
                break
        else:
            if first:
                return {lm: lc}, scale
            remainder[lm] = lc
    return remainder, scale


def _add_multiple(work, c, u, tail, p):
    """work += c*u*tail term by term, for packed monomials u and tail's;
    coefficients are residues mod p, or integers when p = 0.  Every caller
    keeps c*cg nonzero mod p (tails hold nonzero coefficients, and c is a
    popped lc or an lc quotient), so a zero sum deletes a key of work."""
    get = work.get
    for m, cg in tail:
        m += u
        w = get(m, 0) + cg * c
        if p:
            w %= p
        if w:
            work[m] = w
        else:
            del work[m]


def _update(heads, sugars, P, pairs, head, sugar, layout):
    """Gebauer-Moeller pair update when head = (lm, lc, tail) of the given
    sugar joins heads; `pairs` maps each pair to (sugar, lcm)."""
    lmf = head[0]
    i_new = len(heads)
    guard, mask, lcm = layout.guard, layout.mask, layout.lcm
    with_f = [lcm(h[0], lmf) for h in heads]
    kept = set()
    for (i, j) in P:
        lij = pairs[i, j][1]
        if (lij - lmf) & guard or lij == with_f[i] or lij == with_f[j]:
            kept.add((i, j))
    by_lcm = {}
    for i, L in enumerate(with_f):
        by_lcm.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(by_lcm):
        if all((L - M) & guard for M in minimal):
            minimal.append(L)
    for L in minimal:
        if any(L == heads[i][0] + lmf for i in by_lcm[L]):
            continue  # coprime heads: S-pair reduces to zero
        i = min(by_lcm[L])
        d = L & mask
        pairs[i, i_new] = (max(sugars[i] + d - (heads[i][0] & mask),
                               sugar + d - (lmf & mask)), L)
        kept.add((i, i_new))
    heads.append(head)
    sugars.append(sugar)
    return kept


def _buchberger(gens, order, budget, drop=()):
    """Reduced basis of the generators in the order, as monic `Poly`s in
    increasing order of leading monomial.  With `drop`, variables that
    lead the order as a block (`eliminate`), only the basis elements free
    of them are kept, interreduced and unpacked."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    field = gens[0].field
    p = field.char
    layout, packed = _pack_all(gens, order, budget.max_degree)
    guard = layout.guard
    heads, sugars, P, pairs = [], [], set(), {}
    for terms, degree in packed:
        P = _update(heads, sugars, P, pairs, _head(terms, p), degree, layout)
    reductions = 0
    while P:
        i, j = pair = min(P, key=pairs.__getitem__)
        P.discard(pair)
        reductions += 1
        if reductions > budget.max_reductions:
            raise BudgetExceededError("pair reduction budget exhausted")
        # the S-polynomial, cross-multiplied so the leading terms cancel
        sugar, lcm = pairs[pair]
        (mi, ci, ti), (mj, cj, tj) = heads[i], heads[j]
        g = gcd(ci, cj)
        work = {}
        _add_multiple(work, cj // g, lcm - mi, ti, p)
        _add_multiple(work, -(ci // g), lcm - mj, tj, p)
        r = _divide(work, heads, p, layout, budget)[0]
        if not r:
            continue
        P = _update(heads, sugars, P, pairs, _head(r.items(), p), sugar, layout)
    # minimalize, then fully interreduce; in an elimination order a head
    # holding a dropped variable divides no monomial free of them, so the
    # heads free of them give the same answer among themselves
    held = sum(layout.mask << shift for v, shift in layout.fields if v in drop)
    minimal = []
    for h in sorted(heads, key=lambda h: h[0]):
        if not h[0] & held and all((h[0] - m[0]) & guard for m in minimal):
            minimal.append(h)
    reduced = []
    for i, head in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if not others:
            reduced.append(head)  # already reduced
            continue
        work = dict(head[2])
        work[head[0]] = head[1]
        r = _divide(work, others, p, layout, budget)[0]
        if r:
            reduced.append(_head(r.items(), p))
    reduced.sort(key=lambda h: h[0])
    unpack = layout.unpack
    # each head is made monic on the way out
    return tuple(Poly(field, divide_out([(unpack(m), c) for m, c in [(lm, lc)] + tail], lc, p))
                 for lm, lc, tail in reduced)


def groebner_basis(I, order=None, budget=None):
    """Unique reduced Groebner basis of I, returned as an Ideal and cached
    on I per order (grevlex over I's ambient by default)."""
    order = order or I.default_order()
    if order not in I._gb:
        basis = _buchberger(list(I.gens), order, budget or DEFAULT_BUDGET)
        # a reduced basis is nonzero, over I's field and inside its ambient
        result = Ideal._known(basis, I.ambient, I.field)
        result._gb[order] = result
        I._gb[order] = result
    return I._gb[order]


def is_unit_ideal(I, budget=None):
    gb = groebner_basis(I, budget=budget)
    return len(gb.gens) == 1 and gb.gens[0].is_constant()


def ideal_member(f, I, budget=None):
    """True iff f lies in I (extended to f's variables)."""
    return _divided(f, I, budget or DEFAULT_BUDGET)[0]


def _divided(f, I, budget):
    """(f lies in I, every leading monomial of I's reduced basis is
    squarefree), from one division of f by that basis, packed over f's
    variables too.  The order is graded, so f of degree above the budget
    leads with a term that the first division step would refuse; it is
    refused before division, so the budget's layout always holds f."""
    if f.field.char != I.field.char:
        raise ValueError("mixed coefficient fields")
    basis = packed_basis(I, f.variables(), budget)
    layout, heads, squarefree = basis
    if not heads:
        return f.is_zero(), True
    terms, top = layout.pack(f.terms)
    if top > budget.max_degree:
        raise BudgetExceededError("degree %d exceeds budget" % top)
    return reduces_to_zero(dict(clear_denominators(terms)[0]), basis, I.field.char,
                           budget), squarefree


def packed_basis(I, variables=(), budget=None):
    """(layout, heads, squarefree) of I's reduced basis (default order),
    packed over I's ambient and `variables`: in I's default order when
    they lie in the ambient, else in grevlex over the union, which
    restricts to it.  The layout holds the degree budget; the heads are
    normalized (lm, lc, other terms), none for the zero ideal; squarefree
    tells whether every leading monomial is.  Cached on the basis per
    (order, degree budget)."""
    budget = budget or DEFAULT_BUDGET
    extra = set(variables).difference(I.ambient)
    order = MonomialOrder.grevlex(extra.union(I.ambient)) if extra else I.default_order()
    gb = groebner_basis(I, budget=budget)
    key = (order, budget.max_degree)
    entry = gb._heads.get(key)
    if entry is None:
        if gb.gens:
            layout, heads = _packed_heads(gb.gens, order, budget.max_degree)
            unpack = layout.unpack
            squarefree = all(k == 1 for lm, _, _ in heads for _, k in unpack(lm))
        else:
            layout, heads, squarefree = PackedLayout.shared(order, budget.max_degree), [], True
        entry = gb._heads[key] = (layout, heads, squarefree)
    return entry


def reduces_to_zero(work, basis, p, budget):
    """True iff the packed term dict `work`, ints in the layout of `basis`
    (a `packed_basis` entry) that are a nonzero multiple of a polynomial,
    has remainder zero: the polynomial lies in the ideal.  Residues mod p
    over GF(p).  `work` is divided in place."""
    layout, heads, _ = basis
    if not heads:
        return not work
    return not _divide(work, heads, p, layout, budget)[0]


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


def _merged(*ambients):
    """The variables of several ambients, as one tuple in `var_key` order."""
    return tuple(sorted(set().union(*ambients), key=var_key))


def _rabinowitsch(I, f):
    """(I + (1 - z*f), z) for a z-variable fresh to I and f.  Only the added
    generator is scanned: 1 - z*f is nonzero, and I's generators lie in its
    ambient."""
    z = _fresh_z(I, f)
    one = Poly.const(1, I.field)
    J = Ideal._known(I.gens + (one - Poly.variable(z, I.field) * f,),
                     _merged(I.ambient, (z,), f.variables()), I.field)
    return J, z


def eliminate(I, drop, budget=None):
    """Ideal of polynomials in I avoiding the dropped variables; it arrives
    with its reduced basis cached in its default order.

    Its generators are the elements of I's reduced basis in the block
    order (dropped variables first) that are free of the dropped
    variables, which by the Elimination Theorem generate the answer.
    `_buchberger` keeps, interreduces and unpacks only those; the others
    are never built.  The result is cached on I per tuple of dropped
    variables (`var_key` order)."""
    dropped = set(drop)
    drop = tuple(sorted(dropped, key=var_key))
    if not drop:
        return I
    result = I._elim.get(drop)
    if result is None:
        missing = [v for v in drop if v not in I.ambient]
        if missing:
            raise ValueError("cannot eliminate variables outside the ambient: %r" % missing)
        keep = tuple(v for v in I.ambient if v not in dropped)
        gens = _buchberger(list(I.gens), MonomialOrder.block(drop, keep),
                           budget or DEFAULT_BUDGET, drop)
        result = Ideal._known(gens, keep, I.field)
        # the block order restricts to grevlex on keep (Elimination Theorem)
        result._gb[result.default_order()] = result
        I._elim[drop] = result
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
    """True iff f vanishes on the variety of I, i.e. f lies in the radical of I.

    A member of I is a member of its radical.  When every leading monomial
    of I's reduced basis (default order) is squarefree, I is radical
    (Sturmfels, Groebner Bases and Convex Polytopes, 1996), so f outside I
    is outside its radical.  Proof: say f^k lies in I, and let r be f's
    remainder by the basis, so r^k lies in I too.  If r is nonzero with
    leading monomial m, then m^k lies in in<(I); squarefree monomials
    generate in<(I), and a squarefree monomial divides m^k only if it
    divides m, so m lies in in<(I), against r being reduced.  Hence r = 0.
    This covers the zero and the unit ideal.  Any other basis goes to the
    Rabinowitsch trick: f is in the radical iff I + (1 - z*f) is the unit
    ideal.
    """
    member, squarefree = _divided(f, I, budget or DEFAULT_BUDGET)
    if member or squarefree:
        return member
    return is_unit_ideal(_rabinowitsch(I, f)[0], budget)


def ideal_intersect(I, J, budget=None):
    """Generators of the intersection via the one-variable construction."""
    if I.field.char != J.field.char:
        raise ValueError("mixed coefficient fields")
    z = _fresh_z(I, J)
    zp = Poly.variable(z, I.field)
    one = Poly.const(1, I.field)
    # nonzero multiples, by a fresh z, of generators inside their ambients
    gens = tuple(zp * g for g in I.gens) + tuple((one - zp) * h for h in J.gens)
    K = Ideal._known(gens, _merged(I.ambient, J.ambient, (z,)), I.field)
    return eliminate(K, (z,), budget)
