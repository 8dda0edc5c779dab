"""Multiplicity/weight/variety data for a symmetric-group-stable prime and a
decision procedure for membership of explicit polynomials.

A prime is described by a canonical WeightedShape together with an ideal in
the configuration coordinates t1..tr; the configuration locus is the variety
of that ideal restricted to the open set where all coordinates differ.
Membership of a polynomial is decided by substituting every admissible
placement of its variables into the parts, truncating jet directions at the
part weights, and testing each surviving coefficient on the locus.  The
placements are walked as a tree, one variable per level: x_i -> t_alpha + e_i
is substituted into the parent's expansion, so a shared prefix of placements
is expanded once and terms cancel at the level where they meet.  The
expansion runs on ints (f's coefficients over their common denominator, or
unreduced residues mod p) in packed keys: the t-fields, then one (e, x)
field pair per level, so a level's step table (`_moves`) depends only on
the field width, r, the level and its part, and polynomials of every
window size share it.  A leaf is read out one way, `_Jets.groups`:
its t-parts move into a packed layout over t1..tr, grouped by e-part.
`member` reads them in the layout of the saturated ideal's reduced basis
and divides each coefficient there as a multiple of itself, never dividing
the ints back out; only its radical fallback and `placement_jets` (in
grevlex over t1..tr) turn a group into field coefficients (`_Jets.poly`).
Where the locus fixes a coordinate, so that the reduced basis holds
t_alpha - c for an integer c, `member` pins part alpha: its walk
substitutes x_i -> c + e_i there, and each coefficient arrives evaluated
at t_alpha = c, which is congruent to it modulo the ideal.  At c = 0 a
term of x_i-degree k becomes its e_i^k part alone, or nothing once k
reaches the part's weight, so a state shrinks at such a step instead of
growing.  `placement_jets` pins nothing.
Parts of equal size and weight whose exchange fixes the saturated
configuration ideal give the same prime, so placements that such exchanges
relate get the same verdict, and `member` walks one placement per orbit.
f may be symmetric as well: when exchanging two adjacent window variables
maps f to f or to -f (`_Jets.ties`), placements that differ by that
exchange have the same jets up to renaming the e-variables and a sign, so
the same verdict, and `member` walks only placements whose parts do not
decrease along each run of such tied variables.  The first placement of an
orbit under both groups in `assignments` order meets both rules, so every
orbit keeps a placement (lex-leader symmetry breaking: Crawford, Ginsberg,
Luks and Roy, KR 1996).  `placement_jets` still yields one placement per
orbit of the part symmetries alone.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .combinat import INF, WeightedShape, canonicalize, json_parts_weights
from .groebner import (DEFAULT_BUDGET, BudgetExceededError, Ideal, groebner_basis,
                       ideal_member, is_unit_ideal, packed_basis, radical_member,
                       reduces_to_zero, saturate)
from .poly import (InputError, MonomialOrder, PackedLayout, Poly, QQ, divide_out, evar,
                   parse, tvar)


@dataclass(frozen=True)
class SPrimeData:
    """Shape plus configuration ideal; the computable face of a stable prime."""

    shape: WeightedShape
    z_ideal: Ideal

    def to_json_obj(self):
        obj = self.shape.to_json_obj()
        obj["Z"] = [str(g) for g in self.z_ideal.gens]
        return obj

    @classmethod
    def from_json_obj(cls, obj):
        try:
            parts, weights = json_parts_weights(obj)
            gens = [parse(s) for s in obj.get("Z", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(str(exc)) from None
        return make_sprime(parts, weights, gens)

    def __str__(self):
        return "%s Z=<%s>" % (self.shape, ", ".join(str(g) for g in self.z_ideal.gens))


def make_sprime(parts, weights, gens):
    """Canonicalize the data, permuting t-variables of the ideal to match."""
    shape, perm = canonicalize(parts, weights)
    r = shape.r
    for g in gens:
        bad = [v for v in g.variables() if v[0] != "t" or v[1] > r]
        if bad:
            raise InputError("ideal generator %s uses variables outside t1..t%d" % (g, r))
        if g.field is not QQ:
            raise InputError("ideal generator %s is not over QQ" % g)
    # old position perm[k] moves to canonical position k
    rename = {tvar(perm[k] + 1): tvar(k + 1) for k in range(r)}
    moved = tuple(g.rename(rename) for g in gens)
    data = SPrimeData(shape, Ideal(moved, ambient=tuple(tvar(i + 1) for i in range(r))))
    if is_unit_ideal(saturated_ideal(data)):
        warnings.warn("configuration locus is empty; the data describes the unit ideal")
    return data


def radical_of(p):
    """Same shape and variety with all weights reset to 1."""
    shape = WeightedShape(p.shape.parts, tuple(1 for _ in p.shape.weights))
    return SPrimeData(shape, p.z_ideal)


@lru_cache(maxsize=None)
def _saturated(z_ideal, r):
    """z_ideal saturated at each t_i - t_j, i < j, in turn: its saturation
    at their product, as I : (fg)^inf = (I : f^inf) : g^inf (Cox, Little
    and O'Shea, Ideals, Varieties, and Algorithms, ch. 4 sec. 4)."""
    ts = [Poly.variable(tvar(alpha), z_ideal.field) for alpha in range(1, r + 1)]
    sat = z_ideal
    for ti, tj in itertools.combinations(ts, 2):
        sat = saturate(sat, ti - tj)
    return sat


def saturated_ideal(p):
    """The configuration ideal saturated at the pairwise difference product."""
    return _saturated(p.z_ideal, p.shape.r)


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
    """(xs, deg f, den): the sorted indices of f's variables, which must all
    be x-variables, f's total degree, and the lcm of its coefficients'
    denominators (1 over GF(p)), from one pass over its terms."""
    xs, degree, den = set(), 0, 1
    for m, c in f.terms.items():
        d = 0
        for (family, i), k in m:
            if family != "x":
                raise InputError("membership is defined for polynomials in x-variables")
            xs.add(i)
            d += k
        if d > degree:
            degree = d
        if c.denominator != 1:
            den = math.lcm(den, c.denominator)
    return tuple(sorted(xs)), degree, den


def _decode(packed, width, xs):
    """The e-monomial whose exponent of e_xs[k] is bit field 2k of packed,
    an e-part of `_Jets.groups` (each level's e-field, then its x-field)."""
    mask = (1 << width) - 1
    mono = []
    for i in xs:
        if packed & mask:
            mono.append((evar(i), packed & mask))
        packed >>= 2 * width
    return tuple(mono)


@lru_cache(maxsize=4096)
def _moves(w, r, level, alpha, weight, pin):
    """The step x_xs[level] -> t_alpha + e, e^weight truncated, on `_Jets`
    keys of width w over r parts: row k, for every k < 2**w, holds for
    x-exponent k the pairs (key offset, C(k, j)), j < weight, j <= k, the
    offset taking the key's x^k to t_alpha^(k-j) * e^j.  With a pin c (an
    int) the step is x -> c + e: the offset takes x^k to e^j and the factor
    is C(k, j) * c^(k-j), zero factors dropped, so at c = 0 only j = k <
    weight is left.  A level's fields sit at the same bits for every window
    size, so every f with keys of width w shares the table."""
    e_shift = (r + 2 * level) * w
    # unpinned, t_alpha^(k-j) stays in the key and the factor is C(k, j)
    t, c = (1 << (alpha - 1) * w, 1) if pin is None else (0, pin)
    unit = t - (1 << e_shift + w)  # x^1 -> t_alpha^1
    e_step = (1 << e_shift) - t    # t_alpha^1 -> e^1
    return tuple(tuple((k * unit + j * e_step, b) for j in range(min(k + 1, weight))
                       if (b := math.comb(k, j) * c ** (k - j)))
                 for k in range(1 << w))


def _swapped_into(root, image, lo, w):
    """True iff exchanging the w-bit fields at bits lo and lo + 2w (the
    x-fields of two adjacent levels) of every key of root gives a key that
    image maps to the key's coefficient."""
    mask = (1 << w) - 1
    hi = lo + 2 * w
    move = (1 << lo) - (1 << hi)  # times b - a: field lo gains b - a, field hi a - b
    get = image.get
    for key, c in root.items():
        if get(key + ((key >> hi & mask) - (key >> lo & mask)) * move) != c:
            return False
    return True


@lru_cache(maxsize=256)
def _t_units(layout, r):
    """The packed units of t1..tr in layout."""
    return tuple(layout.unit(tvar(alpha)) for alpha in range(1, r + 1))


class _Jets:
    """Jet states of one polynomial f during the substitution x_i -> t + e_i.

    A state maps packed keys to nonzero int coefficients: f's coefficients
    times their common denominator `den` over QQ, unreduced residues over
    GF(p).  A key has one bit field of `width` bits per part (t-exponents,
    part alpha in field alpha - 1), then per window variable, level by
    level, a field for its e-exponent and a field for the x-exponent still
    to be substituted.  No field exceeds deg f, so `width` bits hold it.
    The window is `_x_window(f)`.  A step moves each term that holds its
    level's variable by the offsets of a `_moves` table, shared by every f
    of the same width and part count, and copies the others.  A leaf's
    t-parts are read out in `layout`, a `PackedLayout` over t1..tr that
    holds deg f.  `pins` holds per part None or an int c; a variable
    placed in a part with a pin c is substituted x_i -> c + e_i, so that
    part's t-field stays 0 (`member`'s `_pins`).  Without pins every part
    keeps t_alpha.
    """

    def __init__(self, f, window, r, layout, pins=None):
        self.field = f.field
        self.xs, degree, self.den = window
        den = self.den
        self.width = w = max(degree, 1).bit_length()
        self.r, self.e_base = r, r * w
        shift = {i: (r + 2 * ell + 1) * w for ell, i in enumerate(self.xs)}
        self.root = root = {}
        for mono, c in f.terms.items():
            key = 0
            for (_, i), k in mono:
                key += k << shift[i]
            root[key] = c if den == 1 else c.numerator * (den // c.denominator)
        self.layout = layout
        self._units = _t_units(layout, r)
        self._t_packed = {}
        self._pins = pins or (None,) * r

    def ties(self):
        """The window levels l >= 1 whose variable is tied to level l - 1's:
        exchanging the two x-fields in every key of the root maps f to f or
        to -f, one sign for all of f."""
        root, char, w = self.root, self.field.char, self.width
        negated = None
        out = []
        for level in range(1, len(self.xs)):
            lo = self.e_base + (2 * level - 1) * w  # level - 1's x-field
            if _swapped_into(root, root, lo, w):
                out.append(level)
                continue
            if negated is None:
                negated = {key: -c % char if char else -c for key, c in root.items()}
            if _swapped_into(root, negated, lo, w):
                out.append(level)
        return tuple(out)

    def step(self, state, level, alpha, weight):
        """State after substituting x_xs[level] -> t_alpha + e (c + e when
        alpha is pinned to c), truncated at e^weight.  Terms that meet are
        summed, and cancel, here."""
        w = self.width
        moves = _moves(w, self.r, level, alpha, weight, self._pins[alpha - 1])
        x_shift, mask = self.e_base + (2 * level + 1) * w, (1 << w) - 1
        out = {}
        get = out.get
        for key, c in state.items():
            k = key >> x_shift & mask
            if k:
                # x^k contributes C(k,j) * t_alpha^(k-j) * e^j for each j < weight
                for move, b in moves[k]:
                    image = key + move
                    out[image] = get(image, 0) + b * c
            else:
                out[key] = get(key, 0) + c
        # terms that cancelled are dropped; most steps have none
        if 0 in out.values():
            return {key: c for key, c in out.items() if c}
        return out

    def groups(self, state):
        """{packed e-part: {packed t-monomial: int}} of a state with every
        variable placed, zeros dropped: the t-monomials in `layout`, the
        ints not divided by `den`, and residues mod p reduced."""
        w, e_base = self.width, self.e_base
        t_mask, mask = (1 << e_base) - 1, (1 << w) - 1
        memo, units, char = self._t_packed, self._units, self.field.char
        out = {}
        for key, c in state.items():
            if char:
                c %= char
                if not c:
                    continue
            packed = key & t_mask
            m = memo.get(packed)
            if m is None:
                m, rest = 0, packed
                for u in units:
                    m += (rest & mask) * u
                    rest >>= w
                memo[packed] = m
            group = out.get(key >> e_base)
            if group is None:
                group = out[key >> e_base] = {}
            group[m] = c
        return out

    def poly(self, group):
        """The t-polynomial of one group of `groups`: its ints divided by
        `den` over QQ, residues over GF(p)."""
        unpack = self.layout.unpack
        terms = divide_out(group.items(), self.den, self.field.char)
        return Poly(self.field, {unpack(m): c for m, c in terms.items()})


def _pins(p):
    """Per part of p, the int c when the reduced basis of saturated_ideal(p)
    holds t_alpha - c, else None: a generator whose only nonconstant term
    is t_alpha, with coefficient 1, and whose constant is an int, so
    2*t1 - 1 (t1 - 1/2 reduced) pins nothing.  Computed once per prime
    and kept on p, like `part_classes`.
    """
    pins = p.__dict__.get("_pins")
    if pins is not None:
        return pins
    r = p.shape.r
    units = {Poly.variable(tvar(alpha)): alpha for alpha in range(1, r + 1)}
    pins = [None] * r
    for g in groebner_basis(saturated_ideal(p)).gens:
        c = g.terms.get((), 0)
        alpha = units.get(g - c)
        if alpha and type(c) is int:
            pins[alpha - 1] = -c
    pins = p.__dict__["_pins"] = tuple(pins)
    return pins


def part_classes(p, budget=None):
    """Classes of parts that p's symmetry may exchange, as ascending tuples
    of part positions (1-based), in order of their least positions.

    Parts i and j join when they have equal (size, weight) and swapping
    t_i and t_j fixes saturated_ideal(p).  Each generator of that ideal,
    swapped, is tested for membership in it: one-sided containment is
    enough, because the swap is an involution.  A part joins a class when
    its swap with the class's least part fixes the ideal; the transpositions
    that do so generate the product of the symmetric groups on the classes,
    and every element of that group fixes the ideal.  Computed once per
    prime and kept on p.
    """
    classes = p.__dict__.get("_part_classes")
    if classes is not None:
        return classes
    sat = saturated_ideal(p)
    kinds = tuple(zip(p.shape.parts, p.shape.weights))

    def swap_fixes(a, b):
        swap = {tvar(a): tvar(b), tvar(b): tvar(a)}
        return all(ideal_member(g.rename(swap), sat, budget) for g in sat.gens)

    joined = []
    for b in range(1, p.shape.r + 1):
        for cls in joined:
            if kinds[cls[0] - 1] == kinds[b - 1] and swap_fixes(cls[0], b):
                cls.append(b)
                break
        else:
            joined.append([b])
    classes = tuple(map(tuple, joined))
    # p is a frozen dataclass; the classes are stored the way
    # functools.cached_property stores its value
    p.__dict__["_part_classes"] = classes
    return classes


def placement_jets(f, shape, classes=()):
    """Yield (assign, jets) for one placement per orbit of the group that
    permutes each class of `classes` (tuples of part positions, as from
    `part_classes`), in assignments(xs, shape) order, xs being f's window.
    Without classes every placement is its own orbit, so every placement
    of `assignments` is yielded.  jets maps each jet monomial (in the
    e-variables) to its coefficient, a polynomial in the t-variables, in
    f(x_i -> t_assign(i) + e_i) with e_i^weight truncated, weight being
    that of part assign(i).

    The placements form a tree whose level l places the l-th window
    variable.  Each node expands its parent's state by one variable, so a
    placement prefix is expanded once for all the placements below it, and
    terms cancel at the level where they meet.  Siblings share their
    parent's state and never change it; a part full to its capacity gets
    no further variable.  A part is opened only when the member of its
    class before it is already in use (restricted growth): a class's parts
    are then used in order of first use, which picks exactly one placement
    of each orbit, the first in `assignments` order.  The parts of a class
    have the same size, so the picked placement keeps the capacities.
    The walk here ignores f's own symmetry, which only `member` uses.
    """
    window = _x_window(f)
    ts = [tvar(alpha) for alpha in range(1, shape.r + 1)]
    jets = _Jets(f, window, shape.r, PackedLayout.shared(MonomialOrder.grevlex(ts), window[1]))
    xs, w = jets.xs, jets.width
    return ((dict(zip(xs, path)), {_decode(e_part, w, xs): jets.poly(group)
                                   for e_part, group in jets.groups(state).items()})
            for path, state in _walk(jets, shape, classes))


def _walk(jets, shape, classes, ties=()):
    """(path, state) at each leaf of the `placement_jets` walk of jets,
    path holding the part of each window variable.  A level of `ties`
    (`_Jets.ties`) starts its parts at the part of the level before it."""
    r, weights = shape.r, shape.weights
    xs = jets.xs
    caps = [p if p != INF else len(xs) for p in shape.parts]
    before = [None] * r     # part index -> index of its class member before it
    for cls in classes:
        for b, a in zip(cls, cls[1:]):
            before[a - 1] = b - 1
    tied = [False] * (len(xs) + 1)
    for level in ties:
        tied[level] = True
    used = [0] * r
    path = []             # the part placed at each level so far
    states = [jets.root]  # states[l]: the state with l variables placed
    nexts = [0]           # nexts[l]: the first part index level l has yet to try
    while True:
        level = len(path)
        a = nexts[level]
        if level == len(xs):
            yield tuple(path), states[level]
            a = r  # a leaf has no children
        while a < r and not (used[a] < caps[a] and (before[a] is None or used[before[a]])):
            a += 1
        if a < r:
            nexts[level] = a + 1
            used[a] += 1
            path.append(a + 1)
            states.append(jets.step(states[level], level, a + 1, weights[a]))
            nexts.append(a if tied[level + 1] else 0)
        elif path:
            used[path.pop() - 1] -= 1
            states.pop()
            nexts.pop()
        else:
            return


def member(f, p, budget=None):
    """True iff f lies in the stable prime described by p.

    Every admissible placement of f's variables into the parts must send f
    into the jet ideal: after truncation, each coefficient polynomial has to
    vanish on the configuration locus.  A permutation of parts of equal
    (size, weight) that fixes the locus's saturated ideal maps the prime to
    itself: it turns the coefficients of one placement into those of the
    other by renaming the t-variables, and a coefficient lies in the ideal
    exactly when its renaming does.  `part_classes` proves this for a swap
    by testing the swapped generators alone, since a swap is its own
    inverse.  The walk of `placement_jets` therefore visits one placement
    per orbit of the group the classes generate (the first in
    `assignments` order, where a class's parts are used in order), and the
    first coefficient that does not vanish ends it.

    When r > 1 the walk also prunes by f's own symmetry.  If exchanging
    the window variables of levels l - 1 and l (an exchange sigma) maps f to
    +f or -f, one sign for all of f (`_Jets.ties`), then the jets of f at
    a placement a composed with sigma are those of sigma(f) = +-f at a,
    with e-variables renamed; so each coefficient is +- one of the other's,
    and the verdicts agree.  A tied level starts its parts at the part of
    the level before it, so parts never decrease along a run of tied
    levels; the parts of classes still follow restricted growth.  Both
    groups act on placements together, and the first placement of an orbit
    in `assignments` order satisfies both rules, since either group alone
    could otherwise move it to an earlier one; every orbit is thus walked
    at least once.  The `r ** len(xs)` budget guard still counts every
    placement.

    A leaf's coefficients are never divided back to field coefficients.
    The walk's ints are each coefficient times one nonzero constant (`den`)
    over QQ, so each is divided as it stands, packed in the layout of the
    saturated ideal's reduced basis, fetched once per call; the verdict and
    the division steps are those of the coefficient itself.  A nonzero
    remainder means False when the basis's leading monomials are
    squarefree; otherwise that coefficient's `Poly` goes to
    `radical_member`.

    A part whose coordinate the locus fixes is pinned (`_pins`): the walk
    substitutes x_i -> c + e_i for a variable placed there, not t_alpha +
    e_i.  Say t_alpha - c, c an integer, is an element of the reduced
    basis.  Reducedness keeps t_alpha out of every other basis element, so
    the ideal I is (t_alpha - c) + J with J free of t_alpha.  Every
    coefficient G is then congruent to G(t_alpha = c) mod I, and G lies in
    I, or in its radical, exactly when the evaluated coefficient does.  The
    evaluated leaves have t_alpha-exponent 0 and are divided by the same
    basis, and the radical fallback gets the evaluated `Poly`; the budget
    counts the division steps of the evaluated coefficient.  Pins are used
    only when f is over the ideal's field, so an f over another field
    walks as before and meets the same "mixed coefficient fields" test.
    """
    budget = budget or DEFAULT_BUDGET
    if f.is_zero():
        return True
    xs, degree, _ = window = _x_window(f)
    r = p.shape.r
    sat = _saturated(p.z_ideal, r)
    basis = packed_basis(sat, [tvar(alpha) for alpha in range(1, r + 1)], budget)
    layout, heads, squarefree = basis
    if heads and not heads[0][0]:  # a constant head: the basis is (1)
        return True
    count = r ** len(xs)
    if count > budget.max_reductions:
        raise BudgetExceededError("placement space of size %d exceeds budget" % count)
    if degree > budget.max_degree:  # before the walk builds deg f + 1 binomial rows
        raise BudgetExceededError("degree %d exceeds budget" % degree)
    classes = part_classes(p, budget)
    char = f.field.char
    jets = _Jets(f, window, r, layout, _pins(p) if char == sat.field.char else None)
    for _path, state in _walk(jets, p.shape, classes, jets.ties() if r > 1 else ()):
        for work in jets.groups(state).values():
            if char != sat.field.char:
                raise ValueError("mixed coefficient fields")
            # the division consumes its dict; the fallback reads work
            divided = work if squarefree else dict(work)
            if not reduces_to_zero(divided, basis, char, budget) and (
                    squarefree or not radical_member(jets.poly(work), sat, budget)):
                return False
    return True


def member_via_derivatives(f, p, budget=None):
    """Independent membership check through formal derivatives (char 0).

    f belongs iff for every placement and every derivative multi-order below
    the part weights, the derivative evaluated on the diagonal configuration
    vanishes on the locus.
    """
    if f.field.char != 0:
        raise InputError("the derivative criterion needs characteristic 0")
    if f.is_zero():
        return True
    xs = _x_window(f)[0]
    sat = saturated_ideal(p)
    if is_unit_ideal(sat, budget):
        return True
    for assign in assignments(xs, p.shape):
        ranges = [range(p.shape.weights[assign[i] - 1]) for i in xs]
        to_t = {("x", i): tvar(assign[i]) for i in xs}
        for orders in itertools.product(*ranges):
            g = f
            for i, k in zip(xs, orders):
                for _ in range(k):
                    g = g.derivative(("x", i))
            if not radical_member(g.rename(to_t), sat, budget):
                return False
    return True
