"""Sparse exact multivariate polynomials over the rationals and prime fields.

Variables come in named families with 1-based indices: x<k> are the main ring
variables, t<k> are configuration coordinates, e<k> are jet directions.  The
z-family is reserved for internal auxiliary variables and is not parseable.

A monomial is a tuple of (variable, exponent) pairs sorted by variable, with
no zero exponents.  A polynomial maps monomials to nonzero coefficients.

This module also owns monomial orders (`MonomialOrder`) and the packed
monomial encoding (`PackedLayout`, after Monagan and Pearce, CASC 2007):
each monomial is one int whose int order is the monomial order and whose
`+` is the monomial product.  `product` (a list of factors, each packed
once), large `Poly` products and the canonical print run on it, and so
does the Groebner kernel.  Since int order is the canonical order, a
product's terms come out already sorted for the print.  The jet walk
(`sprime._Jets`) keeps its own narrower keys (bit_length(deg f) bits per
exponent, no order fields or guard bits): it adds keys and shifts
exponents but never compares keys, and on a grevlex `PackedLayout` it ran
about 30 % slower.  Its one leaf readout moves the t-parts into a
`PackedLayout` through `PackedLayout.unit`: the Groebner kernel's, for
`sprime.member` to divide them, or grevlex over t1..tr, for
`placement_jets` to unpack them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import lcm

FAMILIES = ("x", "t", "e", "z")
_RANK = {f: i for i, f in enumerate(FAMILIES)}


class InputError(ValueError):
    """Raised on a malformed or out-of-range value supplied by the caller."""


class ParseError(InputError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__("syntax error at position %d: %s" % (pos, message))
        self.pos = pos


def xvar(i):
    return ("x", i)


def tvar(i):
    return ("t", i)


def evar(i):
    return ("e", i)


def zvar(i):
    return ("z", i)


def var_key(v):
    return (_RANK[v[0]], v[1])


def var_name(v):
    return "%s%d" % v


def _rational(q):
    """q as an int when integral, else as the reduced Fraction."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


class Rationals:
    """Coefficient field of arbitrary-precision rationals.

    Integral values are stored as int and all others as reduced Fraction;
    the two agree on ==, <, hash and str, so polynomials compare, hash and
    print the same whichever form a coefficient takes.
    """

    char = 0

    def coerce(self, a):
        if type(a) is int:
            return a
        return _rational(a if isinstance(a, Fraction) else Fraction(a))

    def add(self, a, b):
        s = a + b
        if type(s) is Fraction and s.denominator == 1:
            return s.numerator
        return s

    def mul(self, a, b):
        p = a * b
        if type(p) is Fraction and p.denominator == 1:
            return p.numerator
        return p

    def neg(self, a):
        return -a

    def inv(self, a):
        return _rational(Fraction(1, a) if type(a) is int else 1 / a)

    def __repr__(self):
        return "QQ"


# Miller-Rabin on the primes up to 41 as bases decides primality exactly
# below this bound, psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)
# 985-1003); the bases up to 37 alone pass psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Whether p < _MR_LIMIT is prime, by Miller-Rabin on _MR_BASES."""
    if p in _MR_BASES:
        return True
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1:
            continue
        for _ in range(s):  # p - 1 must come before the first 1
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class PrimeField:
    """Integers modulo a prime, residues stored in [0, p)."""

    def __init__(self, p):
        if p >= _MR_LIMIT:
            raise InputError("characteristic must be below %d, got %r" % (_MR_LIMIT, p))
        if not _is_prime(p):
            raise InputError("characteristic must be prime, got %r" % (p,))
        self.char = p

    def coerce(self, a):
        if isinstance(a, Fraction):
            return a.numerator * pow(a.denominator, -1, self.char) % self.char
        return int(a) % self.char

    def add(self, a, b):
        return (a + b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.char)
        return pow(a, -1, self.char)

    def __repr__(self):
        return "GF(%d)" % self.char


QQ = Rationals()


@lru_cache(maxsize=None)
def GF(p):
    """Return the (cached) prime field with p elements."""
    return PrimeField(p)


def field_of_char(char):
    return QQ if char == 0 else GF(char)


# ---------------------------------------------------------------------------
# monomials

def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, k in m2:
        d[v] = d.get(v, 0) + k
    return tuple(sorted(d.items(), key=lambda it: var_key(it[0])))


def mono_degree(m):
    return sum(k for _, k in m)


def mono_divides(m1, m2):
    d2 = dict(m2)
    return all(d2.get(v, 0) >= k for v, k in m1)


def mono_div(m1, m2):
    """Quotient m1 / m2; requires divisibility."""
    d = dict(m1)
    for v, k in m2:
        d[v] -= k
    return tuple(sorted(((v, k) for v, k in d.items() if k), key=lambda it: var_key(it[0])))


def mono_lcm(m1, m2):
    d = dict(m1)
    for v, k in m2:
        d[v] = max(d.get(v, 0), k)
    return tuple(sorted(d.items(), key=lambda it: var_key(it[0])))


def canonical_key(m):
    """Sort key of the canonical order: graded reverse lexicographic with
    significance x1 > x2 > ... > t1 > ... > e1 > ... > z1.

    Restricted to any set of variables grevlex is the same order, so the key
    needs no ambient variable list and reads the sparse monomial directly.
    """
    degree, tail = 0, []
    for (f, i), k in reversed(m):
        degree += k
        tail.append((-_RANK[f], -i, -k))
    return (degree, tail)


# ---------------------------------------------------------------------------
# monomial orders and packed monomials

class MonomialOrder:
    """Total monomial order: lex, grevlex, or block (grevlex inside blocks).

    Variables are listed most-significant first; the canonical significance
    order is x1 > x2 > ... > t1 > ... > e1 > ..., matching canonical
    printing.  Block orders compare the first block before the second, so
    putting the variables to eliminate in the first block yields an
    elimination order.

    The order is one table: each variable maps to the run [lo, hi) of
    nonnegative key fields its exponent adds to, field 0 most significant.
    A lex block gives one field per variable.  A graded block b_1..b_m
    gives the prefix sums S_m, ..., S_1 with S_k = e(b_1) + ... + e(b_k),
    since comparing those is comparing (degree, -e(b_m), ..., -e(b_1)).
    A variable listed twice counts in its first place only.  `key` and the
    packed layout (`PackedLayout`) both read this table.

    `grevlex`, `lex` and `block` return one shared instance per (kind,
    blocks) from a bounded process-wide cache (`_order`), and nothing
    mutates an order after `__init__`.  Its hash is computed there once,
    since every per-order cache lookup hashes it.
    """

    __slots__ = ("kind", "blocks", "_runs", "_width", "_hash")

    def __init__(self, kind, blocks):
        self.kind = kind
        self.blocks = tuple(tuple(b) for b in blocks)
        runs, width = {}, 0
        for block in self.blocks:
            block = [v for v in dict.fromkeys(block) if v not in runs]
            m = len(block)
            for i, v in enumerate(block):  # b_(i+1) is in S_m..S_(i+1)
                runs[v] = ((width + i, width + i + 1) if kind == "lex"
                           else (width, width + m - i))
            width += m
        self._runs = runs
        self._width = width
        self._hash = hash((kind, self.blocks))

    @classmethod
    def grevlex(cls, variables):
        return _order("grevlex", frozenset(variables))

    @classmethod
    def lex(cls, variables):
        return _order("lex", tuple(variables))

    @classmethod
    def block(cls, first, rest):
        return _order("block", frozenset(first), frozenset(rest))

    def key(self, mono):
        """The key fields of a monomial, an int tuple that sorts monomials
        in this order: each exponent is added over its variable's run
        (at the run's start and taken off past its end, then summed)."""
        out = [0] * (self._width + 1)
        runs = self._runs
        try:
            for v, k in mono:
                lo, hi = runs[v]
                out[lo] += k
                out[hi] -= k
        except KeyError:
            raise _outside(mono, runs) from None
        out.pop()
        return tuple(accumulate(out))

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.blocks == other.blocks)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "MonomialOrder(%s, %r)" % (self.kind, self.blocks)


@lru_cache(maxsize=256)
def _order(kind, *parts):
    """The shared order of a kind: over the sequence of variables of a lex
    order, or over one set of variables per graded block.  Keyed by sets,
    a hit sorts nothing (the canonical print looks up an order per call)."""
    if kind != "lex":
        parts = tuple(tuple(sorted(part, key=var_key)) for part in parts)
    return MonomialOrder(kind, parts)


def _outside(mono, known):
    """The error for a monomial with variables not in `known`."""
    return ValueError("monomial uses variables outside the order: %r"
                      % sorted((v for v, _ in mono if v not in known), key=var_key))


class PackedLayout:
    """Monomials of one order packed into one int each.

    Each field is `width` bits plus a guard bit on top.  From least to
    most significant: the total degree; one exponent per variable in
    `var_key` order; then the order's key fields (`MonomialOrder`), key
    field 0 on top.  A variable's unit is 1 in the degree field, 1 in its
    exponent field and 1 in each key field of its run.

    Every field is a nonnegative linear function of the exponents, so as
    long as no field overflows: int `<` is the order, the product of
    monomials is `+` and the quotient `-`, and m1 divides m2 iff
    `(m2 - m1) & guard == 0` (a negative field borrows, which sets its
    guard bit).

    Width: with D (`bound`) the larger of the degree bound and the inputs'
    degree, 2**width > 3*D keeps every field from overflowing.  Heads have
    degree at most D (inputs by definition of D, new heads are
    degree-checked), so a pair's lcm has degree at most 2D and an
    S-polynomial's terms, a cofactor of degree at most 2D times a head's
    term, at most 3D.  A division step first checks its leading monomial
    against the bound, so the terms it adds have degree at most 2D.  Every
    field is at most the degree, so the inner loops need no overflow check.
    A product needs only D = deg(a) + deg(b), and a division by one
    polynomial only D = deg(f).

    The library takes every layout from `shared`, one instance per (order,
    field width) from a bounded process-wide cache, and nothing mutates a
    layout after `__init__`.
    """

    __slots__ = ("fields", "mask", "guard", "_units", "_unit_at",
                 "_exp_mask", "_exp_guard", "_width")

    def __init__(self, order, bound):
        w = _field_width(bound)
        f = w + 1
        runs = order._runs
        variables = sorted(runs, key=var_key)
        n = len(variables)
        top = n + order._width  # the packed field holding key field 0
        repunit = ((1 << f * (top + 1)) - 1) // ((1 << f) - 1)
        # key fields lo..hi-1 are packed fields top-hi+1..top-lo
        units = {}
        for i, v in enumerate(variables):
            lo, hi = runs[v]
            units[v] = (1 | 1 << f * (i + 1)
                        | repunit >> f * (top + 1 - hi + lo) << f * (top + 1 - hi))
        self._width = w
        self.mask = (1 << w) - 1
        self.guard = repunit << w
        exps = (repunit >> f * (top + 1 - n)) << f
        self._exp_mask = exps * self.mask
        self._exp_guard = exps << w
        self.fields = tuple((v, f * (i + 1)) for i, v in enumerate(variables))
        self._units = units
        self._unit_at = {f * (i + 2) - 1: units[v] for i, v in enumerate(variables)}

    @staticmethod
    def shared(order, bound):
        """The shared layout of the order with room for the degree bound:
        a layout depends only on its order and field width."""
        return _shared_layout(order, _field_width(bound))

    def pack(self, terms):
        """([(packed monomial, coefficient)], largest degree) of a term dict."""
        units = self._units
        out, top = [], 0
        for m, c in terms.items():
            p = d = 0
            try:
                for v, k in m:
                    p += units[v] * k
                    d += k
            except KeyError:
                raise _outside(m, units) from None
            out.append((p, c))
            if d > top:
                top = d
        return out, top

    def unit(self, v):
        """The packed monomial of variable v alone."""
        return self._units[v]

    def unpack(self, p):
        """The sparse monomial tuple of a packed monomial."""
        mask = self.mask
        return tuple([(v, e) for v, s in self.fields if (e := p >> s & mask)])

    def lcm(self, a, b):
        """Packed lcm: a raised, in each variable where b's exponent is
        larger, by the difference."""
        em, eg, w = self._exp_mask, self._exp_guard, self._width
        # per exponent field (a + 2**w) - b, which clears the guard bit
        # exactly where b is larger; no field borrows from the next
        t = (a & em | eg) - (b & em)
        over = eg & ~t
        while over:
            top = over.bit_length() - 1
            over ^= 1 << top
            a += ((1 << w) - (t >> top - w & self.mask)) * self._unit_at[top]
        return a


def clear_denominators(terms):
    """(terms scaled by d, d) for d the lcm of the coefficients'
    denominators, over a list of (monomial, coefficient): integers over
    QQ, and GF(p) residues unchanged."""
    d = 1
    for _, c in terms:
        if c.denominator != 1:
            d = lcm(d, c.denominator)
    if d == 1:
        return terms, 1
    return [(m, c.numerator * (d // c.denominator)) for m, c in terms], d


def divide_out(pairs, d, p):
    """{key: c / d} over (key, int c) pairs, zeros dropped: the one way
    kernel ints leave for field coefficients.  Over GF(p) a residue, over
    QQ (p = 0) an int where d divides c and a reduced Fraction elsewhere."""
    if p:
        inv = pow(d, -1, p)
        return {m: r for m, c in pairs if (r := c * inv % p)}
    if d == 1:
        return {m: c for m, c in pairs if c}
    return {m: Fraction(c, d) if c % d else c // d for m, c in pairs if c}


def _support(factors):
    """(variables, degree) of the product of a list of nonempty term dicts:
    the union of their variables and the sum of their total degrees."""
    variables, degree = set(), 0
    for terms in factors:
        top = 0
        for m in terms:
            d = 0
            for v, k in m:
                variables.add(v)
                d += k
            if d > top:
                top = d
        degree += top
    return variables, degree


def _field_width(bound):
    """The bits of a packed field below its guard bit: 2**width > 3*bound."""
    return max(1, (3 * bound).bit_length())


@lru_cache(maxsize=256)
def _shared_layout(order, width):
    """The layout of `PackedLayout.shared` for fields of the given width."""
    return PackedLayout(order, ((1 << width) - 1) // 3)


def _canonical_layout(variables, degree):
    """The packed layout of grevlex over the variables, the canonical
    order, with room for the degree."""
    return PackedLayout.shared(MonomialOrder.grevlex(variables), degree)


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Immutable sparse polynomial over a fixed coefficient field; its hash
    and its text are computed once, on first use.

    `ordered` claims that the term dict is in descending canonical order,
    so the print needs no sort and the degree is the first term's.  Only
    code that builds the dict in that order may set it: `_product`'s
    callers (`product` and the packed branch of `__mul__`) and `__neg__`,
    which keeps its operand's order.
    """

    __slots__ = ("field", "terms", "ordered", "_hash", "_str")

    def __init__(self, field, terms, ordered=False):
        # terms must already be coerced with zeros dropped; use the builders
        self.field = field
        self.terms = terms
        self.ordered = ordered
        self._hash = None
        self._str = None

    @classmethod
    def zero(cls, field=QQ):
        return cls(field, {})

    @classmethod
    def const(cls, c, field=QQ):
        c = field.coerce(c)
        return cls(field, {(): c} if c else {})

    @classmethod
    def variable(cls, v, field=QQ):
        return cls(field, {((v, 1),): field.coerce(1)})

    @classmethod
    def from_terms(cls, items, field=QQ):
        terms = {}
        add, coerce = field.add, field.coerce
        for m, c in items:
            c = coerce(c)
            if m in terms:
                c = add(terms[m], c)
            terms[m] = c
        return cls(field, {m: c for m, c in terms.items() if c})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self):
        return self.terms.get((), self.field.coerce(0))

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree(self):
        """Total degree; -1 for the zero polynomial.  The canonical order
        is graded, so an `ordered` polynomial's first term has it."""
        if not self.terms:
            return -1
        if self.ordered:
            return mono_degree(next(iter(self.terms)))
        return max(mono_degree(m) for m in self.terms)

    def __add__(self, other):
        other = self._lift(other)
        f = self.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                s = f.add(terms[m], c)
                if s:
                    terms[m] = s
                else:
                    del terms[m]
            else:
                terms[m] = c
        return Poly(f, terms)

    def __neg__(self):
        f = self.field
        return Poly(f, {m: f.neg(c) for m, c in self.terms.items()}, self.ordered)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        """The product, multiplied on packed monomials (`_product`) unless
        it has fewer than _PACKED_PAIRS term pairs."""
        other = self._lift(other)
        f = self.field
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly(f, {})
        if len(a) * len(b) >= _PACKED_PAIRS:
            return Poly(f, _product([a, b], f.char), True)
        out = {}
        add, mul = f.add, f.mul
        for m2, c2 in b.items():
            for m1, c1 in a.items():
                m = mono_mul(m1, m2)
                c = mul(c1, c2)
                if m in out:
                    s = add(out[m], c)
                    if s:
                        out[m] = s
                    else:
                        del out[m]
                else:
                    out[m] = c
        return Poly(f, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._lift(other) - self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise ValueError("mixed coefficient fields")
            return other
        return Poly.const(other, self.field)

    def rename(self, mapping):
        """Simultaneously relabel variables per mapping (variable ->
        variable); terms whose monomials meet are added."""
        mapping = {v: w for v, w in mapping.items() if v != w}
        if not mapping:
            return self  # every variable is its own image
        terms = []
        for m, c in self.terms.items():
            exps = {}
            for v, k in m:
                w = mapping.get(v, v)
                exps[w] = exps.get(w, 0) + k
            terms.append((tuple(sorted(exps.items(), key=lambda it: var_key(it[0]))), c))
        return Poly.from_terms(terms, self.field)

    def derivative(self, v):
        """Formal partial derivative with respect to variable v.  Distinct
        monomials divided by v stay distinct, so no two terms meet; a term
        drops when its exponent is 0 in the field."""
        f = self.field
        out = {}
        for m, c in self.terms.items():
            k = dict(m).get(v, 0)
            if k and (c := f.mul(c, f.coerce(k))):
                out[mono_div(m, ((v, 1),))] = c
        return Poly(f, out)

    def evaluate(self, point):
        """Evaluate at a full assignment (variable -> field element)."""
        f = self.field
        total = f.coerce(0)
        for m, c in self.terms.items():
            val = c
            for v, k in m:
                val = f.mul(val, pow(f.coerce(point[v]), k, f.char or None))
            total = f.add(total, val)
        return total

    def leading(self, order):
        """(monomial, coefficient) maximal under the given order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if self.is_constant():
                return self.constant_value() == self.field.coerce(other)
            return NotImplemented
        return self.field.char == other.field.char and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.char, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if self._str is None:
            self._str = self._text()
        return self._str

    def _text(self):
        """Terms in descending canonical order, by their packed monomials in
        grevlex over their own variables; each power of a variable is
        spelled once.  An `ordered` dict is in that order already (only
        `_product`'s callers and `__neg__` set the flag), so it is not
        packed and sorted again."""
        if not self.terms:
            return "0"
        spelled = {(v, k): var_name(v) if k == 1 else "%s^%d" % (var_name(v), k)
                   for v, k in set().union(*self.terms)}
        items = self.terms.items()
        if len(items) > 1 and not self.ordered:
            # packed monomials are distinct, so no coefficient is compared
            packed = _canonical_layout(*_support([self.terms])).pack(self.terms)[0]
            items = [t for _, t in sorted(zip(packed, items), reverse=True)]
        words = []
        for m, c in items:
            if self.field.char == 0 and c < 0:
                sign, mag = "-", -c
            else:
                sign, mag = "+", c
            if not m:
                body = str(mag)
            else:
                body = "*".join(map(spelled.__getitem__, m))
                if mag != 1:
                    body = "%s*%s" % (mag, body)
            words += (sign, body)
        # "s1 b1 s2 b2 ...": the leading sign is shown only when it is "-"
        out = " ".join(words)
        return out[2:] if out[0] == "+" else "-" + out[2:]

    def __repr__(self):
        return "Poly(%s)" % self


# Products of at least this many term pairs are multiplied on packed
# monomials.  Below it, packing and unpacking every term costs more than
# the tuple loop (the measured crossover, with the layout cached, is
# 10-12 pairs), and most products of small CLI commands and of parsing
# are that small: packing every product cost contain_cli about 7 % of its
# throughput and contract_grid a third more set-up (BENCH_16.json).
_PACKED_PAIRS = 12


def _product(factors, p):
    """The term dict of the product of a list of nonempty term dicts over
    the field of characteristic p.  Each factor is packed once, in the
    canonical layout of their joint variables with room for the sum of
    their degrees, and the factors are folded left to right: a monomial
    product is an int `+`, and coefficients accumulate as integers (over
    QQ with each factor's denominators cleared, over GF(p) reduced after
    each factor).  `divide_out` turns the coefficients back into field
    elements, and each nonzero term's monomial is unpacked once, in
    descending packed order.  That is the canonical order the print uses:
    the variables are the same and, over a field, the degree of a product
    is the sum of its factors' degrees, so `_text` would pack into this
    same layout and sort the same way."""
    layout = _canonical_layout(*_support(factors))
    (out, den), *rest = [clear_denominators(layout.pack(t)[0]) for t in factors]
    for i, (packed, d) in enumerate(rest, 1):
        den *= d  # stays 1 over GF(p)
        acc = {}
        get = acc.get
        for ma, ca in out:
            for mb, cb in packed:
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
        out = acc.items()
        if i < len(rest):  # the last factor's product is reduced below
            out = [(m, r) for m, c in out if (r := c % p if p else c)]
    terms = divide_out(out, den, p)
    unpack = layout.unpack
    return {unpack(m): terms[m] for m in sorted(terms, reverse=True)}


def product(factors, field=QQ):
    """The product of a list of polynomials over the field, multiplied in
    one pass on packed monomials (`_product`): 1 for no factors, 0 if a
    factor is 0.  A product of several factors comes out `ordered`, so it
    prints without packing its terms again."""
    if any(f.field is not field for f in factors):
        raise ValueError("mixed coefficient fields")
    if len(factors) == 1:
        return factors[0]
    terms = [f.terms for f in factors]
    if not terms:
        return Poly.const(1, field)
    if not all(terms):
        return Poly(field, {})
    return Poly(field, _product(terms, field.char), True)


# ---------------------------------------------------------------------------
# parsing

def _digits(text, i):
    """(value, end) of the digit run at i; int() refusing it is a ParseError."""
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    try:
        return int(text[i:j]), j
    except ValueError:
        raise ParseError("integer literal of %d digits is too long" % (j - i), i) from None


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            value, j = _digits(text, i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            fam = text[i:j]
            if fam not in ("x", "t", "e"):
                raise ParseError("unknown variable family %r" % fam, i)
            if not text[j:j + 1].isdecimal():
                raise ParseError("variable %r is missing an index" % fam, i)
            idx, k = _digits(text, j)
            if idx < 1:
                raise ParseError("variable index must be >= 1", j)
            tokens.append(("var", (fam, idx), i))
            i = k
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, field):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError("expected %r" % kind, tok[2])
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            node = node * self.parse_factor()
        return node

    def parse_factor(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        node = self.parse_power()
        return node if sign == 1 else -node

    def parse_power(self):
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "num":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            node = node ** tok[1]
        return node

    def parse_atom(self):
        tok = self.take()
        if tok[0] == "num":
            value = tok[1]
            if self.peek()[0] == "/":
                self.take()
                den = self.take()
                if den[0] != "num" or den[1] == 0:
                    raise ParseError("malformed rational literal", den[2])
                value = Fraction(tok[1], den[1])
            return Poly.const(value, self.field)
        if tok[0] == "var":
            return Poly.variable(tok[1], self.field)
        if tok[0] == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError("unexpected token", tok[2])


def parse(text, field=QQ):
    """Parse polynomial text in the x/t/e grammar into a Poly."""
    parser = _Parser(_tokenize(text), field)
    try:
        node = parser.parse_expr()
    except RecursionError:  # no depth limit of its own: whatever the stack holds parses
        raise ParseError("parentheses nested too deeply", parser.peek()[2]) from None
    end = parser.take()
    if end[0] != "end":
        raise ParseError("trailing input", end[2])
    return node


def discriminant(indices, family="x", field=QQ):
    """Product of pairwise differences v_i - v_j over i < j in the given order."""
    indices = list(indices)
    if not indices:
        raise ValueError("discriminant requires a nonempty index set")
    v = [Poly.variable((family, i), field) for i in indices]
    return product([vi - vj for vi, vj in combinations(v, 2)], field)
