"""Weighted multiplicity shapes, the degeneration preorder between them,
minimal-obstruction antichains, and refinement-pair enumeration.

A shape is a finite list of part sizes in {1, 2, ..., INF} with at least one
infinite part, together with a positive integer weight per part; weights on
finite parts are always 1 (reduced form).  Shapes are kept in canonical
order: parts sorted descending by (size, weight) with INF largest.

`good_pairs` is the one enumerator of degeneration certificates.
`shape_leq` only decides whether one exists: it searches total maps of the
source parts onto the target parts, depth first with per-target deficits,
and stops at the first map that covers every target.  `psi0` sorts its
obstructions by a rank that strictly increases along strict degeneration
and keeps, in one sweep, each obstruction with no kept one below it.

A shape's canonical (size, weight) pairs are the plain tuple behind it.
The search (`_leq`), the box enumeration (`_box`) and `psi0`'s rank and
sweep run on these tuples, so `psi0` and `box_degenerations` validate and
build a `WeightedShape` only for the shapes they return; `shape_leq` and
`box_candidates` are the same search and enumeration on shapes.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .poly import InputError

INF = float("inf")


def _check_parts_weights(parts, weights):
    if len(parts) != len(weights):
        raise InputError("parts and weights must have equal length")
    if not parts:
        raise InputError("a shape needs at least one part")
    for p in parts:
        if p != INF and (not isinstance(p, int) or p < 1):
            raise InputError("part sizes must be positive integers or INF")
    for w in weights:
        if not isinstance(w, int) or w < 1:
            raise InputError("weights must be positive integers")
    if not any(p == INF for p in parts):
        raise InputError("at least one part must be infinite")


@dataclass(frozen=True)
class WeightedShape:
    """Canonical multiplicity/weight data: one (size, weight) pair per part."""

    parts: tuple
    weights: tuple

    def __post_init__(self):
        _check_parts_weights(self.parts, self.weights)
        pw = list(zip(self.parts, self.weights))
        if pw != sorted(pw, reverse=True):
            raise InputError("shape is not in canonical descending order")
        if any(w != 1 for p, w in pw if p != INF):
            raise InputError("weights on finite parts must be 1")

    @property
    def r(self):
        return len(self.parts)

    def finite_sum(self):
        return sum(p for p in self.parts if p != INF)

    def inf_weight_sum(self):
        return sum(w for p, w in zip(self.parts, self.weights) if p == INF)

    def e_max(self):
        return max(self.weights)

    def to_json_obj(self):
        return {"lambda": ["inf" if p == INF else p for p in self.parts],
                "e": list(self.weights)}

    @classmethod
    def from_json_obj(cls, obj):
        return canonicalize(*json_parts_weights(obj))[0]

    def __str__(self):
        ps = ",".join("inf" if p == INF else str(p) for p in self.parts)
        ws = ",".join(str(w) for w in self.weights)
        return "(%s);(%s)" % (ps, ws)


def canonicalize(parts, weights):
    """Reduce weights on finite parts, sort canonically, report the sort.

    Returns (shape, perm) where perm[k] is the position in the input of the
    part now at canonical position k.
    """
    parts = list(parts)
    weights = list(weights)
    _check_parts_weights(parts, weights)
    reduced = [w if p == INF else 1 for p, w in zip(parts, weights)]
    order = sorted(range(len(parts)),
                   key=lambda i: (parts[i], reduced[i], -i), reverse=True)
    shape = WeightedShape(tuple(parts[i] for i in order),
                          tuple(reduced[i] for i in order))
    return shape, tuple(order)


def shape(parts, weights):
    """Canonical WeightedShape from arbitrary part/weight lists."""
    return canonicalize(parts, weights)[0]


def shape_sort_key(s):
    return (s.r,
            tuple((0, -w) if p == INF else (1, -p)
                  for p, w in zip(s.parts, s.weights)),
            tuple(-w for w in s.weights))


@dataclass(frozen=True)
class GoodPair:
    """A subset of source parts with a surjection onto the target parts.

    domain lists the chosen source part positions (0-based, ascending) and
    targets[i] is the target part position assigned to domain[i].
    """

    domain: tuple
    targets: tuple

    def fiber(self, beta):
        return tuple(a for a, b in zip(self.domain, self.targets) if b == beta)


def good_pairs(target, source):
    """All (subset, map) pairs certifying that target degenerates from source.

    The multiplicity condition requires each target part size to be at most
    the total source size mapped onto it; the weight condition requires each
    infinite target part's weight to be at most the total weight of the
    infinite source parts mapped onto it.  A domain of fewer than target.r
    parts leaves some target part an empty fiber, of size 0, so domains
    start at target.r parts.

    Each domain's maps are searched depth first, in `itertools.product`
    order.  Per target part the search keeps its fiber's finite size, its
    number of infinite source parts and their weight; the part is short
    while its fiber fails a condition.  Each source part joins one fiber,
    so a branch with more short target parts than domain positions left is
    cut: backtracking with a feasibility cut (Knuth, The Art of Computer
    Programming, vol. 4B, 7.2.2), the enumerating twin of `shape_leq`.
    """
    r = target.r
    need = [(p, w if p == INF else 0) for p, w in zip(target.parts, target.weights)]
    size, infs, weight = [0] * r, [0] * r, [0] * r

    def short(beta):
        p, w = need[beta]
        return (not infs[beta] and p > size[beta]) or weight[beta] < w

    out = []

    def place(domain, targets, i, n_short):
        if n_short > len(domain) - i:
            return
        if i == len(domain):
            out.append(GoodPair(domain, tuple(targets)))
            return
        p, w = source.parts[domain[i]], source.weights[domain[i]]
        for beta in range(r):
            saved = size[beta], infs[beta], weight[beta]
            was = short(beta)
            if p == INF:
                infs[beta] += 1
                weight[beta] += w
            else:
                size[beta] += p
            targets.append(beta)
            place(domain, targets, i + 1, n_short - (was and not short(beta)))
            targets.pop()
            size[beta], infs[beta], weight[beta] = saved

    n_short = sum(short(beta) for beta in range(r))
    for domain in sorted(tuple(c) for k in range(r, source.r + 1)
                         for c in itertools.combinations(range(source.r), k)):
        place(domain, [], 0, n_short)
    return tuple(out)


def _pairs(s):
    """The (size, weight) pairs of a shape, in canonical order."""
    return tuple(zip(s.parts, s.weights))


def _shape_of(pairs):
    """The shape of canonical (size, weight) pairs."""
    return WeightedShape(tuple(p for p, _ in pairs), tuple(w for _, w in pairs))


def _leq(a, b):
    """True iff the shape with (size, weight) pairs a is a degeneration of
    the one with pairs b (a below b).

    A source part that joins a fiber only raises that fiber's size and
    weight sums, so a good pair exists exactly when some total map of b's
    parts onto a's parts covers every target part.  The search assigns b's
    parts in order and keeps, per uncovered target part, its deficit: the
    infinite-source weight an infinite part still needs, or the size a
    finite part still needs (an infinite source clears it).  Targets of the
    same kind and deficit are interchangeable, so a state is the sorted
    tuple of the nonzero (kind, deficit) pairs, kind 0 for infinite parts.
    Each source covers at most one target, so a state with more uncovered
    targets than sources left fails at once (a.r > b.r among them).
    """
    def cover(i, state):
        if not state:
            return True
        if len(state) > len(b) - i:
            return False
        size, weight = b[i]
        for k, (kind, deficit) in enumerate(state):
            if k and state[k - 1] == (kind, deficit):
                continue
            if size == INF:
                left = deficit - weight if kind == 0 else 0
            else:
                left = deficit if kind == 0 else deficit - size
            rest = state[:k] + state[k + 1:]
            if left > 0:
                rest = tuple(sorted(rest + ((kind, left),)))
            if cover(i + 1, rest):
                return True
        return False

    return cover(0, tuple(sorted((0, w) if p == INF else (1, p) for p, w in a)))


def shape_leq(a, b):
    """True iff shape a is a degeneration of shape b (a below b): `_leq`
    on their (size, weight) pairs."""
    return _leq(_pairs(a), _pairs(b))


def _box(max_parts, finite_cap, weight_cap):
    """The (size, weight) pairs of every canonical shape with at most
    max_parts parts, finite sizes at most finite_cap, and weights at most
    weight_cap: multisets over an alphabet listed in canonical order."""
    alphabet = [(INF, w) for w in range(weight_cap, 0, -1)]
    alphabet += [(p, 1) for p in range(finite_cap, 0, -1)]
    for k in range(1, max_parts + 1):
        for combo in itertools.combinations_with_replacement(alphabet, k):
            if combo[0][0] == INF:  # canonical order puts an infinite part first
                yield combo


def box_candidates(max_parts, finite_cap, weight_cap):
    """All canonical shapes with at most max_parts parts, finite sizes at
    most finite_cap, and weights at most weight_cap."""
    return map(_shape_of, _box(max_parts, finite_cap, weight_cap))


def box_degenerations(base, max_parts, finite_cap, weight_cap):
    """The shapes of `box_candidates(max_parts, finite_cap, weight_cap)`
    that are degenerations of base, in that order; only these are built."""
    b = _pairs(base)
    return [_shape_of(c) for c in _box(max_parts, finite_cap, weight_cap) if _leq(c, b)]


def _rank(pairs):
    """A key on (size, weight) pairs that strictly increases along strict
    degeneration t < s.

    Fibers are disjoint and nonempty, so t.r <= s.r; every infinite target
    part takes infinite source parts of at least its weight, which bounds
    the infinite weight sum and the number of infinite parts.  When all
    three agree the map is a bijection of infinite parts onto infinite
    parts of equal weights and of finite parts onto finite parts no
    smaller, so t != s forces a smaller finite sum.
    """
    return (len(pairs), sum(w for p, w in pairs if p == INF),
            sum(1 for p, _ in pairs if p == INF), sum(p for p, _ in pairs if p != INF))


@lru_cache(maxsize=None)
def psi0(base):
    """Minimal shapes that are not degenerations of base (a finite antichain).

    The search box is derived from threshold arguments: beyond r+1 parts,
    finite sizes above 1 + (sum of base's finite parts), or weights above
    1 + (total weight on base's infinite parts), comparability with base no
    longer changes; a test checks the box against a larger one.  Rank
    strictly increases along strict degeneration, so one sweep in rank
    order keeps exactly the obstructions with no kept shape below them.
    The box is filtered, ranked and swept as (size, weight) pairs, and a
    shape is built only for each one kept.

    Memoized by value, unbounded, like `theta.theta`: a shape is frozen
    and hashes by value, so an equal base is served without a search.
    """
    b = _pairs(base)
    obstructions = [c for c in _box(base.r + 1, 1 + base.finite_sum(),
                                    1 + base.inf_weight_sum())
                    if not _leq(c, b)]
    kept = []
    for c in sorted(obstructions, key=_rank):
        if not any(_leq(m, c) for m in kept):
            kept.append(c)
    return tuple(sorted(map(_shape_of, kept), key=shape_sort_key))


def refinement_pairs(source, target):
    """All (map, sub-composition) pairs splitting target parts into source parts.

    Enumerates total maps phi from source part positions onto target part
    positions together with part sizes kappa such that kappa is bounded by
    the source sizes, equals them over infinite targets, and adds up exactly
    to each target size fiber by fiber: one product over each part's sizes
    (its own over an infinite target, 1..min(source, target) over a finite
    one), filtered by the fiber sums.  Over an infinite target the sum is
    infinite exactly when the fiber holds an infinite source part, and no
    sum that matches is empty, so phi is onto.
    """
    lam, mu = source.parts, target.parts
    return sorted(
        (phi, kappa)
        for phi in itertools.product(range(len(mu)), repeat=len(lam))
        for kappa in itertools.product(*[
            (lam[a],) if mu[b] == INF else range(1, min(lam[a], mu[b]) + 1)
            for a, b in enumerate(phi)])
        if all(sum(k for k, b in zip(kappa, phi) if b == beta) == size
               for beta, size in enumerate(mu)))


def json_parts_weights(obj):
    """(parts, weights) of a problem file's "lambda" and "e" lists, whose
    entries are JSON integers, or "inf" among the parts.  Any other entry,
    a float or a boolean included, is an InputError rather than truncated."""
    def integer(v):
        if type(v) is not int:
            raise InputError('lambda and e entries must be integers or "inf", '
                             'got %r' % (v,))
        return v
    return ([INF if p == "inf" else integer(p) for p in obj["lambda"]],
            [integer(w) for w in obj["e"]])


def parse_shape_arg(lambda_text, e_text):
    """Shape from CLI-style comma lists, e.g. 'inf,inf' and '2,2'."""
    try:
        parts = [INF if tok.strip() == "inf" else int(tok)
                 for tok in lambda_text.split(",")]
        weights = [int(tok) for tok in e_text.split(",")]
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return shape(parts, weights)
