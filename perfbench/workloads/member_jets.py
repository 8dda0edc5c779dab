"""member_jets: `member` on seeded (polynomial, prime) queries.

Why: jet-truncated substitution and Fraction arithmetic do nearly all the
work here and Groebner division almost none, the opposite of contract_grid.
`full_gens` and the criterion-5 witnesses are built during set-up, so
generator and witness changes show in setup_s.

Input space, fixed ahead of any measurement:
- the circle prime's own generators of at most OWN_TERM_CAP terms (all
  members): six of its eight, up to 462 terms.  The two largest (1848 and
  2242 terms, 5-7 s each) are left out: a 30 s run could time each only
  once or twice, and on a host whose speed swings 1.75-fold for 10-15 s
  at a time their single runs alone made ops_per_s spread by a third
  between runs;
- criterion-5 membership queries: each generator of p tested in q, for the
  40 acceptance pairs (p, q), when it has at most CROSS_TERM_CAP terms;
- criterion-5 certify queries: the witness h of each failing pair, tested
  in p (member) and in q (not a member), when h has at most CROSS_TERM_CAP
  terms;
- one seeded prime per shape in SEEDED_SHAPES (r <= 2, weights 2..3):
  one-part primes at a seeded nonzero point, two-part primes free; for
  each, its own generators, and fixed numbers of generators (each in turn)
  times a seeded monomial c*x_a, generators of the next
  seeded prime (each in turn), and small random x-polynomials in 1, 2 and
  3 variables in turn, all with at most SEEDED_TERM_CAP terms.  Shapes,
  sizes and counts are fixed and only coefficients are seeded, so that
  every seed measures alike: when the multipliers, points and cross
  queries were drawn freely, the count of queries above 35 ms moved
  between seeds right at the 90th percentile, and op_p90_ms with it.
Queries whose answer is not known by construction are kept only when the
derivative oracle needs at most ORACLE_DERIVATIVES derivatives, a count
read off the query's variables and the prime's weights.
"""

import random

from . import common

OWN_TERM_CAP = 500
CROSS_TERM_CAP = 130
SEEDED_TERM_CAP = 40
ORACLE_DERIVATIVES = 100
SEEDED_SHAPES = ((["inf"], [2]), (["inf"], [3]), (["inf", "inf"], [2, 2]),
                 (["inf", 1], [2, 1]))
MULTIPLES_PER_PRIME = 4
CROSS_PER_PRIME = 4
RANDOM_PER_PRIME = 10


def _derivatives(sym, f, p):
    """Derivatives member_via_derivatives takes for f in p: the sum over
    placements of the product of the placed parts' weights."""
    xs = sorted({v[1] for v in f.variables()})
    w = p.shape.weights
    total = 0
    for assign in sym.sprime.assignments(xs, p.shape):
        prod = 1
        for i in xs:
            prod *= w[assign[i] - 1]
        total += prod
    return total


class Workload:
    # member keeps no memo of its queries and every prime's caches are
    # filled in set-up, so a repeated query does the same work
    warm_up = False
    may_fail = False
    def __init__(self, sym, seed, scale=1.0):
        self.sym = sym
        rng = random.Random(seed)
        pool = {k: common.make_prime(sym, common.prime_obj(*v))
                for k, v in common.ACCEPTANCE_POOL.items()}
        suite = common.SUITE[:max(1, int(len(common.SUITE) * scale))]
        own_cap = OWN_TERM_CAP if scale >= 1 else CROSS_TERM_CAP
        gens = {"circle22": sym.full_gens(pool["circle22"])}
        for p_key, _q, _pt, _v in suite:
            if p_key not in gens:
                gens[p_key] = sym.full_gens(pool[p_key])
        self.ops = []
        self._oracle = {}

        circle = pool["circle22"]
        for g in gens["circle22"]:
            if len(g.terms) <= own_cap:
                self._add("circle:own", g, circle, True)
        for p_key, q_key, point, verdict in suite:
            for g in gens[p_key]:
                if len(g.terms) <= CROSS_TERM_CAP:
                    # all of p's generators lie in q exactly when p is in q
                    self._add("c5:member", g, pool[q_key], True if verdict else None)
            if not verdict:
                p, q = pool[p_key], pool[q_key]
                pairs = sym.good_pairs(q.shape, p.shape)
                h = sym.build_h(p, q.shape, q_point=point if pairs else None)
                if len(h.terms) <= CROSS_TERM_CAP:
                    self._add("c5:certify", h, p, True)
                    self._add("c5:certify", h, q, False)

        seeded = []
        for parts, weights in SEEDED_SHAPES[:max(1, int(len(SEEDED_SHAPES) * scale))]:
            # one-part primes get a seeded point as configuration; two-part
            # ones stay free (with a point or a weight 3 their generators
            # take seconds to build and have hundreds of terms)
            z = ["t1-(%d)" % rng.choice((-3, -2, -1, 1, 2, 3))] if len(parts) == 1 else []
            p = common.make_prime(sym, common.prime_obj(parts, weights, z))
            own = [g for g in sym.full_gens(p) if len(g.terms) <= SEEDED_TERM_CAP]
            seeded.append((p, own))
        for j, (p, own) in enumerate(seeded):
            for g in own:
                self._add("seeded:own", g, p, True)

            # the k-th multiple is of the k-th generator (cycling), so every
            # seed multiplies generators of the same sizes
            def multiple(k, own=own):
                m = sym.parse("(%d)*x%d" % (rng.choice((-3, -2, -1, 1, 2, 3)), 1 + k % 2))
                return own[k % len(own)] * m
            other = seeded[(j + 1) % len(seeded)][1]
            self._draw("seeded:multiple", MULTIPLES_PER_PRIME, multiple, p, True)
            self._draw("seeded:cross", CROSS_PER_PRIME,
                       lambda k, other=other: other[k % len(other)], p, None)
            self._draw("seeded:random", RANDOM_PER_PRIME,
                       lambda k: sym.parse(common.random_x_poly(rng, 1 + k % 3)),
                       p, None)
        rng.shuffle(self.ops)
        # fill each prime's saturation and basis caches now, so that no
        # query's cost depends on whether it comes first in the shuffled order
        x1 = sym.parse("x1")
        for p in {id(op.args[1]): op.args[1] for op in self.ops}.values():
            sym.member(x1, p)

    def _draw(self, kind, count, draw, p, expected):
        """`count` nonzero queries of at most SEEDED_TERM_CAP terms whose
        answer is known or affordable: the k-th is the first such of
        draw(k), draw(k + count), draw(k + 2 * count), ..."""
        for k in range(count):
            for attempt in range(100):
                f = draw(k + attempt * count)
                if (not f.is_zero() and len(f.terms) <= SEEDED_TERM_CAP
                        and self._add(kind, f, p, expected)):
                    break

    def _add(self, kind, f, p, expected):
        """Add the query `member(f, p)` unless its answer is unknown and
        the oracle would need more than ORACLE_DERIVATIVES derivatives."""
        if expected is None and _derivatives(self.sym, f, p) > ORACLE_DERIVATIVES:
            return False
        member = self.sym.member
        self.ops.append(common.Op(kind, lambda: member(f, p), expected, (f, p)))
        return True

    def verify(self, index, value):
        op = self.ops[index]
        expected = op.expected
        if expected is None:
            expected = self._oracle.get(index)
            if expected is None:
                f, p = op.args
                expected = self._oracle[index] = self.sym.member_via_derivatives(f, p)
        if value is not expected:
            return "member returned %r, expected %r" % (value, expected)
        return None
