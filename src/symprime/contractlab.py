"""Brute-force verification of jet-ideal contractions at desk scale.

For a window of n variables mapped to a common base point plus jet
directions with prescribed vanishing orders, the contraction back to the
window ring is computed by elimination and compared with the predicted
difference-power generators, in characteristic zero and p.
"""

import itertools

from .groebner import Ideal, eliminate, ideal_contains, ideal_equal, ideal_member
from .poly import InputError, Poly, QQ, evar, field_of_char, tvar, xvar


def _check_args(n, q, char):
    if n < 1:
        raise InputError("window size must be at least 1")
    q = tuple(q)
    if len(q) != n or any(not isinstance(k, int) or k < 1 for k in q):
        raise InputError("q must give a positive order per variable")
    if char:
        uniform = q[0]
        if any(k != uniform for k in q):
            raise InputError("positive characteristic requires uniform orders")
        if char < 2:  # for char 1 or -1 the loop below would never end
            raise InputError("characteristic must be prime, got %r" % (char,))
        k = uniform
        while k % char == 0:
            k //= char
        if k != 1:
            raise InputError("order must be a power of the characteristic")
    return q


def contract_ideal(n, q, char=0, budget=None):
    """Contraction of the jet ideal to the window ring, by elimination."""
    q = _check_args(n, q, char)
    fld = field_of_char(char)
    gens = []
    for i in range(1, n + 1):
        gens.append(Poly.variable(xvar(i), fld)
                    - Poly.variable(tvar(1), fld) - Poly.variable(evar(i), fld))
        gens.append(Poly.variable(evar(i), fld) ** q[i - 1])
    I = Ideal(gens, field=fld)
    drop = (tvar(1),) + tuple(evar(i) for i in range(1, n + 1))
    return eliminate(I, drop, budget)


def predicted_ideal(n, q, char=0):
    """Difference powers (x_i - x_j)^(q_i + q_j - 1), or ^q in characteristic p."""
    q = _check_args(n, q, char)
    fld = field_of_char(char)
    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            diff = Poly.variable(xvar(i), fld) - Poly.variable(xvar(j), fld)
            exp = q[i - 1] + q[j - 1] - 1 if char == 0 else q[0]
            gens.append(diff ** exp)
    ambient = tuple(xvar(i) for i in range(1, n + 1))
    return Ideal(gens, ambient=ambient, field=fld)


def verify_contract(n, q, char=0, budget=None):
    """Mutual containment between the computed contraction and the prediction."""
    actual = contract_ideal(n, q, char, budget)
    predicted = predicted_ideal(n, q, char)
    return ideal_equal(actual, predicted, budget), actual


def predicted_contained(n, q, char=0, budget=None):
    """The easy direction: predicted generators lie in the contraction."""
    return ideal_contains(contract_ideal(n, q, char, budget),
                          predicted_ideal(n, q, char), budget)


def derivative_member(f, q, budget=None):
    """Characteristic-zero membership test for the contraction via derivatives:
    all partials of multi-order below q must lie in the difference ideal."""
    q = tuple(q)
    n = len(q)
    diffs = [Poly.variable(xvar(i), QQ) - Poly.variable(xvar(j), QQ)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    diag = Ideal(diffs, ambient=tuple(xvar(i) for i in range(1, n + 1)))
    for orders in itertools.product(*(range(k) for k in q)):
        g = f
        for i, k in enumerate(orders, start=1):
            for _ in range(k):
                g = g.derivative(xvar(i))
        if not ideal_member(g, diag, budget):
            return False
    return True
