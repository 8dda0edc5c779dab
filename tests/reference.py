"""Plain references for the kernel and the contraction check.

The library reads leading terms, lcms and divisibility off packed ints; the
tests check it against these plain constructions on sparse monomial tuples.
It eliminates by building only the basis elements it returns, and contracts
jet ideals after substituting the jet directions out; the tests check both
against the whole block-order basis of the unsubstituted ideal.
"""

from symprime.groebner import Ideal, MonomialOrder, groebner_basis
from symprime.poly import Poly, evar, field_of_char, mono_div, tvar, var_key, xvar


def exponent_vector_key(ambient):
    """Grevlex key over an explicit ambient: degree, then negated exponents
    read from the least significant variable."""
    pos = {v: i for i, v in enumerate(sorted(ambient, key=var_key))}

    def key(m):
        exps = [0] * len(pos)
        for v, k in m:
            exps[pos[v]] = k
        return (sum(exps), tuple(-e for e in reversed(exps)))
    return key


def mono_divides(m1, m2):
    d2 = dict(m2)
    return all(d2.get(v, 0) >= k for v, k in m1)


def mono_lcm(m1, m2):
    d = dict(m1)
    for v, k in m2:
        d[v] = max(d.get(v, 0), k)
    return tuple(sorted(d.items(), key=lambda it: var_key(it[0])))


def reference_spoly(f, g, order):
    """The S-polynomial built from tuple leading terms."""
    field = f.field
    mf, cf = f.leading(order)
    mg, cg = g.leading(order)
    lcm = mono_lcm(mf, mg)
    a = Poly(field, {mono_div(lcm, mf): field.inv(cf)})
    b = Poly(field, {mono_div(lcm, mg): field.inv(cg)})
    return f * a - g * b


def reference_eliminate(I, drop):
    """The elements of I's whole reduced basis in the block order (drop
    first) that are free of the dropped variables, as an Ideal over the
    kept variables, computed on a fresh copy of I."""
    dropped = set(drop)
    keep = tuple(v for v in I.ambient if v not in dropped)
    fresh = Ideal(I.gens, ambient=I.ambient, field=I.field)
    gb = groebner_basis(fresh, MonomialOrder.block(tuple(dropped), keep))
    return Ideal([g for g in gb.gens if not g.variables() & dropped],
                 ambient=keep, field=I.field)


def reference_contract_ideal(n, q, char=0):
    """The contraction of the jet ideal (x_i - t1 - e_i, e_i^q_i) to the
    window ring, eliminating t1 and every e_i: 2n generators in 2n + 1
    variables."""
    fld = field_of_char(char)
    gens = []
    for i in range(1, n + 1):
        gens.append(Poly.variable(xvar(i), fld)
                    - Poly.variable(tvar(1), fld) - Poly.variable(evar(i), fld))
        gens.append(Poly.variable(evar(i), fld) ** q[i - 1])
    drop = (tvar(1),) + tuple(evar(i) for i in range(1, n + 1))
    return reference_eliminate(Ideal(gens, field=fld), drop)
