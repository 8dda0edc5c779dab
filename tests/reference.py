"""Tuple-monomial references for the packed kernel.

The library reads leading terms, lcms and divisibility off packed ints; the
tests check it against these plain constructions on sparse monomial tuples.
"""

from symprime.poly import Poly, mono_div, var_key


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
