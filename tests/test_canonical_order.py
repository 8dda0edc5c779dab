"""The canonical monomial order agrees with grevlex over any ambient."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symprime.groebner import MonomialOrder
from symprime.poly import FAMILIES, Poly, canonical_key, canonical_lead, var_key

variables = st.tuples(st.sampled_from(FAMILIES), st.integers(1, 4))
monomials = st.dictionaries(variables, st.integers(1, 4), max_size=4).map(
    lambda d: tuple(sorted(d.items(), key=lambda it: var_key(it[0]))))


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


@settings(max_examples=300, deadline=None)
@given(st.lists(monomials, min_size=1, max_size=12, unique=True),
       st.sets(variables, max_size=4))
def test_canonical_key_is_grevlex(monos, extra):
    used = {v for m in monos for v, _ in m}
    expected = sorted(monos, key=canonical_key)
    assert sorted(monos, key=MonomialOrder.grevlex(used).key) == expected
    assert sorted(monos, key=MonomialOrder.grevlex(used | extra).key) == expected
    assert sorted(monos, key=exponent_vector_key(used)) == expected
    assert sorted(monos, key=exponent_vector_key(used | extra)) == expected
    f = Poly.from_terms([(m, 1) for m in monos])
    assert canonical_lead(f) == expected[-1]
