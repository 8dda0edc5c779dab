"""The flat `MonomialOrder.key` sorts exactly as the nested per-block key."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symprime.groebner import MonomialOrder
from symprime.poly import FAMILIES, var_key

variables = st.tuples(st.sampled_from(FAMILIES), st.integers(1, 4))
monomials = st.dictionaries(variables, st.integers(1, 4), max_size=4).map(
    lambda d: tuple(sorted(d.items(), key=lambda it: var_key(it[0]))))


def nested_key(order, mono):
    """The per-block key the flat key replaced: exponents per lex block,
    (degree, negated exponents last variable first) per graded block."""
    exps = {v: k for v, k in mono}
    parts = []
    for block in order.blocks:
        block_exps = [exps.pop(v, 0) for v in block]
        if order.kind == "lex":
            parts.append(tuple(block_exps))
        else:
            parts.append((sum(block_exps),
                          tuple(-e for e in reversed(block_exps))))
    if exps:
        raise ValueError("monomial uses variables outside the order: %r"
                         % sorted(exps, key=var_key))
    return tuple(parts)


def make_order(kind, variables, split):
    variables = sorted(variables, key=var_key)
    if kind == "lex":
        return MonomialOrder.lex(variables[split:] + variables[:split])
    if kind == "grevlex":
        return MonomialOrder.grevlex(variables)
    return MonomialOrder.block(variables[:split], variables[split:])


kinds = st.sampled_from(["lex", "grevlex", "block"])


@settings(max_examples=400, deadline=None)
@given(kinds, st.lists(monomials, min_size=1, max_size=12, unique=True),
       st.sets(variables, max_size=4), st.integers(0, 12))
def test_flat_key_sorts_as_the_nested_key(kind, monos, extra, split):
    used = {v for m in monos for v, _ in m} | extra
    order = make_order(kind, used, split % (len(used) + 1))
    assert (sorted(monos, key=order.key)
            == sorted(monos, key=lambda m: nested_key(order, m)))


@settings(max_examples=200, deadline=None)
@given(kinds, monomials, st.sets(variables, max_size=6), st.integers(0, 6))
def test_outside_variables_raise_the_same_error(kind, mono, ambient, split):
    order = make_order(kind, ambient, split % (len(ambient) + 1))
    try:
        nested_key(order, mono)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            order.key(mono)
        assert str(got.value) == str(exc)
    else:
        order.key(mono)  # inside the order, so no error either
