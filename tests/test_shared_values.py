"""Shared values: one monomial order and one packed layout per key, and
the result ideals the Groebner kernel builds without `Ideal.__init__`."""

import random

import pytest

from symprime.groebner import (Ideal, MonomialOrder, eliminate, groebner_basis,
                               ideal_intersect, packed_basis, saturate)
from symprime.poly import GF, PackedLayout, Poly, QQ, parse, tvar, xvar
from symprime.sprime import member, saturated_ideal
from symprime.theta import contains
from test_acceptance import SUITE, _pool
from test_groebner import _random_ideal


def test_equal_orders_are_one_instance():
    ts = [tvar(2), xvar(1), tvar(1)]
    assert MonomialOrder.grevlex(set(ts)) is MonomialOrder.grevlex(ts[::-1])
    assert MonomialOrder.block({tvar(3)}, ts) is MonomialOrder.block([tvar(3)], ts[::-1])
    assert MonomialOrder.lex(ts) is MonomialOrder.lex(tuple(ts))
    # lex reads its variables in the order given
    assert MonomialOrder.lex(ts) != MonomialOrder.lex(ts[::-1])
    assert MonomialOrder.lex(ts) is not MonomialOrder.lex(ts[::-1])
    # an order built directly still equals, and hashes as, the shared one
    shared = MonomialOrder.block([tvar(3)], ts)
    direct = MonomialOrder(shared.kind, shared.blocks)
    assert direct is not shared and direct == shared and hash(direct) == hash(shared)


def test_a_layout_is_shared_per_order_and_field_width():
    order = MonomialOrder.grevlex([tvar(1), tvar(2)])
    # 3 * 4 and 3 * 5 both take 4 bits, 3 * 6 takes 5
    assert PackedLayout.shared(order, 4) is PackedLayout.shared(order, 5)
    assert PackedLayout.shared(order, 6) is not PackedLayout.shared(order, 5)
    direct = MonomialOrder(order.kind, order.blocks)
    assert PackedLayout.shared(direct, 5) is PackedLayout.shared(order, 5)
    assert PackedLayout.shared(order, 5).mask == PackedLayout(order, 5).mask == 15


def _constructions(monkeypatch):
    """List that records every MonomialOrder and PackedLayout built."""
    built = []
    for cls in (MonomialOrder, PackedLayout):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_a_fresh_equal_ideal_builds_no_order_or_layout(monkeypatch, field):
    def fresh():
        return Ideal([parse(s, field) for s in ("t1^2 + t2*t3 - 1", "t1*t2 - t3^2",
                                                "t2^2 - 3*t1")])

    def run(I):
        return (groebner_basis(I), groebner_basis(I, MonomialOrder.lex(I.ambient)),
                eliminate(I, [tvar(3)]), saturate(I, parse("t1 - t2", field)))
    want = run(fresh())
    built = _constructions(monkeypatch)
    I = fresh()
    got = run(I)
    assert built == []
    assert [R.gens for R in got] == [R.gens for R in want]
    assert I._gb  # the fresh ideal computed its own bases


def _layout_state(layout):
    return layout.fields, dict(layout._units), dict(layout._unit_at)


def test_shared_layouts_are_not_mutated_by_a_pool_run():
    pool = _pool()
    layouts = {key: packed_basis(saturated_ideal(p))[0] for key, p in pool.items()}
    before = {key: _layout_state(layout) for key, layout in layouts.items()}
    for p, q, _ in SUITE:
        contains(pool[p], pool[q])
    for p in pool.values():
        member(parse("(x1 - x2)^2*x3"), p)
    for key, p in pool.items():
        assert _layout_state(layouts[key]) == before[key]
        fresh = PackedLayout(saturated_ideal(p).default_order(), 120)
        assert _layout_state(layouts[key]) == _layout_state(fresh)


def _assert_built_as_public(R):
    public = Ideal(R.gens, ambient=R.ambient, field=R.field)
    assert type(R.gens) is tuple and all(not g.is_zero() for g in R.gens)
    assert R == public and hash(R) == hash(public)
    assert R.gens == public.gens and R.ambient == public.ambient
    assert R.field is public.field


def test_pool_saturations_are_built_as_public_ideals():
    for p in _pool().values():
        r = p.shape.r
        sat = p.z_ideal
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                sat = saturate(sat, Poly.variable(tvar(i)) - Poly.variable(tvar(j)))
                _assert_built_as_public(sat)
        _assert_built_as_public(saturated_ideal(p))
        _assert_built_as_public(groebner_basis(saturated_ideal(p)))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(20))
def test_kernel_results_are_built_as_public_ideals(seed, field):
    rng = random.Random(3200 + seed)
    I = _random_ideal(rng, field=field)
    J = _random_ideal(rng, ngens=2, maxdeg=1, field=field)
    results = [groebner_basis(I), groebner_basis(I, MonomialOrder.lex(I.ambient)),
               groebner_basis(I, MonomialOrder.block([tvar(1)], I.ambient[1:])),
               eliminate(I, [tvar(3)]), eliminate(I, [tvar(1), tvar(3)]),
               ideal_intersect(I, J)]
    results += [saturate(I, f) for f in _random_ideal(rng, ngens=1, field=field).gens]
    for R in results:
        _assert_built_as_public(R)
        assert R.field is I.field
