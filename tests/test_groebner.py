"""Groebner kernel: bases, normal forms, elimination, saturation, radicals."""

import random
from fractions import Fraction

import pytest

from symprime import groebner
from symprime.contractlab import contract_ideal
from symprime.groebner import (DEFAULT_BUDGET, Budget, BudgetExceededError,
                               Ideal, MonomialOrder, eliminate, groebner_basis,
                               ideal_contains, ideal_equal, ideal_intersect,
                               ideal_member, is_unit_ideal, normal_form, packed_basis,
                               radical_member, reduces_to_zero, saturate)
from symprime.poly import (GF, PackedLayout, Poly, QQ, Rationals, _order, evar,
                           mono_degree, mono_div, parse, tvar, xvar, zvar)

from reference import mono_divides, reference_eliminate, reference_spoly


def gb_strs(I, order=None):
    return [str(g) for g in groebner_basis(I, order).gens]


def test_groebner_already_reduced():
    assert gb_strs(Ideal([parse("t1")])) == ["t1"]


def test_groebner_lex_example():
    I = Ideal([parse("t1^2+t2^2-1"), parse("t1-t2")])
    gb = groebner_basis(I, MonomialOrder.lex([tvar(1), tvar(2)]))
    assert set(str(g) for g in gb.gens) == {"t1 - t2", "t2^2 - 1/2"}


def test_groebner_block_contraction_instance():
    I = Ideal([parse("x1 - t1 - e1"), parse("x2 - t1 - e2"),
               parse("e1^2"), parse("e2^2")])
    E = eliminate(I, [tvar(1), evar(1), evar(2)])
    assert gb_strs(E) == ["x1^3 - 3*x1^2*x2 + 3*x1*x2^2 - x2^3"]


def test_groebner_deterministic_and_unique():
    I1 = Ideal([parse("t1^2+t2^2-1"), parse("t1-t2")])
    I2 = Ideal([parse("t1-t2"), parse("t1^2+t2^2-1")])
    assert gb_strs(I1) == gb_strs(I2)


def test_normal_form_basics():
    I = groebner_basis(Ideal([parse("t1")]))
    order = I.default_order()
    assert normal_form(parse("t1^2"), I.gens, order).is_zero()
    assert normal_form(parse("t1 + 1"), I.gens, order) == 1


def test_normal_form_contraction_obstruction():
    order = MonomialOrder.block([tvar(1), evar(1), evar(2)], [xvar(1), xvar(2)])
    I = Ideal([parse("x1 - t1 - e1"), parse("x2 - t1 - e2"),
               parse("e1^2"), parse("e2^2")])
    gb = groebner_basis(I, order)
    assert not normal_form(parse("(x1-x2)^2"), gb.gens, order).is_zero()
    assert normal_form(parse("(x1-x2)^3"), gb.gens, order).is_zero()


def test_eliminate_examples():
    E = eliminate(Ideal([parse("t1-t2"), parse("t2^2-2")]), [tvar(2)])
    assert ideal_equal(E, Ideal([parse("t1^2-2")]))
    E2 = eliminate(Ideal([parse("t1^2+t2^2-1")]), [tvar(2)])
    assert E2.gens == ()
    I = Ideal([parse("t1*t2")])
    assert eliminate(I, []) is I
    for g in eliminate(Ideal([parse("t1*t2-t2"), parse("t2^2-1")]), [tvar(2)]).gens:
        assert tvar(2) not in g.variables()


def test_saturate_examples():
    assert ideal_equal(saturate(Ideal([parse("t1*t2")]), parse("t2")),
                       Ideal([parse("t1")]))
    I = Ideal([parse("t1")], ambient=(tvar(1), tvar(2)))
    assert ideal_equal(saturate(I, parse("t2")), Ideal([parse("t1")]))
    circ = Ideal([parse("t1^2+t2^2-1")])
    assert ideal_equal(saturate(circ, parse("t1-t2")), circ)


def test_saturate_contains_and_idempotent():
    I = Ideal([parse("t1^2*t2"), parse("t1*t2^2")])
    f = parse("t1")
    S = saturate(I, f)
    assert ideal_contains(S, I)
    assert ideal_equal(saturate(S, f), S)


def test_radical_member_examples():
    assert radical_member(parse("t1"), Ideal([parse("t1^2")]))
    assert not radical_member(parse("t1"), Ideal([parse("t2")], ambient=(tvar(1), tvar(2))))
    assert radical_member(parse("t1+t2"), Ideal([parse("t1^2+2*t1*t2+t2^2")]))
    # plain membership implies radical membership
    I = Ideal([parse("t1^2 - t2")])
    f = parse("(t1^2 - t2)*(t1+3)")
    assert normal_form(f, groebner_basis(I).gens, I.default_order()).is_zero()
    assert radical_member(f, I)
    # zero ideal of the unit ideal edge cases
    assert radical_member(Poly.zero(), Ideal([parse("t1")]))
    assert radical_member(parse("t1-5"), Ideal([parse("1")]))


@pytest.mark.parametrize("gens", [["t1+t2"], ["t1-1", "t2+1"], ["t1*t2"], []])
def test_radical_member_on_squarefree_heads_runs_no_buchberger(gens, buchberger_calls):
    # a line, a point, two lines and the zero ideal: their reduced bases
    # have squarefree leading monomials, so the ideals are radical and a
    # non-member of I is a non-member of its radical
    I = Ideal([parse(g) for g in gens], ambient=(tvar(1), tvar(2)))
    groebner_basis(I)
    buchberger_calls.clear()
    assert not radical_member(parse("t1"), I)
    assert not radical_member(parse("t1 + t3"), I)
    assert buchberger_calls == []


def test_radical_member_off_squarefree_heads_runs_one_buchberger(buchberger_calls):
    I = Ideal([parse("t1^2")])
    groebner_basis(I)
    buchberger_calls.clear()
    assert radical_member(parse("t1"), I)
    assert len(buchberger_calls) == 1


def test_radical_member_divides_once_on_a_squarefree_basis(monkeypatch):
    # the cached entry of the reduced basis says whether its leading
    # monomials are squarefree, so a non-member is decided by one lookup
    # of the basis and one division
    from symprime import groebner
    I = Ideal([parse("t1 + t2 - 1"), parse("t2*t3 - 2")])
    assert gb_strs(I) == ["t1 + t2 - 1", "t2*t3 - 2"]
    calls = []

    def counted(name):
        real = getattr(groebner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper
    for name in ("groebner_basis", "_divide"):
        monkeypatch.setattr(groebner, name, counted(name))
    for _ in range(2):
        calls.clear()
        assert not radical_member(parse("t1 - t2"), I)
        assert calls == ["groebner_basis", "_divide"]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("kind", ["lex", "grevlex", "block"])
def test_one_generator_basis_is_the_monic_generator(field, kind, leading_calls):
    amb = (tvar(1), tvar(2), tvar(3))
    order = {"lex": MonomialOrder.lex(amb), "grevlex": MonomialOrder.grevlex(amb),
             "block": MonomialOrder.block([tvar(3)], [tvar(1), tvar(2)])}[kind]
    # t1^2*t2 leads in lex and grevlex, t3^3 in the block order; both
    # leading coefficients are negative fractions over QQ
    g = parse("-3/2*t1^2*t2 - 2/5*t3^3 + 4/3*t2*t3 + 1", field)
    lc = g.leading(order)[1]
    assert field is not QQ or lc < 0
    monic = g * field.inv(lc)
    leading_calls.clear()
    gb = groebner_basis(Ideal([g]), order)
    assert gb.gens == (monic,)
    assert str(gb.gens[0]) == str(monic)
    assert leading_calls == []


def test_ideal_intersect_examples():
    amb = (tvar(1), tvar(2))
    J = ideal_intersect(Ideal([parse("t1")], ambient=amb),
                        Ideal([parse("t2")], ambient=amb))
    assert ideal_equal(J, Ideal([parse("t1*t2")]))
    I = Ideal([parse("t1^2+t2^2-1")])
    assert ideal_equal(ideal_intersect(I, Ideal([parse("1")], ambient=amb)), I)
    assert ideal_equal(ideal_intersect(I, I), I)


def test_auxiliary_variable_is_fresh_to_a_z_already_present():
    # each construction must pick z2, not the z1 its inputs already use
    t1, z1 = Poly.variable(tvar(1)), Poly.variable(zvar(1))
    assert not radical_member(t1 + 2, Ideal([t1 ** 2, z1 - 1]))
    assert saturate(Ideal([z1 - t1]), t1).gens == (t1 - z1,)
    assert ideal_intersect(Ideal([z1]), Ideal([t1])).gens == (t1 * z1,)


def _parts(I):
    return I.gens, I.ambient, I.field


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_auxiliary_ideals_are_the_ideals_init_builds(field, monkeypatch):
    # _rabinowitsch and ideal_intersect skip Ideal.__init__'s scan of the
    # generators they already know; f may bring variables of its own
    z1, z3 = Poly.variable(zvar(1), field), Poly.variable(zvar(3), field)
    I = Ideal([parse("t1^2", field) + z1, parse("t2*t3 - 1", field)], field=field)
    J = Ideal([parse(s, field) for s in ("x2*t1", "e1 + t4")], field=field)
    one = Poly.const(1, field)
    for f in [parse(s, field) for s in ("0", "3", "t1 - t2", "x1*e2 + t3")] + [
            parse("t1", field) * z3 - parse("x2", field)]:
        aux, z = groebner._rabinowitsch(I, f)
        want = Ideal(I.gens + (one - Poly.variable(z, field) * f,),
                     ambient=I.ambient + (z,), field=field)
        assert _parts(aux) == _parts(want), str(f)
    seen = []
    monkeypatch.setattr(groebner, "eliminate", lambda K, drop, budget: seen.append(K))
    for a, b in ((I, J), (J, I), (I, Ideal([], field=field))):
        seen.clear()
        ideal_intersect(a, b)
        zp = Poly.variable(groebner._fresh_z(a, b), field)
        want = Ideal([zp * g for g in a.gens] + [(one - zp) * h for h in b.gens],
                     ambient=a.ambient + b.ambient + (zp.variables().pop(),), field=field)
        assert [_parts(K) for K in seen] == [_parts(want)]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_ideal_intersect_finishes_on_a_degree_two_partner(field):
    # _random_ideal(random.Random(919)) and its ngens=2 partner; under
    # normal selection this intersection ran for minutes within the budget
    amb = (tvar(1), tvar(2), tvar(3))
    I = Ideal([parse(s, field) for s in (
        "2*t1*t2 + t2 + 1", "-3*t2^2*t3^2 - 2*t1^2*t3",
        "-3*t1^2*t3 - 2*t1*t2*t3 - 2*t1^2")], ambient=amb, field=field)
    J = Ideal([parse(s, field) for s in (
        "-2*t2^2*t3 - 2*t1*t3^2 + t1*t2", "-3*t1^2*t2*t3 + 2*t1")],
        ambient=amb, field=field)
    K = ideal_intersect(I, J)
    assert ideal_equal(K, ideal_intersect(J, I))
    assert ideal_contains(I, K) and ideal_contains(J, K)


def test_ideal_contains_reuses_the_basis_cache(buchberger_calls):
    calls = buchberger_calls
    circle = Ideal([parse("t1^2+t2^2-1")])
    J = Ideal([parse("(t1^2+t2^2-1)*t1")])
    for _ in range(3):
        assert ideal_contains(circle, J)
    assert len(calls) == 1
    # a J outside I's ambient reuses I's basis: only the new I(t1) runs
    assert not ideal_contains(circle, Ideal([parse("t3")]))
    assert ideal_contains(Ideal([parse("t1")]), Ideal([parse("t1*t3")]))
    assert len(calls) == 2


def test_ideal_member_reuses_the_default_order(monkeypatch):
    # an ideal builds its default order once, and a member test whose
    # polynomial stays in the ambient reuses it
    circle = Ideal([parse("t1^2+t2^2-1")])
    f = parse("(t1^2+t2^2-1)*t1")
    assert ideal_member(f, circle)
    built = []
    init = MonomialOrder.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(MonomialOrder, "__init__", counting)
    for _ in range(3):
        assert ideal_member(f, circle)
        assert not ideal_member(parse("t1"), circle)
    assert built == []
    # a polynomial outside the ambient needs the wider order: orders are
    # shared process-wide, so from an empty order cache it is built once
    _order.cache_clear()
    for _ in range(3):
        assert not ideal_member(parse("t3"), circle)
    assert len(built) == 1


def test_budget_exceeded():
    I = Ideal([parse("t1^2+t2^2-1"), parse("t1*t2 - 3")])
    with pytest.raises(BudgetExceededError):
        groebner_basis(I, budget=Budget(max_reductions=1, max_degree=120))
    with pytest.raises(BudgetExceededError):
        groebner_basis(Ideal([parse("t1^9 - t2"), parse("t2^9 - t1^3 - 1")]),
                       MonomialOrder.lex([tvar(1), tvar(2)]),
                       budget=Budget(max_reductions=2_000_000, max_degree=8))


def test_division_refuses_mixed_fields():
    # arithmetic and Ideal refuse to mix fields, and so does every division
    I = Ideal([parse("t1 - 2", GF(7))])
    gb = groebner_basis(I)
    f = parse("1/7*t1 - 2/7")  # over QQ; it would reduce to zero mod 7
    for call in (lambda: ideal_member(f, I), lambda: radical_member(f, I),
                 lambda: normal_form(parse("t1^2"), gb.gens, I.default_order())):
        with pytest.raises(ValueError, match="mixed coefficient fields"):
            call()


def _small_int(rng):
    return rng.randint(-3, 3)


def _fraction(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 50))


def _random_ideal(rng, nvars=3, ngens=3, maxdeg=2, field=QQ, coeff=_small_int):
    gens = []
    for _ in range(rng.randint(1, ngens)):
        g = Poly.zero(field)
        for _ in range(rng.randint(1, 3)):
            term = Poly.const(coeff(rng), field)
            for i in range(1, nvars + 1):
                term = term * Poly.variable(tvar(i), field) ** rng.randint(0, maxdeg)
            g = g + term
        if not g.is_zero():
            gens.append(g)
    amb = tuple(tvar(i) for i in range(1, nvars + 1))
    return Ideal(gens, ambient=amb, field=field)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(50))
def test_cached_result_basis_matches_a_fresh_one(seed, field):
    # eliminate, saturate and ideal_intersect hand back their own basis;
    # it must be the one Buchberger computes from the bare generators
    rng = random.Random(900 + seed)
    I = _random_ideal(rng, field=field)
    J = _random_ideal(rng, ngens=2, maxdeg=1, field=field)
    results = [eliminate(I, [tvar(3)]), eliminate(I, [tvar(1), tvar(3)]),
               ideal_intersect(I, J)]
    results += [saturate(I, f) for f in _random_ideal(rng, ngens=1, field=field).gens]
    for R in results:
        fresh = groebner_basis(Ideal(R.gens, ambient=R.ambient, field=R.field))
        assert groebner_basis(R).gens == fresh.gens
        assert str(groebner_basis(R)) == str(fresh)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(40))
def test_elimination_is_the_drop_free_part_of_the_block_basis(seed, field):
    # eliminate builds only the basis elements it returns; they must be the
    # drop-free elements of the whole block-order basis, in the same order
    rng = random.Random(3500 + seed)
    I = _random_ideal(rng, field=field)
    J = _random_ideal(rng, ngens=2, maxdeg=1, field=field)
    z = Poly.variable(zvar(1), field)
    one = Poly.const(1, field)
    pairs = [(eliminate(I, [tvar(3)]), reference_eliminate(I, [tvar(3)])),
             (eliminate(I, [tvar(1), tvar(3)]), reference_eliminate(I, [tvar(1), tvar(3)])),
             (ideal_intersect(I, J),
              reference_eliminate(Ideal([z * g for g in I.gens] + [(one - z) * h for h in J.gens],
                                        ambient=I.ambient + (zvar(1),), field=field),
                                  [zvar(1)]))]
    for f in _random_ideal(rng, ngens=1, field=field).gens:
        if not f.is_constant():
            rabinowitsch = Ideal(I.gens + (one - z * f,), ambient=I.ambient + (zvar(1),),
                                 field=field)
            pairs.append((saturate(I, f), reference_eliminate(rabinowitsch, [zvar(1)])))
    for got, want in pairs:
        assert got.gens == want.gens and got.ambient == want.ambient
        assert str(got) == str(want)


def test_eliminate_unpacks_no_monomial_holding_a_dropped_variable(monkeypatch):
    # the block basis of each ideal holds elements with the dropped
    # variables (t2 - t1, x1 - t1 - e1, ...); none of them is unpacked
    cases = [(Ideal([parse("t1^2+t2^2-1"), parse("t1-t2")]), [tvar(2)]),
             (Ideal([parse("x1 - t1 - e1"), parse("x2 - t1 - e2"), parse("e1^2"),
                     parse("e2^2")]), [tvar(1), evar(1), evar(2)])]
    rng = random.Random(35)
    for _ in range(10):
        I = _random_ideal(rng, field=GF(32003))
        cases.append((I, [tvar(1)]))
    unpacked = []
    real = PackedLayout.unpack

    def recorded(self, p):
        mono = real(self, p)
        unpacked.append(mono)
        return mono
    monkeypatch.setattr(PackedLayout, "unpack", recorded)
    for I, drop in cases:
        del unpacked[:]
        E = eliminate(I, drop)
        assert not any(v in drop for mono in unpacked for v, _ in mono)
        assert len(unpacked) == sum(len(g.terms) for g in E.gens)


def test_eliminate_caches_per_dropped_tuple(buchberger_calls):
    I = Ideal([parse("t1^2+t2^2+t3-1"), parse("t1*t2-t3")])
    first = eliminate(I, [tvar(3), tvar(2)])
    assert eliminate(I, (tvar(2), tvar(3))) is first
    assert eliminate(I, [tvar(3)]) is not first
    assert len(buchberger_calls) == 2
    # the block-order basis is not left in the per-order cache
    assert not I._gb


@pytest.mark.parametrize("seed", range(100))
def test_spolys_reduce_to_zero(seed):
    rng = random.Random(seed)
    I = _random_ideal(rng)
    order = I.default_order()
    gb = groebner_basis(I, order)
    for g in I.gens:
        assert normal_form(g, gb.gens, order).is_zero()
    gens = gb.gens
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = reference_spoly(gens[i], gens[j], order)
            assert normal_form(s, gens, order).is_zero()


def test_the_kernel_does_no_rational_field_arithmetic(monkeypatch):
    # over QQ the kernel runs on primitive integer heads: no QQ.add, QQ.mul
    # or QQ.inv, and Fractions only on the way out
    rng = random.Random(77)
    ideals = [_random_ideal(rng, coeff=_fraction) for _ in range(8)]
    ideals.append(Ideal([parse("2/3*t1^2 - 5/7*t2")]))  # the one-generator path
    members = [I.gens[0] * _random_poly(rng, QQ) for I in ideals]
    calls = []

    def counted(name):
        real = getattr(Rationals, name)

        def wrapper(self, *args):
            calls.append(name)
            return real(self, *args)
        return wrapper
    for name in ("add", "mul", "inv"):
        monkeypatch.setattr(Rationals, name, counted(name))
    for I, f in zip(ideals, members):
        lex = MonomialOrder.lex(I.ambient)
        for order in (I.default_order(), lex):
            gb = groebner_basis(I, order)
            assert all(g.leading(order)[1] == 1 for g in gb.gens)
        assert ideal_member(f, I)
    assert calls == []


def test_budgets_fire_where_they_did_over_fractions():
    # the first max_reductions and max_degree values of each run of equal
    # outcomes, pinned from the field-arithmetic kernel: steps still count
    # one per popped leading term and pairs one per S-polynomial
    def ideal():
        return Ideal([parse("t1^2 + 2/3*t2*t3 - 1"), parse("t1*t2 - 5/7*t3^2"),
                      parse("t2^2 - 3/4*t1")])

    def runs(fn, values):
        out = []
        for k in values:
            got = _outcome(fn, k)
            got = "ok" if isinstance(got, (Ideal, bool)) else got
            if not out or out[-1][1] != got:
                out.append((k, got))
        return out

    pair = "BudgetExceededError: pair reduction budget exhausted"
    step = "BudgetExceededError: division step budget exhausted"

    def degree(d):
        return "BudgetExceededError: degree %d exceeds budget" % d
    amb = (tvar(1), tvar(2), tvar(3))
    grevlex, lex = MonomialOrder.grevlex(amb), MonomialOrder.lex(amb)
    assert runs(lambda k: groebner_basis(ideal(), grevlex, Budget(max_reductions=k)),
                range(12)) == [(0, pair), (1, step), (4, pair), (8, "ok")]
    assert runs(lambda k: groebner_basis(ideal(), lex, Budget(max_reductions=k)),
                range(12)) == [(0, pair), (1, step), (4, pair), (7, step), (9, "ok")]
    assert runs(lambda d: groebner_basis(ideal(), grevlex, Budget(max_degree=d)),
                range(14)) == [(0, degree(3)), (3, degree(4)), (4, "ok")]
    assert runs(lambda d: groebner_basis(ideal(), lex, Budget(max_degree=d)),
                range(14)) == [(0, degree(3)), (3, degree(4)), (4, degree(5)),
                               (5, degree(6)), (6, degree(7)), (7, degree(8)),
                               (8, degree(12)), (12, "ok")]
    I = ideal()
    groebner_basis(I)
    f = parse("(t1^3 - 2/9*t2)*(t1^2 + 2/3*t2*t3 - 1) + 1/5*t3^4")
    assert runs(lambda k: ideal_member(f, I, Budget(max_reductions=k)),
                range(12)) == [(0, step), (7, "ok")]
    assert runs(lambda d: ideal_member(f, I, Budget(max_degree=d)),
                range(8)) == [(0, degree(5)), (5, "ok")]


@pytest.mark.parametrize("text, degree", [("t1^121", 121), ("t1^1000*t3 + 1", 1001),
                                          ("2/3*t2^5000 - t1", 5000)])
def test_membership_refuses_a_degree_above_the_budget(text, degree):
    # far past the width of the budget's layout too, and with a variable
    # outside I's ambient; the radical test asks the same division
    I = Ideal([parse("t1^2 - t2")])
    f = parse(text)
    for test in (ideal_member, radical_member):
        with pytest.raises(BudgetExceededError, match="^degree %d exceeds budget$" % degree):
            test(f, I)
    assert ideal_member(f * parse("t1^2 - t2"), I, Budget(max_degree=degree + 2))


def test_ideal_contains_packs_the_basis_once(monkeypatch):
    # a reduced basis keeps its packed heads per (order, degree bound), so
    # every generator of J reuses one packing of I's basis
    I = Ideal([parse("t1^2+t2^2-1"), parse("t1*t2 - 1/2")])
    J = Ideal([parse("(t1^2+t2^2-1)*t1"), parse("(2*t1*t2 - 1)*t2^3"),
               parse("(t1^2+t2^2-1)*(t1-t2)^2 + (2*t1*t2-1)*t1")])
    gb = groebner_basis(I)
    packed = []
    pack = PackedLayout.pack

    def counting(self, terms):
        packed.append(terms)
        return pack(self, terms)
    monkeypatch.setattr(PackedLayout, "pack", counting)
    for _ in range(3):
        assert ideal_contains(I, J)
    assert [id(t) for t in packed] == ([id(g.terms) for g in gb.gens]
                                       + [id(g.terms) for g in J.gens] * 3)
    # a wider order, or a degree bound the basis is not packed for, packs
    # it again, once
    packed.clear()
    for _ in range(2):
        assert not ideal_member(parse("t3"), I)
        assert ideal_member(J.gens[0], I, Budget(max_degree=200))
    assert len(packed) == 2 * len(gb.gens) + 4


def test_packed_basis_picks_its_order_from_the_variables():
    # variables inside I's ambient share the entry of I's default order; a
    # wider set packs in grevlex over the union, which restricts to it, so
    # a polynomial in a new variable is still divided by I's basis
    I = Ideal([parse("t1^2 - t2")])
    entry = packed_basis(I)
    assert packed_basis(I, [tvar(1)]) is entry
    assert packed_basis(I, I.ambient) is entry
    basis = packed_basis(I, [xvar(1), tvar(2)])
    assert basis is not entry and packed_basis(I, {xvar(1)}) is basis
    layout, heads, squarefree = basis
    assert [layout.unpack(lm) for lm, _, _ in heads] == [((tvar(1), 2),)]
    assert not squarefree
    wide = MonomialOrder.grevlex([xvar(1), tvar(1), tvar(2)])
    monos = [((xvar(1), 1),), ((tvar(1), 2),), ((tvar(1), 1), (tvar(2), 1)),
             ((xvar(1), 1), (tvar(2), 1)), ((xvar(1), 2),), ((tvar(2), 2),)]
    packed = {m: layout.pack({m: 1})[0][0][0] for m in monos}
    assert sorted(monos, key=packed.get) == sorted(monos, key=wide.key)
    for text, want in (("x1*(t1^2 - t2)", True), ("x1*t1", False)):
        terms = dict(layout.pack(parse(text).terms)[0])
        assert reduces_to_zero(terms, basis, 0, DEFAULT_BUDGET) is want
        assert ideal_member(parse(text), I) is want


def test_buchberger_reuses_the_heads_it_holds(leading_calls, monkeypatch):
    # the kernel packs each monomial once and orders the packed ints, so
    # neither leading terms nor order keys are computed on tuples
    key_calls = []
    real = MonomialOrder.key

    def counted(*args):
        key_calls.append(args)
        return real(*args)
    monkeypatch.setattr(MonomialOrder, "key", counted)
    contract_ideal(3, (3, 3, 3))
    assert len(leading_calls) == 0
    assert len(key_calls) == 0


def oracle_normal_form(f, basis, order, budget=None):
    """Division as it was written before it ran in place: rescan the
    leading term and rebuild the working polynomial at every step."""
    basis = [g for g in basis if not g.is_zero()]
    if f.is_zero() or not basis:
        return f
    budget = budget or DEFAULT_BUDGET
    field = f.field
    heads = [g.leading(order) + (g,) for g in basis]
    remainder = Poly.zero(field)
    work = f
    steps = 0
    while not work.is_zero():
        lm, lc = work.leading(order)
        if mono_degree(lm) > budget.max_degree:
            raise BudgetExceededError("degree %d exceeds budget" % mono_degree(lm))
        steps += 1
        if steps > budget.max_reductions:
            raise BudgetExceededError("division step budget exhausted")
        for hm, hc, g in heads:
            if mono_divides(hm, lm):
                c = field.mul(lc, field.inv(hc))
                work = work - g * Poly(field, {mono_div(lm, hm): c})
                break
        else:
            remainder = remainder + Poly(field, {lm: lc})
            work = work - Poly(field, {lm: lc})
    return remainder


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError as exc:
        return "BudgetExceededError: %s" % exc


def _random_poly(rng, field, maxdeg=2, coeff=_small_int):
    while True:
        gens = _random_ideal(rng, ngens=1, maxdeg=maxdeg, field=field, coeff=coeff).gens
        if gens:
            return gens[0]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("seed", range(30))
def test_normal_form_matches_the_rebuilding_oracle(seed, field):
    rng = random.Random(1300 + seed)
    amb = (tvar(1), tvar(2), tvar(3))
    order = [MonomialOrder.grevlex(amb), MonomialOrder.lex(amb),
             MonomialOrder.block(amb[:1], amb[1:])][seed % 3]
    basis = groebner_basis(_random_ideal(rng, field=field), order).gens
    budgets = ([Budget(max_reductions=k) for k in (1, 2, 3, 5, 8)]
               + [Budget(max_degree=d) for d in (2, 3, 4, 5)])
    for _ in range(4):
        f = (_random_poly(rng, field) * _random_poly(rng, field)
             + _random_poly(rng, field, maxdeg=3))
        want = oracle_normal_form(f, basis, order)
        got = normal_form(f, basis, order)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        assert str(got) == str(want)
        for budget in budgets:
            assert (_outcome(normal_form, f, basis, order, budget)
                    == _outcome(oracle_normal_form, f, basis, order, budget))


@pytest.mark.parametrize("seed", range(30))
def test_normal_form_matches_the_oracle_on_fractions(seed):
    # the kernel divides fraction-free, so the remainder comes back through
    # the denominator of f and the scale of the division: it must be the
    # field remainder exactly, term order and int-or-Fraction type included
    rng = random.Random(1700 + seed)
    amb = (tvar(1), tvar(2), tvar(3))
    order = [MonomialOrder.grevlex(amb), MonomialOrder.lex(amb),
             MonomialOrder.block(amb[:1], amb[1:])][seed % 3]
    I = _random_ideal(rng, coeff=_fraction)
    # the generators themselves are a basis with fractional, non-unit heads
    for basis in (groebner_basis(I, order).gens, I.gens):
        for _ in range(3):
            f = (_random_poly(rng, QQ, coeff=_fraction) * _random_poly(rng, QQ)
                 + _random_poly(rng, QQ, maxdeg=3, coeff=_fraction))
            want = oracle_normal_form(f, basis, order)
            got = normal_form(f, basis, order)
            assert ([(m, c, type(c)) for m, c in got.terms.items()]
                    == [(m, c, type(c)) for m, c in want.terms.items()])
            for budget in (Budget(max_reductions=3), Budget(max_degree=3)):
                assert (_outcome(normal_form, f, basis, order, budget)
                        == _outcome(oracle_normal_form, f, basis, order, budget))


@pytest.mark.parametrize("seed", range(20))
def test_radical_member_extends_plain_member(seed):
    rng = random.Random(500 + seed)
    I = _random_ideal(rng, nvars=2, ngens=2)
    gb = groebner_basis(I)
    order = gb.default_order()
    f = _random_ideal(rng, nvars=2, ngens=1).gens[0]
    g = f * I.gens[0]  # a plain member
    assert normal_form(g, gb.gens, order).is_zero()
    assert radical_member(g, I)


def test_unit_ideal_detection():
    assert is_unit_ideal(Ideal([parse("3")]))
    assert is_unit_ideal(Ideal([parse("t1"), parse("t1-1")]))
    assert not is_unit_ideal(Ideal([parse("t1")]))
    assert not is_unit_ideal(Ideal([], ambient=(tvar(1),)))
