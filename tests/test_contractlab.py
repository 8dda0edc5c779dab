"""Contraction checks in characteristic zero and two."""

import random

import pytest

from symprime.contractlab import (contract_ideal, derivative_member,
                                  predicted_contained, predicted_ideal,
                                  verify_contract)
from symprime.groebner import Ideal, groebner_basis, ideal_equal, normal_form
from symprime.poly import GF, Poly, parse, xvar


def test_contract_ideal_examples():
    assert ideal_equal(contract_ideal(2, (1, 1), 0), Ideal([parse("x1-x2")]))
    assert ideal_equal(contract_ideal(2, (2, 2), 0), Ideal([parse("(x1-x2)^3")]))
    two = GF(2)
    assert ideal_equal(contract_ideal(2, (2, 2), 2),
                       Ideal([parse("(x1-x2)^2", field=two)]))


@pytest.mark.parametrize("n,q", [(2, (1, 1)), (2, (2, 2)), (3, (2, 2, 2)),
                                 (2, (1, 2)), (2, (3, 3)), (3, (1, 1, 2)),
                                 (4, (1, 1, 1, 2))])
def test_verify_contract_char0(n, q):
    ok, _ = verify_contract(n, q, 0)
    assert ok


@pytest.mark.parametrize("n,q", [(2, (2, 2)), (3, (2, 2, 2)), (2, (4, 4))])
def test_verify_contract_char2(n, q):
    ok, _ = verify_contract(n, q, 2)
    assert ok


def test_mixed_weights_prediction():
    ok, actual = verify_contract(2, (1, 2), 0)
    assert ok
    assert ideal_equal(actual, Ideal([parse("(x1-x2)^2")]))


def test_char_p_requires_uniform_power():
    with pytest.raises(ValueError):
        verify_contract(2, (2, 3), 2)
    with pytest.raises(ValueError):
        verify_contract(2, (3, 3), 2)


@pytest.mark.parametrize("n,q", [(2, (1, 1)), (2, (2, 2)), (2, (1, 3)),
                                 (3, (1, 2, 2)), (3, (2, 2, 2))])
def test_easy_direction_inclusion(n, q):
    assert predicted_contained(n, q, 0)


def test_verify_contract_reuses_the_elimination_basis(buchberger_calls):
    # the elimination and the prediction's grevlex basis, nothing more
    assert verify_contract(2, (2, 2))[0]
    assert len(buchberger_calls) == 2


def test_predicted_contained_reuses_the_elimination_basis(buchberger_calls):
    assert predicted_contained(2, (2, 2))
    assert len(buchberger_calls) == 1


def test_derivative_criterion_known_cases():
    assert derivative_member(parse("(x1-x2)^3"), (2, 2))
    assert not derivative_member(parse("(x1-x2)^2"), (2, 2))
    assert derivative_member(parse("(x1-x2)^5"), (3, 3))
    assert not derivative_member(parse("(x1-x2)^4"), (3, 3))
    assert derivative_member(parse("(x1-x2)^2"), (1, 2))


def _random_combo(rng, gens, nvars):
    out = Poly.zero()
    for g in gens:
        mult = Poly.const(rng.randint(-2, 2))
        for i in range(1, nvars + 1):
            mult = mult * Poly.variable(xvar(i)) ** rng.randint(0, 1)
        out = out + mult * g
    return out


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n,q", [(2, (2, 2)), (3, (2, 1, 2))])
def test_derivative_criterion_matches_elimination(seed, n, q):
    rng = random.Random(seed * 7 + n)
    actual = contract_ideal(n, q, 0)
    gb = groebner_basis(actual)
    order = gb.default_order()
    # members stay members
    f = _random_combo(rng, actual.gens, n)
    assert derivative_member(f, q) == normal_form(f, gb.gens, order).is_zero()
    # perturbed by a non-member
    g = f + parse("x1")
    assert derivative_member(g, q) == normal_form(g, gb.gens, order).is_zero()


def test_difference_powers_not_reduced_basis_in_standard_orders():
    # At n=3 the difference cubes are not the reduced basis for grevlex or
    # lex: the reduced grevlex basis adjoins the discriminant.  Pinned so a
    # future "already a basis" shortcut cannot sneak in unverified.
    from symprime.poly import discriminant
    pred = predicted_ideal(3, (2, 2, 2), 0)
    gb = groebner_basis(pred)
    assert set(gb.gens) != set(pred.gens)
    assert discriminant([1, 2, 3]) in gb.gens
    from symprime.groebner import MonomialOrder
    lex = MonomialOrder.lex([xvar(1), xvar(2), xvar(3)])
    assert set(groebner_basis(pred, lex).gens) != set(pred.gens)
