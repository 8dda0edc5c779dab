"""Computable calculus for symmetric-group-stable prime ideals of the
infinite-variable polynomial ring: containment decisions, membership tests,
witness polynomials, finite generating sets, contraction checks, and
antichain arithmetic on radical stable ideals."""

__version__ = "0.1.0"

from .poly import GF, InputError, ParseError, Poly, QQ, discriminant, parse
from .groebner import (Budget, BudgetExceededError, Ideal, MonomialOrder, eliminate,
                       groebner_basis, ideal_equal, ideal_intersect, ideal_member,
                       normal_form, radical_member, saturate)
from .combinat import (INF, GoodPair, WeightedShape, canonicalize, good_pairs, psi0,
                       refinement_pairs, shape, shape_leq)
from .sprime import SPrimeData, make_sprime, member, member_via_derivatives, radical_of
from .theta import Containment, ThetaResult, contains, equal, theta, theta_pair
from .witness import NoWitnessError, WitnessLayout, build_h, certify, compatible_partitions
from .generators import full_gens, gens_G, gens_H, verify_gens
from .contractlab import contract_ideal, predicted_ideal, verify_contract
from .spectrum import (RadicalSIdeal, contains_radical, d3_stabilize,
                       intersect_radical, make_radical, theta_slice)
