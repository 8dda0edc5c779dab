import random

import pytest

from symprime import INF, contains, make_sprime, parse


def sp(parts, weights, gens_text=()):
    return make_sprime(parts, weights, [parse(s) for s in gens_text])


@pytest.fixture(scope="session")
def prime_pool():
    """Small stable primes reused across property suites (keys are ad hoc)."""
    return {
        "allzero1": sp([INF], [1], ["t1"]),
        "allzero2": sp([INF], [2], ["t1"]),
        "allzero3": sp([INF], [3], ["t1"]),
        "diag1": sp([INF], [1]),
        "diag2": sp([INF], [2]),
        "free11": sp([INF, INF], [1, 1]),
        "free22": sp([INF, INF], [2, 2]),
        "line0": sp([INF, INF], [1, 1], ["t1+t2"]),
        "line1": sp([INF, INF], [1, 1], ["t1+t2-1"]),
        "circle11": sp([INF, INF], [1, 1], ["t1^2+t2^2-1"]),
        "circle22": sp([INF, INF], [2, 2], ["t1^2+t2^2-1"]),
        "point": sp([INF, INF], [1, 1], ["t1-1", "t2+1"]),
        "fin11": sp([INF, 1], [1, 1]),
        "mixed21": sp([INF, INF], [2, 1]),
    }


@pytest.fixture(scope="session")
def contains_memo():
    memo = {}

    def check(p, q):
        key = (p, q)
        if key not in memo:
            memo[key] = contains(p, q).contains
        return memo[key]

    return check


@pytest.fixture()
def buchberger_calls(monkeypatch):
    """List that records the arguments of every `groebner._buchberger` call."""
    from symprime import groebner
    calls = []
    real = groebner._buchberger

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(groebner, "_buchberger", counted)
    return calls


@pytest.fixture()
def leading_calls(monkeypatch):
    """List that records the arguments of every `Poly.leading` call."""
    from symprime.poly import Poly
    calls = []
    real = Poly.leading

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(Poly, "leading", counted)
    return calls


@pytest.fixture()
def rng():
    return random.Random(20240817)
