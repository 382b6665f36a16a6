"""Shared generators for randomized tests. Everything is seeded."""

import os
import random
import sys
from fractions import Fraction

import pytest

import seqalloc
from seqalloc.model import UtilityFunction, validate_instance
from seqalloc.reduction import RestrictedFormula, validate_formula


def package_env() -> dict[str, str]:
    """The environment for a subprocess that must import this same package."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(seqalloc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def default_digit_limit():
    """CPython's default limit of 4,300 digits on ``int``-``str`` conversion,
    restored afterwards; the test is skipped where there is no limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def encoded_view(enc) -> tuple:
    """Everything an ``Encoded`` holds, so that two encodings compare."""
    return enc.item_index, enc.agent_index, enc.prefs, enc.seq, enc.m


def take(state, item: int) -> None:
    """The agent of a ``PickState``'s current stage takes ``item``, which must
    be free."""
    state.taken[item] = 1
    state.stage += 1


def random_instance(rng: random.Random, n: int, m: int, L: int | None = None):
    items = [f"o{k}" for k in range(m)]
    agents = [str(i + 1) for i in range(n)]
    prefs = {a: rng.sample(items, m) for a in agents}
    if L is None:
        L = rng.randint(1, m)
    seq = [rng.choice(agents) for _ in range(L)]
    return validate_instance(items, agents, prefs, seq)


def random_consistent_utilities(rng: random.Random, inst, agent: str) -> UtilityFunction:
    """Strictly decreasing positive utilities along the agent's preference."""
    vals = {}
    v = Fraction(0)
    for o in reversed(inst.preferences[agent]):
        v += Fraction(rng.randint(1, 50))
        vals[o] = v
    return UtilityFunction({agent: vals})


def random_restricted_formula(rng: random.Random, num_vars: int) -> RestrictedFormula:
    """Random 3-CNF with every literal in exactly two clauses.

    num_vars must be a multiple of 3 (4 literal slots per variable, 3 per
    clause). Retries until every clause has three distinct variables.
    """
    assert num_vars % 3 == 0
    while True:
        tokens = [s * v for v in range(1, num_vars + 1) for s in (1, -1) for _ in range(2)]
        rng.shuffle(tokens)
        clauses = [tuple(tokens[i : i + 3]) for i in range(0, len(tokens), 3)]
        if all(len({abs(l) for l in c}) == 3 for c in clauses):
            return validate_formula(num_vars, clauses)
