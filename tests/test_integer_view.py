"""The integer rows of utilities against the ``Fraction`` arithmetic they replaced.

Each reference below computes straight from ``UtilityFunction.values``, in
``Fraction``s, with no integer row: the conversion every reader made before
the rows existed. Rows mix integer (``7``), decimal (``3.1``) and rational
(``7/3``) literals.
"""

import random
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest

from seqalloc import model
from seqalloc.engine import run_sequential_allocation
from seqalloc.instance_io import parse_instance, serialize_instance
from seqalloc.model import (
    UtilityFunction,
    ValidationError,
    bundle_utility,
    integer_values,
    order_from_utilities,
    validate_utilities,
)
from seqalloc.oracle import brute_force_best_response, enumerate_achievable_bundles
from seqalloc.two_agent import (
    best_response,
    lexicographic_best_response,
    verify_nash_two_agents,
)

from conftest import random_instance


def _literal(rng: random.Random) -> str:
    """A positive utility literal: integer, decimal or rational."""
    kind = rng.randrange(3)
    if kind == 0:
        return str(rng.randint(1, 30))
    if kind == 1:
        return f"{rng.randint(0, 30)}.{rng.randint(1, 9)}"
    return f"{rng.randint(1, 60)}/{rng.randint(1, 12)}"


def _consistent_row(rng: random.Random, m: int) -> list[str]:
    """m literals whose values fall strictly, best item first."""
    by_value = {}
    while len(by_value) < m:
        literal = _literal(rng)
        by_value.setdefault(Fraction(literal), literal)
    return [by_value[v] for v in sorted(by_value, reverse=True)]


def _parsed(rng: random.Random, n: int, m: int):
    """A random instance with consistent mixed-literal rows, through the parser."""
    inst = random_instance(rng, n, m, L=rng.randint(1, m))
    text = serialize_instance(inst)
    text += "".join(f"util {a} : {' '.join(_consistent_row(rng, m))}\n" for a in inst.agents)
    return parse_instance(text)


def _any_row(rng: random.Random, items) -> dict:
    """Mixed literals in any order, with ties, zeros and negatives now and then."""
    row = {}
    for o in items:
        r = rng.random()
        row[o] = Fraction(_literal(rng)) if r < 0.85 else Fraction(rng.choice([0, -1, 1]))
    if len(items) > 1 and rng.random() < 0.3:
        a, b = rng.sample(list(items), 2)
        row[a] = row[b]
    return row


# --- references, straight from the Fractions ------------------------------


def _ref_integer_values(u, agent, items):
    vals = u.values[agent]
    scale = lcm(*(vals[o].denominator for o in items))
    return [vals[o].numerator * (scale // vals[o].denominator) for o in items], scale


def _ref_bundle_utility(u, agent, bundle):
    return sum((u.values[agent][o] for o in bundle), Fraction(0))


def _ref_order(u, agent, items):
    vals = u.values[agent]
    ranked = sorted(items, key=lambda o: -vals[o])
    for a, b in zip(ranked, ranked[1:]):
        if vals[a] == vals[b]:
            return f"agent {agent} values {a} and {b} equally; induced order is not strict"
    return tuple(ranked)


def _ref_problems(u, inst):
    problems = []
    for agent, vals in u.values.items():
        if agent not in inst.agents:
            problems.append(f"utilities given for unknown agent {agent}")
            continue
        order = inst.preferences[agent]
        if set(vals) != set(inst.items):
            problems.append(f"utilities of agent {agent} do not cover the item set")
            continue
        problems += [f"non-positive utility for agent {agent}, item {o}"
                     for o in order if vals[o] <= 0]
        problems += [f"utilities of agent {agent} not strictly decreasing at {a} vs {b}"
                     for a, b in zip(order, order[1:]) if not vals[a] > vals[b]]
    return problems


def _ref_nash(inst, u):
    current = run_sequential_allocation(inst)
    for agent in inst.agents:
        deviation = inst.with_preference(agent, _ref_order(u, agent, inst.items))
        _, bundle = lexicographic_best_response(deviation, agent)
        if _ref_bundle_utility(u, agent, bundle) > _ref_bundle_utility(
            u, agent, current.bundles[agent]
        ):
            return False
    return True


def _problems(call):
    try:
        call()
    except ValidationError as exc:
        return exc.problems
    return []


# --- agreement ---------------------------------------------------------------


def test_parsed_utilities_agree_with_fraction_arithmetic():
    rng = random.Random(41)
    for _ in range(60):
        inst, u = _parsed(rng, n=2, m=rng.randint(1, 9))
        for agent in inst.agents:
            assert integer_values(u, agent, inst.items) == _ref_integer_values(u, agent, inst.items)
            assert order_from_utilities(u, agent, inst.items) == _ref_order(u, agent, inst.items)
            bundle = rng.sample(inst.items, rng.randint(0, len(inst.items)))
            total = bundle_utility(u, agent, bundle)
            assert total == _ref_bundle_utility(u, agent, bundle) and type(total) is Fraction
            assert all(type(v) is Fraction for v in u.values[agent].values())
            _, got, value = best_response(inst, u, agent)
            _, expected = lexicographic_best_response(inst, agent)
            assert got == expected and value == _ref_bundle_utility(u, agent, expected)
        assert verify_nash_two_agents(inst, u) == _ref_nash(inst, u)


def test_oracle_agrees_with_fraction_arithmetic():
    rng = random.Random(43)
    for _ in range(40):
        inst, u = _parsed(rng, n=rng.randint(2, 3), m=rng.randint(1, 7))
        agent = rng.choice(inst.agents)
        res = brute_force_best_response(inst, u, agent)
        worth = {b: _ref_bundle_utility(u, agent, b)
                 for b in enumerate_achievable_bundles(inst, agent)}
        best = max(worth.values())
        assert res.max_utility == best and type(res.max_utility) is Fraction
        assert set(res.optimal_bundles) == {b for b, w in worth.items() if w == best}


@pytest.mark.parametrize("construct", ["fraction_rows", "int_where_integral"])
def test_any_row_agrees_with_fraction_arithmetic(construct):
    """Rows that may tie, fall out of order, miss an item or be non-positive:
    the problem lists, tie errors and best-response errors are the reference's,
    whether the rows hold only ``Fraction``s or ``int`` where a value is
    integral."""
    rng = random.Random(47)
    seen = set()
    for _ in range(300):
        inst = random_instance(rng, n=2, m=rng.randint(1, 7))
        rows = {a: _any_row(rng, inst.items) for a in inst.agents}
        if rng.random() < 0.2:
            rows["1"].pop(rng.choice(inst.items))
        if construct == "fraction_rows":
            u = UtilityFunction(rows)
        else:
            u = UtilityFunction(
                {a: {o: int(v) if v.denominator == 1 else v for o, v in row.items()}
                 for a, row in rows.items()}
            )
        expected = _ref_problems(u, inst)
        assert _problems(lambda: validate_utilities(u, inst)) == expected
        seen.add(bool(expected))
        for agent in inst.agents:
            own = _ref_problems(UtilityFunction({agent: u.values[agent]}), inst)
            if len(u.values[agent]) < len(inst.items):
                own = [f"utilities of agent {agent} do not cover the item set"]
            assert _problems(lambda: best_response(inst, u, agent)) == own
            if len(u.values[agent]) == len(inst.items):
                expected_order = _ref_order(u, agent, inst.items)
                try:
                    got = order_from_utilities(u, agent, inst.items)
                except ValidationError as exc:
                    (got,) = exc.problems
                assert got == expected_order
    assert seen == {True, False}


# --- one conversion per agent -----------------------------------------------


def test_each_row_is_converted_once(monkeypatch):
    """Parse, two best responses and a Nash check convert each agent's row
    once in all: every later reader goes through the kept integer view."""
    calls = []
    convert = model._over_common_denominator

    def counted(row):
        calls.append(len(row))
        return convert(row)

    monkeypatch.setattr(model, "_over_common_denominator", counted)
    inst, u = _parsed(random.Random(53), n=2, m=12)
    for agent in inst.agents:
        best_response(inst, u, agent)
    verify_nash_two_agents(inst, u)
    assert calls == [12, 12]


def test_view_is_kept_out_of_equality_and_repr():
    """Rows from ``int`` and from ``Fraction`` literals of the same values
    are one row: equal, with equal ``repr``, at the row's common scale."""
    from_ints = UtilityFunction({"1": {"a": Fraction(7, 3), "b": 2}})
    from_fractions = UtilityFunction({"1": {"a": Fraction(7, 3), "b": Fraction(2)}})
    assert from_ints == from_fractions and repr(from_ints) == repr(from_fractions)
    assert from_ints.rows["1"] == ({"a": 7, "b": 6}, 3)
    assert from_ints.values == {"1": {"a": Fraction(7, 3), "b": Fraction(2)}}
    assert type(from_ints.of("1", "b")) is Fraction
    assert from_ints != UtilityFunction({"1": {"a": Fraction(7, 3), "b": 3}})


def test_constructing_validates_nothing():
    u = UtilityFunction({"1": {"a": Fraction(-1), "b": Fraction(-1)}})
    assert u.values["1"]["a"] == -1
    with pytest.raises(KeyError):
        u.rows["2"]


@pytest.mark.parametrize(
    "value", [0.5, 1.0, "2", None, Decimal("0.5")],
    ids=["float", "integral-float", "str", "None", "Decimal"],
)
def test_non_exact_value_is_a_type_error(value):
    """Only ``int`` and ``Fraction`` values construct: a float never reaches
    ``of()`` or a bundle's sum."""
    with pytest.raises(TypeError, match="agent 2 for item b"):
        UtilityFunction({"1": {"a": 1}, "2": {"a": Fraction(3, 2), "b": value}})


def test_utilities_cannot_drift():
    """Changing the dicts handed in, or the dicts ``values`` hands out, leaves
    ``of()``, ``values``, ``bundle_utility`` and ``integer_values`` agreeing
    with the rows as constructed."""
    rows = {"1": {"a": 3, "b": Fraction(1, 2)}, "2": {"a": 1, "b": 2}}
    u = UtilityFunction(rows)
    original = {"1": {"a": Fraction(3), "b": Fraction(1, 2)}, "2": {"a": Fraction(1), "b": Fraction(2)}}
    rows["1"]["a"] = 100
    rows["2"] = {"a": 5}
    rows["3"] = {"a": 1}
    handed_out = u.values
    handed_out["1"]["b"] = Fraction(9)
    handed_out.pop("2")
    assert u.values == original
    for agent, vals in original.items():
        assert {o: u.of(agent, o) for o in vals} == vals
        assert bundle_utility(u, agent, ["a", "b"]) == sum(vals.values())
    assert integer_values(u, "1", ["a", "b"]) == ([6, 1], 2)
    assert integer_values(u, "2", ["a", "b"]) == ([1, 2], 1)
    assert u.agents() == ("1", "2")
