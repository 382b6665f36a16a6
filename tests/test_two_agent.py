import itertools
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from seqalloc import engine, two_agent
from seqalloc.engine import run_sequential_allocation, run_with_report
from seqalloc.model import (
    UtilityFunction,
    ValidationError,
    bundle_utility,
    make_lexicographic_utilities,
    validate_instance,
    validate_utilities,
)
from seqalloc.oracle import brute_force_best_response, enumerate_achievable_bundles
from seqalloc.two_agent import (
    achievability_certificate,
    best_response,
    canonical_report,
    is_achievable,
    lexicographic_best_response,
    nash_evidence,
    ordinal_greedy,
    verify_nash_two_agents,
)
from seqalloc.golden import alternating_manipulation_example, two_agent_example

from conftest import package_env, random_consistent_utilities, random_instance


def test_canonical_report_layout():
    report = canonical_report(
        {"a", "d"}, opponent_pref=("d", "c", "b", "a"), all_items=("a", "b", "c", "d")
    )
    assert report == ("d", "a", "b", "c")


def test_canonical_report_rejects_unknown_items():
    with pytest.raises(ValidationError):
        canonical_report({"z"}, ("a",), ("a",))


def test_reference_best_response():
    inst = two_agent_example()
    report, bundle = lexicographic_best_response(inst, "1")
    assert bundle == {"o1", "o4"}
    assert run_with_report(inst, "1", report).bundles["1"] == bundle


def test_profitable_manipulation_found():
    inst = alternating_manipulation_example()
    truthful = run_sequential_allocation(inst).bundles["1"]
    assert truthful == {"a", "c"}
    _, bundle = lexicographic_best_response(inst, "1")
    assert bundle == {"a", "b"}


def test_rejects_non_two_agent_instances():
    inst = random_instance(random.Random(0), n=3, m=4)
    with pytest.raises(ValidationError):
        lexicographic_best_response(inst, "1")
    with pytest.raises(ValidationError):
        is_achievable({"o0"}, inst, "1")


def test_achievability_matches_certificate_exhaustively():
    rng = random.Random(41)
    for _ in range(60):
        inst = random_instance(rng, n=2, m=5)
        manip = rng.choice(inst.agents)
        for size in (1, 2, 3):
            for S in itertools.combinations(inst.items, size):
                assert is_achievable(S, inst, manip) == achievability_certificate(
                    S, inst, manip
                ), (inst, manip, S)


def _replay_achievable(S, inst, manip):
    """The engine reference: replay the canonical report and look."""
    (opponent,) = set(inst.agents) - {manip}
    report = canonical_report(S, inst.preferences[opponent], inst.items)
    return set(S) <= run_with_report(inst, manip, report).bundles[manip]


def test_closed_form_matches_engine_replay_on_every_subset():
    rng = random.Random(47)
    seen = {"empty": 0, "over_turns": 0, "short_sequence": 0, True: 0, False: 0}
    for _ in range(150):
        inst = random_instance(rng, n=2, m=rng.randint(1, 8))
        manip = rng.choice(inst.agents)
        seen["short_sequence"] += len(inst.sequence) < len(inst.items)
        for size in range(len(inst.items) + 1):
            for S in itertools.combinations(inst.items, size):
                verdict = is_achievable(S, inst, manip)
                assert verdict == _replay_achievable(S, inst, manip), (inst, manip, S)
                seen[verdict] += 1
                seen["empty"] += not S
                seen["over_turns"] += size > inst.turns(manip)
    assert all(seen.values()), seen


def _full_sequence_instance(rng, m, blocked):
    """Two agents, m items and m stages: the sequence 1221 repeated, or random."""
    items = [f"o{k}" for k in range(m)]
    if blocked:
        sequence = [("1", "2", "2", "1")[k % 4] for k in range(m)]
    else:
        sequence = [rng.choice("12") for _ in range(m)]
    prefs = {a: rng.sample(items, m) for a in ("1", "2")}
    return validate_instance(items, ["1", "2"], prefs, sequence)


@pytest.mark.parametrize("blocked", [True, False], ids=["1221", "random"])
def test_closed_form_on_64_items(blocked):
    rng = random.Random(64)
    inst = _full_sequence_instance(rng, 64, blocked)
    items = inst.items
    verdicts = set()
    for manip in inst.agents:
        u = random_consistent_utilities(rng, inst, manip)
        report, bundle, _ = best_response(inst, u, manip)
        assert run_with_report(inst, manip, report).bundles[manip] == bundle
        kept = sorted(bundle)
        for _ in range(100):
            S = rng.sample(kept, rng.randint(0, len(kept) - 1)) + rng.sample(items, 1)
            verdict = is_achievable(S, inst, manip)
            assert verdict == _replay_achievable(S, inst, manip), (manip, S)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_achievable_rejects_unknown_items():
    with pytest.raises(ValidationError, match="unknown items"):
        is_achievable({"zz"}, two_agent_example(), "1")


def test_achievable_sets_match_oracle_containment():
    rng = random.Random(42)
    for _ in range(40):
        inst = random_instance(rng, n=2, m=6)
        manip = rng.choice(inst.agents)
        achievable = enumerate_achievable_bundles(inst, manip)
        for size in (1, 2):
            for S in itertools.combinations(inst.items, size):
                expected = any(set(S) <= b for b in achievable)
                assert is_achievable(S, inst, manip) == expected


def test_best_response_matches_oracle_on_random_instances():
    rng = random.Random(43)
    for _ in range(120):
        inst = random_instance(rng, n=2, m=rng.randint(2, 7))
        manip = rng.choice(inst.agents)
        u = random_consistent_utilities(rng, inst, manip)
        report, bundle, value = best_response(inst, u, manip)
        oracle = brute_force_best_response(inst, u, manip)
        assert value == oracle.max_utility
        assert bundle in oracle.optimal_bundles
        assert run_with_report(inst, manip, report).bundles[manip] == bundle


def test_best_response_bundle_is_utility_independent():
    rng = random.Random(44)
    for _ in range(30):
        inst = random_instance(rng, n=2, m=6)
        manip = rng.choice(inst.agents)
        bundles = set()
        for _ in range(3):
            u = random_consistent_utilities(rng, inst, manip)
            _, bundle, _ = best_response(inst, u, manip)
            bundles.add(bundle)
        assert len(bundles) == 1


@pytest.mark.parametrize(
    "row",
    [
        {"o1": 1, "o2": 1, "o3": 1, "o4": 1},
        {"o1": 3, "o2": 2, "o3": 1, "o4": 0},
        {"o1": 4, "o2": 2, "o3": 3, "o4": 1},
        {"o1": 3, "o2": 2, "o3": 1},
    ],
    ids=["flat", "one-zero", "one-inversion", "missing-item"],
)
def test_best_response_rejects_inconsistent_utilities(row):
    """The one-pass check names each problem as ``validate_utilities`` does."""
    inst = two_agent_example()
    u = UtilityFunction({"1": {o: Fraction(v) for o, v in row.items()}})
    with pytest.raises(ValidationError) as expected:
        validate_utilities(u, inst)
    with pytest.raises(ValidationError) as exc:
        best_response(inst, u, "1")
    assert exc.value.problems == expected.value.problems


def test_truthful_reporting_is_equilibrium_with_sole_interest():
    # each agent wants a disjoint half of the items most; no profitable lies
    from seqalloc.model import validate_instance

    inst = validate_instance(
        items=["o0", "o1", "o2", "o3"],
        agents=["1", "2"],
        preferences={
            "1": ["o0", "o1", "o2", "o3"],
            "2": ["o2", "o3", "o0", "o1"],
        },
        sequence=["1", "2", "1", "2"],
    )
    u = UtilityFunction(
        {
            "1": {"o0": Fraction(8), "o1": Fraction(4), "o2": Fraction(2), "o3": Fraction(1)},
            "2": {"o2": Fraction(8), "o3": Fraction(4), "o0": Fraction(2), "o1": Fraction(1)},
        }
    )
    assert verify_nash_two_agents(inst, u)


def test_nash_evidence_flags_profitable_deviation():
    inst = alternating_manipulation_example()
    u = UtilityFunction(
        {
            "1": {"a": Fraction(8), "b": Fraction(4), "c": Fraction(2), "d": Fraction(1)},
            "2": {"b": Fraction(8), "c": Fraction(4), "a": Fraction(2), "d": Fraction(1)},
        }
    )
    evidence = {e.agent: e for e in nash_evidence(inst, u)}
    assert evidence["1"].can_improve
    assert evidence["1"].best_response_bundle == {"a", "b"}
    assert not verify_nash_two_agents(inst, u)


def test_nash_verification_agrees_with_oracle_on_random_profiles():
    rng = random.Random(46)
    for _ in range(40):
        inst = random_instance(rng, n=2, m=5)
        u = UtilityFunction(
            {
                a: random_consistent_utilities(rng, inst, a).values[a]
                for a in inst.agents
            }
        )
        current = run_sequential_allocation(inst)
        improvable = any(
            brute_force_best_response(inst, u, a).max_utility
            > bundle_utility(u, a, current.bundles[a])
            for a in inst.agents
        )
        assert verify_nash_two_agents(inst, u) == (not improvable)


def _no_search(*args):
    raise AssertionError("a best-response search started")


def _forbid_search(monkeypatch):
    """Make any replay or achievability test of a search fail the test."""
    monkeypatch.setattr(two_agent, "run_sequential_allocation", _no_search)
    monkeypatch.setattr(two_agent, "can_achieve", _no_search)
    monkeypatch.setattr(two_agent, "is_achievable", _no_search)


def test_best_response_requires_manipulator_utilities(monkeypatch):
    inst = two_agent_example()
    only_2 = UtilityFunction({"2": make_lexicographic_utilities(inst.preferences).values["2"]})
    _forbid_search(monkeypatch)
    with pytest.raises(ValidationError, match="no utilities for agent 1"):
        best_response(inst, only_2, "1")


def test_nash_evidence_requires_every_agents_utilities(monkeypatch):
    inst = two_agent_example()
    only_1 = UtilityFunction({"1": make_lexicographic_utilities(inst.preferences).values["1"]})
    _forbid_search(monkeypatch)
    with pytest.raises(ValidationError, match="no utilities for agent 2"):
        nash_evidence(inst, only_1)


def test_nash_evidence_requires_utilities_on_every_item(monkeypatch):
    inst = two_agent_example()
    u = make_lexicographic_utilities(inst.preferences)
    partial = UtilityFunction({**u.values, "2": {o: v for o, v in u.values["2"].items() if o != "o4"}})
    _forbid_search(monkeypatch)
    with pytest.raises(ValidationError, match="utilities of agent 2 do not cover the item set"):
        nash_evidence(inst, partial)


def test_achievability_certificate_rejects_unknown_items():
    with pytest.raises(ValidationError, match="unknown items"):
        achievability_certificate({"zz"}, two_agent_example(), "1")


def _per_item_best_response(inst, manip):
    """The reference greedy: one closed-form ``is_achievable`` call per scanned item."""
    (opponent,) = set(inst.agents) - {manip}
    S = ordinal_greedy(inst, manip, lambda trial: is_achievable(trial, inst, manip))
    return canonical_report(S, inst.preferences[opponent], inst.items), frozenset(S)


def test_slack_greedy_matches_per_item_greedy():
    rng = random.Random(48)
    seen = Counter()
    for m in range(1, 41):
        items = [f"o{k}" for k in range(m)]
        for trial in range(12):
            L = (m, rng.randint(0, m))[trial % 2]
            if trial % 4 == 3:
                sequence = [rng.choice("12")] * L  # one agent has no turn
            else:
                sequence = [rng.choice("12") for _ in range(L)]
            prefs = {a: rng.sample(items, m) for a in ("1", "2")}
            inst = validate_instance(items, ["1", "2"], prefs, sequence)
            for manip in inst.agents:
                expected = _per_item_best_response(inst, manip)
                assert lexicographic_best_response(inst, manip) == expected, (inst, manip)
                seen["short_sequence"] += L < m
                seen["zero_turns"] += inst.turns(manip) == 0
                seen["manipulator " + manip] += 1
    assert len(seen) == 4 and all(seen.values()), seen


@pytest.mark.parametrize("blocked", [True, False], ids=["1221", "random"])
def test_slack_greedy_matches_per_item_greedy_on_256_items(blocked):
    rng = random.Random(256)
    for _ in range(3):
        inst = _full_sequence_instance(rng, 256, blocked)
        for manip in inst.agents:
            assert lexicographic_best_response(inst, manip) == _per_item_best_response(
                inst, manip
            ), manip


@pytest.mark.parametrize("blocked", [True, False], ids=["1221", "random"])
def test_best_response_makes_one_closed_form_call_on_256_items(blocked, monkeypatch):
    """The greedy must not call the closed form, or replay, per scanned item."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in [
        (two_agent, "is_achievable"),
        (two_agent, "can_achieve"),
        (two_agent, "run_sequential_allocation"),
        (engine, "can_achieve"),
        (engine, "run_sequential_allocation"),
    ]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    inst = _full_sequence_instance(random.Random(257), 256, blocked)
    for manip in inst.agents:
        calls.clear()
        lexicographic_best_response(inst, manip)
        assert calls["is_achievable"] <= 1, calls
        assert calls["can_achieve"] == calls["run_sequential_allocation"] == 0, calls


# Let the greedy keep every item it scans: agent 1 then keeps {o1, o2}, which
# agent 2 (ranking o2 third) takes before agent 1's second turn.
_ACCEPT_ALL_GREEDY = """
from seqalloc import two_agent
from seqalloc.golden import two_agent_example

two_agent._deadline_test = lambda inst, manipulator: lambda trial: True
two_agent.lexicographic_best_response(two_agent_example(), "1")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_best_response_post_condition_holds_under_any_flag(flags):
    """``python -O`` strips ``assert`` statements; the post-condition must not rely on them."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _ACCEPT_ALL_GREEDY],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "AssertionError: greedy kept an unachievable set ['o1', 'o2']" in proc.stderr
