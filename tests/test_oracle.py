import bisect
import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from seqalloc import engine, oracle
from seqalloc.engine import Encoded, PickState, run_with_report, stages_of
from seqalloc.instance_io import serialize_instance
from seqalloc.model import (
    UtilityFunction,
    ValidationError,
    bundle_utility,
    complete_order,
    make_lexicographic_utilities,
    validate_instance,
)
from seqalloc.oracle import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    brute_force_best_response,
    count_achievable_bundles,
    enumerate_achievable_bundles,
    refuted_greedy_best_response,
)
from seqalloc.golden import REFERENCE_FORMULA, counterexample_utilities, three_agent_counterexample
from seqalloc.reduction import MANIPULATOR, build_instance, parse_formula, verify_choice_patterns
from seqalloc.two_agent import lexicographic_best_response

from conftest import (
    package_env,
    random_consistent_utilities,
    random_instance,
    random_restricted_formula,
    take,
)
from test_engine import _due_by_replay


def _all_report_bundles(inst, manip):
    """Ground truth by literally trying every one of the m! reports."""
    out = set()
    for perm in itertools.permutations(inst.items):
        out.add(run_with_report(inst, manip, perm).bundles[manip])
    return out


def test_enumeration_equals_all_reports_on_small_instances():
    rng = random.Random(51)
    for _ in range(25):
        inst = random_instance(rng, n=rng.choice([2, 3]), m=rng.randint(2, 5))
        manip = rng.choice(inst.agents)
        assert enumerate_achievable_bundles(inst, manip) == _all_report_bundles(
            inst, manip
        )


def test_oracle_optimum_matches_all_reports():
    rng = random.Random(52)
    for _ in range(20):
        inst = random_instance(rng, n=3, m=5)
        manip = rng.choice(inst.agents)
        u = random_consistent_utilities(rng, inst, manip)
        res = brute_force_best_response(inst, u, manip)
        truth = {
            b: bundle_utility(u, manip, b) for b in _all_report_bundles(inst, manip)
        }
        best = max(truth.values())
        assert res.max_utility == best
        assert set(res.optimal_bundles) == {b for b, v in truth.items() if v == best}


def test_witness_reports_replay_to_their_bundles():
    rng = random.Random(53)
    for _ in range(30):
        inst = random_instance(rng, n=rng.choice([2, 3]), m=6)
        manip = rng.choice(inst.agents)
        u = random_consistent_utilities(rng, inst, manip)
        res = brute_force_best_response(inst, u, manip)
        for bundle in res.optimal_bundles:
            report = res.witness_reports[bundle]
            assert sorted(report) == sorted(inst.items)
            assert run_with_report(inst, manip, report).bundles[manip] == bundle


def test_witness_is_first_pick_order_by_item_index():
    """Each witness starts with the bundle's smallest manipulator pick order.

    Pick orders compare by canonical item index, over every one of the m!
    reports; the rest of the witness is ``complete_order``'s canonical tail.
    """
    rng = random.Random(55)
    for _ in range(40):
        m = rng.randint(4, 6)
        inst = random_instance(rng, n=rng.choice([2, 3]), m=m, L=m)
        manip = rng.choice(inst.agents)
        u = random_consistent_utilities(rng, inst, manip)
        first_picks = {}
        for perm in itertools.permutations(inst.items):
            alloc = run_with_report(inst, manip, perm)
            picks = [o for _, agent, o in alloc.trace if agent == manip]
            key = [inst.items.index(o) for o in picks]
            bundle = alloc.bundles[manip]
            if bundle not in first_picks or key < first_picks[bundle][0]:
                first_picks[bundle] = (key, picks)
        res = brute_force_best_response(inst, u, manip)
        for bundle in res.optimal_bundles:
            picks = first_picks[bundle][1]
            assert res.witness_reports[bundle] == complete_order(picks, inst.items)


def test_optimal_bundles_are_deduplicated_and_ordered():
    inst = three_agent_counterexample()
    res = brute_force_best_response(inst, counterexample_utilities(tie=True), "1")
    assert len(set(res.optimal_bundles)) == len(res.optimal_bundles)
    keys = [sorted(inst.items.index(o) for o in b) for b in res.optimal_bundles]
    assert keys == sorted(keys)
    assert set(res.optimal_bundles) == {frozenset("ad"), frozenset("bc")}


def test_greedy_suboptimal_for_three_agents():
    inst = three_agent_counterexample()
    u = counterexample_utilities(tie=False)
    greedy = refuted_greedy_best_response(inst, "1")
    oracle = brute_force_best_response(inst, u, "1")
    assert greedy == {"a", "d"}
    assert bundle_utility(u, "1", greedy) < oracle.max_utility


def test_greedy_optimal_for_two_agents():
    rng = random.Random(54)
    for _ in range(50):
        inst = random_instance(rng, n=2, m=6)
        manip = rng.choice(inst.agents)
        u = random_consistent_utilities(rng, inst, manip)
        greedy = refuted_greedy_best_response(inst, manip)
        oracle = brute_force_best_response(inst, u, manip)
        assert bundle_utility(u, manip, greedy) == oracle.max_utility


def test_greedy_is_the_unique_optimum_under_lexicographic_utilities():
    """Utilities 2^(m-k) rank bundles lexicographically along the order, and
    the achievable sets are closed under subsets; a greedy in preference
    order over a subset-closed family finds its lexicographic maximum. So
    the greedy, wrong for three or more agents in general, is exact here."""
    rng = random.Random(66)
    not_prefix = 0
    for _ in range(1000):
        n = rng.randint(3, 5)
        inst = random_instance(rng, n=n, m=rng.randint(n, 11))
        manip = rng.choice(inst.agents)
        u = make_lexicographic_utilities(inst.preferences)
        greedy = refuted_greedy_best_response(inst, manip)
        assert brute_force_best_response(inst, u, manip).optimal_bundles == (greedy,), (
            inst, manip,
        )
        not_prefix += greedy != set(inst.preferences[manip][: len(greedy)])
    assert not_prefix >= 150, not_prefix


def test_refuted_greedy_on_one_start_state_matches_can_achieve_form():
    """The greedy with every check from one shared start state keeps the
    items it keeps when each check is a fresh ``engine.can_achieve`` replay."""
    rng = random.Random(74)
    rejected = 0
    for _ in range(300):
        inst = random_instance(rng, n=3, m=rng.randint(1, 9))
        manip = rng.choice(inst.agents)
        enc = Encoded(inst)
        agent, index = enc.agent_index[manip], enc.item_index
        kept = []
        for o in inst.preferences[manip]:
            if len(kept) == inst.turns(manip):
                break
            if engine.can_achieve(enc, agent, [index[k] for k in (*kept, o)]):
                kept.append(o)
        assert refuted_greedy_best_response(inst, manip) == frozenset(kept), (inst, manip)
        rejected += kept != list(inst.preferences[manip][: len(kept)])
    assert rejected >= 30, rejected
    assert refuted_greedy_best_response(three_agent_counterexample(), "1") == {"a", "d"}


def _manipulator_heavy_instance(m: int):
    from seqalloc.model import validate_instance

    items = [f"o{k}" for k in range(m)]
    return validate_instance(
        items=items,
        agents=["1", "2"],
        preferences={"1": items, "2": list(reversed(items))},
        sequence=["1", "2"] * (m // 2),
    )


def test_truthful_play_earns_at_least_half_of_the_best_response():
    """Truthful play (the order by falling value, ties by name) earns at
    least half of the best response's utility, on seeded instances with
    integer values 0-100 and rationals. The golden row
    ``manipulation/truthful-half`` is a case where it earns exactly half."""
    rng = random.Random(99)
    gained = 0
    for _ in range(10_000):
        m = rng.randint(1, 8)
        inst = random_instance(rng, n=rng.randint(2, 4), m=m, L=rng.randint(1, m))
        manip = rng.choice(inst.agents)
        vals = {
            o: rng.randint(0, 100) if rng.random() < 0.3
            else Fraction(rng.randint(0, 100), rng.randint(1, 7))
            for o in inst.items
        }
        u = UtilityFunction({manip: vals})
        report = sorted(inst.items, key=lambda o: (-vals[o], o))
        truthful = bundle_utility(u, manip, run_with_report(inst, manip, report).bundles[manip])
        best = brute_force_best_response(inst, u, manip).max_utility
        assert 2 * truthful >= best, (inst, manip, vals)
        gained += truthful < best
    assert gained >= 100, gained  # manipulation pays on some instances


def test_refuted_greedy_has_no_turn_guard():
    inst = _manipulator_heavy_instance(34)  # 17 manipulator turns
    _, expected = lexicographic_best_response(inst, "1")
    assert refuted_greedy_best_response(inst, "1") == expected


def _near_identical_round_robin():
    """n = 3, m = 30, round robin: agent 1 has 10 turns."""
    rng = random.Random(56)
    items = [f"o{k}" for k in range(30)]
    prefs = {}
    for agent in "123":
        order = items[:]
        for _ in range(5):
            k = rng.randrange(len(items) - 1)
            order[k], order[k + 1] = order[k + 1], order[k]
        prefs[agent] = order
    return validate_instance(items, list("123"), prefs, list("123") * 10)


def test_refuted_greedy_has_no_node_budget():
    # round robin over near-identical preferences: the search of
    # enumerate_achievable_bundles for agent 1's 10 turns exceeds its
    # default node budget, so only a search that does not enumerate bundles
    # answers here
    inst = _near_identical_round_robin()
    assert len(refuted_greedy_best_response(inst, "1")) == 10


def test_oracle_answers_where_the_walk_exceeds_its_budget():
    # under lexicographic utilities the ordinal greedy is optimal for any n
    inst = _near_identical_round_robin()
    u = make_lexicographic_utilities(inst.preferences)
    res = brute_force_best_response(inst, u, "1")
    greedy = refuted_greedy_best_response(inst, "1")
    assert res.optimal_bundles == (greedy,)
    assert res.max_utility == bundle_utility(u, "1", greedy)
    # the count builds no bundle, so it answers under the same default budget
    assert count_achievable_bundles(inst, "1") == 8_414_640


def test_oracle_has_no_turn_guard():
    inst = _manipulator_heavy_instance(34)  # 17 manipulator turns
    u = make_lexicographic_utilities(inst.preferences)
    _, expected = lexicographic_best_response(inst, "1")
    res = brute_force_best_response(inst, u, "1")
    assert res.optimal_bundles == (expected,)
    report = res.witness_reports[expected]
    assert run_with_report(inst, "1", report).bundles["1"] == expected


def _random_values(rng, items):
    """Values with ties, zeros, negatives or fractions, in no particular order."""
    kind = rng.choice(["ties", "signed", "fractions"])
    if kind == "ties":
        return {o: Fraction(rng.randint(0, 2)) for o in items}
    if kind == "signed":
        return {o: Fraction(rng.randint(-3, 3)) for o in items}
    return {o: Fraction(rng.randint(-5, 9), rng.randint(1, 6)) for o in items}


def test_branch_and_bound_matches_exhaustive_reference():
    rng = random.Random(57)
    for trial in range(600):
        n, m = rng.randint(2, 4), rng.randint(1, 9)
        inst = random_instance(rng, n=n, m=m, L=rng.randint(0, m))
        if trial % 10 == 0:  # a manipulator with no turn
            absent = [a for a in inst.agents if a not in inst.sequence]
            manip = absent[0] if absent else rng.choice(inst.agents)
        else:
            manip = rng.choice(inst.agents)
        vals = _random_values(rng, inst.items)
        res = brute_force_best_response(inst, UtilityFunction({manip: vals}), manip)
        worth = {
            b: sum((vals[o] for o in b), Fraction(0))
            for b in enumerate_achievable_bundles(inst, manip)
        }
        best = max(worth.values())
        expected = sorted(
            (b for b, w in worth.items() if w == best),
            key=lambda b: sorted(inst.items.index(o) for o in b),
        )
        assert res.max_utility == best, (inst, manip, vals)
        assert res.optimal_bundles == tuple(expected), (inst, manip, vals)
        for bundle in res.optimal_bundles:
            report = res.witness_reports[bundle]
            assert run_with_report(inst, manip, report).bundles[manip] == bundle


def test_node_budget_counts_achievability_checks():
    """The budget trips exactly when it is below the deterministic check count."""
    rng = random.Random(58)
    for _ in range(20):
        inst = random_instance(rng, n=3, m=7, L=7)
        manip = inst.sequence[0]
        u = random_consistent_utilities(rng, inst, manip)
        res = brute_force_best_response(inst, u, manip)
        assert res.checks > 0
        assert brute_force_best_response(inst, u, manip, node_budget=res.checks) == res
        with pytest.raises(BudgetExceededError, match="node budget") as excinfo:
            brute_force_best_response(inst, u, manip, node_budget=res.checks - 1)
        err = excinfo.value
        assert (err.limit, err.used, err.unit) == (
            res.checks - 1, res.checks - 1, "achievability checks"
        )


def _tied_random_case():
    """A seeded n = 3 instance with three optima, the third found at the last check."""
    rng = random.Random(2810)
    inst = random_instance(rng, n=3, m=6, L=6)
    manip = inst.sequence[0]
    u = UtilityFunction({manip: {o: Fraction(rng.randint(1, 3)) for o in inst.items}})
    return inst, u, manip


def test_budget_message_says_how_far_the_search_got():
    counterexample = three_agent_counterexample()
    for (inst, u, manip), budget, progress in [
        ((counterexample, counterexample_utilities(False), "1"), 0,
         "best utility so far none, 0 optimal bundles held"),
        ((counterexample, counterexample_utilities(False), "1"), 4,
         "best utility so far 41/10, 1 optimal bundles held"),
        # the second optimum comes at the last of 6 checks
        ((counterexample, counterexample_utilities(True), "1"), 5,
         "best utility so far 5, 1 optimal bundles held"),
        (_tied_random_case(), 3, "best utility so far 5, 2 optimal bundles held"),
    ]:
        with pytest.raises(BudgetExceededError) as excinfo:
            brute_force_best_response(inst, u, manip, node_budget=budget)
        err = excinfo.value
        assert str(err) == (
            f"search exceeded node budget {budget} after {budget} achievability checks, {progress}"
        )
        assert (err.limit, err.used, err.unit) == (budget, budget, "achievability checks")


def test_answers_equal_under_earliest_deadline_reference(monkeypatch):
    """Every ``OracleResult``, witnesses and check counts included, and every
    budget error is the same when achievability and due turns come from the
    stage-by-stage replay; every check goes through it."""
    cases = [
        (three_agent_counterexample(), counterexample_utilities(tie), "1") for tie in (False, True)
    ]
    for formula in [
        parse_formula(REFERENCE_FORMULA),
        random_restricted_formula(random.Random(1), 6),
        random_restricted_formula(random.Random(2), 6),
    ]:
        out = build_instance(formula)
        cases.append((out.instance, out.utility, MANIPULATOR))
    rng = random.Random(59)
    for _ in range(50):
        inst = random_instance(rng, n=rng.randint(2, 4), m=rng.randint(2, 8))
        manip = rng.choice(inst.agents)
        cases.append((inst, random_consistent_utilities(rng, inst, manip), manip))

    def answers():
        results = [brute_force_best_response(*case) for case in cases]
        with pytest.raises(BudgetExceededError) as excinfo:
            brute_force_best_response(*cases[3], node_budget=results[3].checks // 2)
        return results, str(excinfo.value), excinfo.value.used

    fast = answers()
    calls = []

    def reference(state, turns, needed):
        calls.append(len(needed))
        return _due_by_replay(state, turns, set(needed))

    monkeypatch.setattr(oracle, "secures", reference)
    assert answers() == fast
    assert len(calls) == sum(res.checks for res in fast[0]) + fast[2]


def _pick_order_walk(inst, manip):
    """The slow reference: a walk over every manipulator pick order.

    Returns the bundles reached and the distinct states met at the
    manipulator's turns, each as (turn, picks, taken).
    """
    enc = Encoded(inst)
    turns = stages_of(enc.seq, enc.agent_index[manip])
    reached, states = set(), set()

    def walk(state, picks):
        if len(picks) == len(turns):
            reached.add(frozenset(inst.items[k] for k in picks))
            return
        state.advance(turns[len(picks)])
        states.add((len(picks), frozenset(picks), bytes(state.taken)))
        for item in range(enc.m):
            if not state.taken[item]:
                child = state.copy()
                take(child, item)
                walk(child, picks + [item])

    walk(PickState(enc), [])
    return reached, states


def _round_robin_instance(rng, m=15, turns=4):
    """The oracle workload's shape: n = 3, round robin, agent 1 has ``turns`` turns."""
    items = [f"o{k}" for k in range(m)]
    prefs = {a: rng.sample(items, m) for a in "123"}
    return validate_instance(items, list("123"), prefs, list("123") * turns)


def _fill_sizes(inst, manip, bundles):
    """The fill of each reserved set that ``bundles`` hold, as a size.

    A bundle's reserved items are those that fall due before the
    manipulator's last turn (``engine.secures``); the rest are its fill.
    """
    enc, turns, start = oracle._setup(inst, manip)
    index, k = enc.item_index, len(turns)
    fills = {}
    for bundle in bundles:
        due = engine.secures(start, turns, [index[o] for o in bundle])
        reserved = frozenset(o for o in bundle if due[index[o]] < k)
        fills[reserved] = k - len(reserved)
    return fills.values()


def test_merged_search_matches_pick_order_walk():
    rng = random.Random(59)
    cases = []
    for trial in range(600):
        n, m = rng.randint(2, 4), rng.randint(1, 9)
        inst = random_instance(rng, n=n, m=m, L=rng.randint(0, m))
        if trial % 10 == 0:  # a manipulator with no turn
            absent = [a for a in inst.agents if a not in inst.sequence]
            manip = absent[0] if absent else rng.choice(inst.agents)
        else:
            manip = rng.choice(inst.agents)
        cases.append((inst, manip))
    for _ in range(300):  # many agents, few items
        m = rng.randint(1, 6)
        inst = random_instance(rng, n=rng.randint(5, 6), m=m, L=rng.randint(0, m))
        cases.append((inst, rng.choice(inst.sequence or inst.agents)))
    fills = Counter()
    for inst, manip in cases:
        bundles, _ = _pick_order_walk(inst, manip)
        assert enumerate_achievable_bundles(inst, manip) == bundles, (inst, manip)
        n = count_achievable_bundles(inst, manip)
        assert n == len(bundles), (inst, manip)
        if inst.turns(manip):
            fills.update(_fill_sizes(inst, manip, bundles))
        else:  # the empty bundle alone
            assert n == 1, (inst, manip)
    # bundles that join a reserved set with two or more free items came up
    assert sum(count for size, count in fills.items() if size >= 2) >= 200, fills


def test_merged_search_matches_pick_order_walk_on_round_robin():
    rng = random.Random(60)
    for _ in range(20):
        inst = _round_robin_instance(rng)
        bundles, _ = _pick_order_walk(inst, "1")
        assert enumerate_achievable_bundles(inst, "1") == bundles
        assert count_achievable_bundles(inst, "1") == len(bundles)


def _count_advances(monkeypatch):
    calls = []
    advance = PickState.advance

    def counted(state, until):
        calls.append(until)
        return advance(state, until)

    monkeypatch.setattr(engine.PickState, "advance", counted)
    return calls


def test_enumeration_makes_no_replay(monkeypatch):
    """The others' picks come from the search's own cursors, so it makes no
    ``advance`` at all, not even to the manipulator's first turn."""
    inst = _round_robin_instance(random.Random(61))
    calls = _count_advances(monkeypatch)
    bundles = enumerate_achievable_bundles(inst, "2")
    assert calls == []
    assert bundles == _pick_order_walk(inst, "2")[0]


def _enumeration_phases(inst, manip, bundles):
    """The slow reference for the enumeration's node budget: (turn, sets
    held, nodes) for the root, each other agent's stage before the
    manipulator's last turn, and the listing of ``bundles``.

    A stage's nodes are, by brute force over the item sets S with |S| < k,
    those whose reserved replay to that stage reaches every item of S, with
    no more items of S reached than turns passed at each reach. The sets
    held during a phase are the last stage's nodes (1 after the root).
    """
    enc = Encoded(inst)
    me = enc.agent_index[manip]
    turns = stages_of(enc.seq, me)
    if not turns:
        return [(0, 0, 1)]
    made = Counter()  # stage -> sets S made there
    for size in range(len(turns)):
        for reserved in map(set, itertools.combinations(range(enc.m), size)):
            gone, reached = set(), 0
            for stage, agent in enumerate(enc.seq[: turns[-1]]):
                if agent == me:
                    continue
                for item in enc.prefs[agent]:
                    if item not in gone:
                        gone.add(item)
                        if item not in reserved:
                            break
                        reached += 1
                if reached > bisect.bisect(turns, stage):
                    break
                made[stage] += reached == size
    phases, held = [(0, 0, 1)], 1
    for stage, agent in enumerate(enc.seq[: turns[-1]]):
        if agent != me:
            phases.append((bisect.bisect(turns, stage), held, made[stage]))
            held = made[stage]
    return phases + [(len(turns), held, len(bundles))]


def _enumeration_outcome(inst, manip, budget):
    """``enumerate_achievable_bundles``' bundles, or its budget error's
    message and fields."""
    try:
        return enumerate_achievable_bundles(inst, manip, budget)
    except BudgetExceededError as err:
        return str(err), err.limit, err.used, err.unit


def _expected_enumeration(inst, manip, bundles, budget):
    """``enumerate_achievable_bundles``' outcome under ``budget`` by
    ``_enumeration_phases``: the bundles, or the budget error's message and
    fields."""
    spent = 0
    for turn, held, nodes in _enumeration_phases(inst, manip, bundles):
        spent += nodes
        if spent > budget:
            message = (
                f"search exceeded node budget {budget} after {budget} nodes, "
                f"at turn {turn} of {inst.turns(manip)} with {held} reserved sets"
            )
            return message, budget, budget, "nodes"
    return bundles


def test_smallest_answering_node_budget_is_exact():
    rng = random.Random(62)
    for _ in range(5):
        inst = random_instance(rng, n=3, m=8, L=8)
        manip = inst.sequence[0]
        expected = enumerate_achievable_bundles(inst, manip)
        lo, hi = 0, DEFAULT_NODE_BUDGET
        while lo < hi:  # the smallest budget that answers
            mid = (lo + hi) // 2
            try:
                enumerate_achievable_bundles(inst, manip, node_budget=mid)
                hi = mid
            except BudgetExceededError:
                lo = mid + 1
        # the root, each (state, reserved set) at each other agent's stage
        # and each bundle
        assert lo == sum(nodes for *_, nodes in _enumeration_phases(inst, manip, expected))
        assert enumerate_achievable_bundles(inst, manip, node_budget=lo) == expected
        with pytest.raises(BudgetExceededError, match="node budget") as excinfo:
            enumerate_achievable_bundles(inst, manip, node_budget=lo - 1)
        err = excinfo.value
        assert (err.limit, err.used, err.unit) == (lo - 1, lo - 1, "nodes")


def _near_identical_small(rng, m):
    """n = 3, round robin over m items, each order a few adjacent swaps from one order."""
    items = [f"o{k}" for k in range(m)]
    prefs = {}
    for agent in "123":
        order = items[:]
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(m - 1)
            order[k], order[k + 1] = order[k + 1], order[k]
        prefs[agent] = order
    return validate_instance(items, list("123"), prefs, list("123") * (m // 3))


def test_heavy_merging_matches_pick_order_walk():
    """Near-identical orders, on which many pick orders reach the same
    taken set. Bundles follow from the walk, and the smallest answering
    node budget and the progress named by each budget error from the
    brute-force phases."""
    rng = random.Random(64)
    shared = 0
    for _ in range(12):
        inst = _near_identical_small(rng, rng.randint(6, 9))
        bundles, states = _pick_order_walk(inst, "1")
        assert enumerate_achievable_bundles(inst, "1") == bundles, inst
        assert count_achievable_bundles(inst, "1") == len(bundles), inst
        turns = inst.sequence.count("1")
        held = [[(picks, taken) for c, picks, taken in states if c == t] for t in range(turns)]
        shared += sum(len(h) > len({taken for _, taken in h}) for h in held)
        spent = 0
        for *_, nodes in _enumeration_phases(inst, "1", bundles):
            # the first and last budgets that trip in this phase, and the
            # first that passes it
            for budget in (spent, spent + nodes - 1, spent + nodes):
                expected = _expected_enumeration(inst, "1", bundles, budget)
                assert _enumeration_outcome(inst, "1", budget) == expected, (inst, budget)
            spent += nodes
    assert shared >= 12, shared  # turns whose pick orders share a taken set


def test_enumeration_budget_outcomes_match_the_brute_force_phases():
    """Below, at and above the smallest answering budget: the same bundles,
    or the same budget error with the same message and fields."""
    rng = random.Random(2802)
    cases = []
    for _ in range(150):
        m = rng.randint(1, 9)
        inst = random_instance(rng, n=rng.randint(2, 4), m=m, L=rng.randint(0, m))
        cases.append((inst, rng.choice(inst.agents)))
    cases += [(_near_identical_small(rng, rng.randint(6, 9)), "1") for _ in range(12)]
    cases += [(_round_robin_instance(rng), "1") for _ in range(2)]
    errors = 0
    for inst, manip in cases:
        bundles, _ = _pick_order_walk(inst, manip)
        lo = sum(nodes for *_, nodes in _enumeration_phases(inst, manip, bundles))
        for budget in {0, lo // 3, lo // 2, lo - 1, lo, lo + 1}:
            got = _enumeration_outcome(inst, manip, budget)
            assert got == _expected_enumeration(inst, manip, bundles, budget), (inst, manip, budget)
            errors += not isinstance(got, set)
    assert errors >= len(cases), errors


def test_zero_node_budget_raises_before_any_replay(monkeypatch):
    inst = _round_robin_instance(random.Random(63))
    calls = _count_advances(monkeypatch)
    with pytest.raises(BudgetExceededError, match="node budget") as excinfo:
        enumerate_achievable_bundles(inst, "1", node_budget=0)
    assert (excinfo.value.limit, excinfo.value.used, excinfo.value.unit) == (0, 0, "nodes")
    # the root is charged before the manipulator is looked up
    with pytest.raises(BudgetExceededError, match="node budget") as excinfo:
        count_achievable_bundles(inst, "9", node_budget=0)
    assert (excinfo.value.limit, excinfo.value.used, excinfo.value.unit) == (0, 0, "nodes")
    assert calls == []


def test_count_budget_counts_states():
    """The root and each state made: the counterexample's count of 3 needs
    6 nodes, and a budget of 5 trips with agent 2's states held."""
    inst = three_agent_counterexample()
    assert count_achievable_bundles(inst, "1", node_budget=6) == 3
    with pytest.raises(BudgetExceededError) as excinfo:
        count_achievable_bundles(inst, "1", node_budget=5)
    err = excinfo.value
    assert str(err) == (
        "search exceeded node budget 5 after 5 nodes, at turn 1 of 2 with 2 states"
    )
    assert (err.limit, err.used, err.unit) == (5, 5, "nodes")


@pytest.mark.parametrize(
    "search",
    [
        "brute_force_best_response", "enumerate_achievable_bundles", "count_achievable_bundles",
        "verify_choice_patterns",
    ],
)
def test_negative_budget_is_validation_error(monkeypatch, search):
    """A negative budget is rejected before any replay, not read as no bound."""
    inst, u = three_agent_counterexample(), counterexample_utilities(tie=False)
    out = build_instance(parse_formula(REFERENCE_FORMULA))
    run = {
        "brute_force_best_response": lambda: brute_force_best_response(inst, u, "1", node_budget=-1),
        "enumerate_achievable_bundles": lambda: enumerate_achievable_bundles(inst, "1", node_budget=-1),
        "count_achievable_bundles": lambda: count_achievable_bundles(inst, "1", node_budget=-1),
        "verify_choice_patterns": lambda: verify_choice_patterns(out, max_patterns=-1),
    }[search]
    calls = _count_advances(monkeypatch)
    with pytest.raises(ValidationError, match="(node_budget|max_patterns) must be non-negative, got -1"):
        run()
    assert calls == []


# the default-budget enumeration on stdin's instance, reporting the error's
# fields and the process's peak RSS in bytes (ru_maxrss is KiB on Linux)
_PEAK_RSS_SCRIPT = """
import json, resource, sys
from seqalloc.instance_io import parse_instance
from seqalloc.model import BudgetExceededError
from seqalloc.oracle import enumerate_achievable_bundles
inst, _ = parse_instance(sys.stdin.read())
try:
    enumerate_achievable_bundles(inst, "1")
except BudgetExceededError as err:
    fields = [str(err), err.limit, err.used, err.unit]
else:
    fields = None
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([fields, peak if sys.platform == "darwin" else peak * 1024]))
"""


def test_near_identical_round_robin_exceeds_the_default_node_budget():
    """The premise of ``test_oracle_answers_where_the_walk_exceeds_its_budget``.

    Runs in a fresh process, so that the peak RSS is this search's own: the
    reserved sets of about one stage are held at once, within 110 MiB. The
    error names the turns passed and the sets held after the last complete
    stage, whatever order the search takes the states in.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT],
        input=serialize_instance(_near_identical_round_robin()),
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    fields, peak = json.loads(proc.stdout)
    assert fields is not None, "the search answered within the default budget"
    message, *err = fields
    assert message == (
        "search exceeded node budget 2000000 after 2000000 nodes, "
        "at turn 9 of 10 with 690690 reserved sets"
    )
    assert err == [DEFAULT_NODE_BUDGET, DEFAULT_NODE_BUDGET, "nodes"]
    assert peak <= 110 * 2**20, f"peak RSS {peak / 2**20:.1f} MiB"


def test_node_budget_is_enforced():
    inst = _manipulator_heavy_instance(8)
    with pytest.raises(BudgetExceededError, match="node budget") as excinfo:
        enumerate_achievable_bundles(inst, "1", node_budget=3)
    assert (excinfo.value.limit, excinfo.value.used, excinfo.value.unit) == (3, 3, "nodes")


def test_node_budget_is_the_only_limit_on_turns():
    # 17 manipulator turns, as many as items: every subset of the items is a
    # merged state, 1 + 17 * 2**16 nodes within the default budget
    items = [f"o{k}" for k in range(17)]
    inst = validate_instance(items, ["1"], {"1": items}, ["1"] * 17)
    assert enumerate_achievable_bundles(inst, "1") == {frozenset(items)}


def test_unknown_manipulator_is_validation_error():
    inst = _manipulator_heavy_instance(4)
    u = make_lexicographic_utilities(inst.preferences)
    for search in (
        lambda: brute_force_best_response(inst, u, "9"),
        lambda: enumerate_achievable_bundles(inst, "9"),
        lambda: refuted_greedy_best_response(inst, "9"),
    ):
        with pytest.raises(ValidationError, match="unknown agent 9"):
            search()


def test_oracle_requires_manipulator_utilities():
    inst = _manipulator_heavy_instance(4)
    only_2 = UtilityFunction({"2": make_lexicographic_utilities(inst.preferences).values["2"]})
    # a zero node budget trips on the search's first node
    with pytest.raises(ValidationError, match="no utilities for agent 1"):
        brute_force_best_response(inst, only_2, "1", node_budget=0)


def test_oracle_requires_utilities_on_every_item():
    inst = three_agent_counterexample()
    vals = dict(counterexample_utilities(tie=False).values["1"])
    del vals["d"]
    # inconsistent with agent 1's preference, which the oracle does not require
    vals["a"] = vals["b"] = 1
    with pytest.raises(ValidationError, match="agent 1 do not cover the item set"):
        brute_force_best_response(inst, UtilityFunction({"1": vals}), "1", node_budget=0)
