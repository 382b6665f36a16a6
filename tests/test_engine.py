import itertools
import random

import pytest

from seqalloc.engine import (
    Encoded,
    PickState,
    can_achieve,
    run_sequential_allocation,
    run_with_report,
)
from seqalloc.model import ValidationError, validate_instance
from seqalloc.oracle import enumerate_achievable_bundles

from conftest import random_instance


def test_each_stage_takes_most_preferred_remaining():
    rng = random.Random(21)
    for _ in range(50):
        inst = random_instance(rng, n=rng.randint(1, 4), m=rng.randint(1, 8))
        alloc = run_sequential_allocation(inst)
        remaining = set(inst.items)
        for stage, agent, item in alloc.trace:
            assert agent == inst.sequence[stage - 1]
            preferred = next(o for o in inst.preferences[agent] if o in remaining)
            assert item == preferred
            remaining.remove(item)


def test_pick_semantics():
    inst = validate_instance(
        items=["a", "b", "c"],
        agents=["1", "2"],
        preferences={"1": ["a", "b", "c"], "2": ["c", "b", "a"]},
        sequence=["1", "2", "1"],
    )
    assert PickState(Encoded(inst)).advance(3) == [0, 2, 1]


def test_pick_state_copies_branch_independently():
    rng = random.Random(24)
    checked = 0
    for _ in range(60):
        inst = random_instance(rng, n=rng.randint(2, 4), m=rng.randint(2, 8))
        L = len(inst.sequence)
        stage = rng.randrange(L)
        agent = inst.sequence[stage]
        enc = Encoded(inst)
        state = PickState(enc)
        before = state.advance(stage)
        free = [k for k in range(enc.m) if not state.taken[k]]
        if len(free) < 2:
            continue
        snapshot = (state.stage, bytes(state.taken), list(state.cursor))
        for item in rng.sample(free, 2):
            branch = state.copy()
            branch.take(item)
            picks = before + [item] + branch.advance(L)
            # the agent's earlier picks, then the chosen item, lead the report;
            # the rest keeps the true order, which the later greedy stages follow
            lead = [inst.items[k] for t, k in enumerate(before) if inst.sequence[t] == agent]
            lead.append(inst.items[item])
            report = lead + [o for o in inst.preferences[agent] if o not in lead]
            fresh = run_with_report(inst, agent, report)
            assert [o for _, _, o in fresh.trace] == [inst.items[k] for k in picks]
        assert (state.stage, bytes(state.taken), list(state.cursor)) == snapshot
        truthful = run_sequential_allocation(inst)
        assert before + state.advance(L) == [enc.item_index[o] for _, _, o in truthful.trace]
        checked += 1
    assert checked >= 30


def test_can_achieve_matches_exhaustive_walk_on_every_subset():
    """The earliest-deadline rule against containment in the oracle's bundles."""
    rng = random.Random(25)
    seen = {"empty": 0, "over_turns": 0, "short_sequence": 0, True: 0, False: 0}
    for _ in range(200):
        inst = random_instance(rng, n=rng.randint(2, 4), m=rng.randint(1, 8))
        manip = rng.choice(inst.agents)
        bundles = enumerate_achievable_bundles(inst, manip)
        enc = Encoded(inst)
        seen["short_sequence"] += len(inst.sequence) < len(inst.items)
        for size in range(enc.m + 1):
            for S in itertools.combinations(range(enc.m), size):
                named = {inst.items[k] for k in S}
                verdict = can_achieve(enc, enc.agent_index[manip], S)
                assert verdict == any(named <= b for b in bundles), (inst, manip, named)
                seen[verdict] += 1
                seen["empty"] += not S
                seen["over_turns"] += size > inst.turns(manip)
    assert all(seen.values()), seen


def test_trace_and_bundles_agree():
    rng = random.Random(22)
    for _ in range(30):
        inst = random_instance(rng, n=3, m=6)
        alloc = run_sequential_allocation(inst)
        rebuilt = {a: set() for a in inst.agents}
        for _, agent, item in alloc.trace:
            rebuilt[agent].add(item)
        assert {a: frozenset(b) for a, b in rebuilt.items()} == dict(alloc.bundles)


def test_surplus_items_stay_unallocated():
    inst = validate_instance(
        items=["a", "b", "c", "d"],
        agents=["1", "2"],
        preferences={"1": ["a", "b", "c", "d"], "2": ["b", "a", "c", "d"]},
        sequence=["1", "2"],
    )
    alloc = run_sequential_allocation(inst)
    assert alloc.bundles["1"] == {"a"} and alloc.bundles["2"] == {"b"}
    assert alloc.holder_of("c") is None and alloc.holder_of("d") is None


def test_identical_preferences_follow_sequence_order():
    inst = validate_instance(
        items=["a", "b", "c"],
        agents=["1", "2"],
        preferences={"1": ["a", "b", "c"], "2": ["a", "b", "c"]},
        sequence=["2", "1", "2"],
    )
    alloc = run_sequential_allocation(inst)
    assert alloc.bundles == {"1": {"b"}, "2": {"a", "c"}}


def test_run_with_report_only_changes_one_agent():
    inst = validate_instance(
        items=["a", "b", "c", "d"],
        agents=["1", "2"],
        preferences={"1": ["a", "b", "c", "d"], "2": ["b", "c", "a", "d"]},
        sequence=["1", "2", "1", "2"],
    )
    truthful = run_sequential_allocation(inst)
    assert truthful.bundles["1"] == {"a", "c"}
    manipulated = run_with_report(inst, "1", ["b", "a", "c", "d"])
    assert manipulated.bundles["1"] == {"a", "b"}
    # original instance is untouched
    assert inst.preferences["1"] == ("a", "b", "c", "d")


def test_run_with_report_rejects_bad_input():
    inst = validate_instance(
        items=["a", "b"],
        agents=["1"],
        preferences={"1": ["a", "b"]},
        sequence=["1"],
    )
    with pytest.raises(ValidationError):
        run_with_report(inst, "9", ["a", "b"])
    with pytest.raises(ValidationError):
        run_with_report(inst, "1", ["a"])


def test_report_tail_is_irrelevant_once_turns_are_used():
    rng = random.Random(23)
    for _ in range(30):
        inst = random_instance(rng, n=2, m=6, L=6)
        manip = "1"
        turns = inst.turns(manip)
        if turns == 0:
            continue
        report = list(inst.preferences[manip])
        head, tail = report[:turns], report[turns:]
        base = run_with_report(inst, manip, head + tail)
        rng.shuffle(tail)
        shuffled = run_with_report(inst, manip, head + tail)
        # tail order can matter only if some head item gets sniped; when the
        # manipulator actually receives the whole head, outcomes must agree
        if set(head) <= base.bundles[manip]:
            assert shuffled.bundles == base.bundles
