import itertools
import random

import pytest

from seqalloc.engine import (
    Encoded,
    PickState,
    can_achieve,
    run_sequential_allocation,
    run_with_report,
    secures,
    stages_of,
)
from seqalloc.model import ValidationError, validate_instance
from seqalloc.oracle import enumerate_achievable_bundles
from seqalloc.reduction import build_instance, verify_choice_patterns, verify_forward

from conftest import encoded_view, random_instance, random_restricted_formula, take


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
            take(branch, item)
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


def test_pick_state_copy_keeps_the_subclass():
    """A subclass's copy is of that subclass, with equal fields of its own."""

    class SubState(PickState):
        __slots__ = ()

    inst = validate_instance(
        items=["a", "b", "c"], agents=["1", "2"],
        preferences={"1": ["a", "b", "c"], "2": ["b", "a", "c"]}, sequence=["1", "2", "1"],
    )
    state = SubState(Encoded(inst))
    state.advance(2)
    twin = state.copy()
    assert type(twin) is SubState
    assert twin.enc is state.enc and twin.stage == state.stage == 2
    assert twin.taken == state.taken == bytearray([1, 1, 0])
    assert twin.cursor == state.cursor == [1, 1]
    assert twin.taken is not state.taken and twin.cursor is not state.cursor


def test_can_achieve_matches_exhaustive_walk_on_every_subset():
    """The one-pass rule against containment in the oracle's bundles."""
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


def _edf_secures(state, turns, needed):
    """The slow reference for ``secures``: earliest deadline first.

    At each of the manipulator's stages, take the needed item that the other
    agents would take first if the manipulator passed from then on, or any
    needed item if they would take none. Plays on ``state`` and ``needed``
    themselves.
    """
    if len(needed) > len(turns):
        return False
    for c, t in enumerate(turns[: len(needed)]):  # one needed item per turn
        state.advance(t)
        if any(state.taken[k] for k in needed):
            return False
        item = _edf_first_lost(state, turns[c + 1 :], needed)
        take(state, item)
        needed.remove(item)
    return True


def _edf_first_lost(state, later_turns, needed):
    """The needed item the other agents take first if the manipulator passes."""
    look = state.copy()
    for stop in later_turns + [len(state.enc.seq)]:
        look.stage += 1  # the manipulator passes
        for item in look.advance(stop):
            if item in needed:
                return item
    return min(needed)


def _due_by_replay(state, turns, needed):
    """The slow reference for ``secures``'s due turns, stage by stage.

    The other agents play from ``state`` while the manipulator passes, each
    scanning its whole order for the first item neither taken nor needed;
    a needed item ranked above that pick falls due then, at the number of
    ``turns`` already past, capped at ``len(needed)``. The set is secured
    iff no needed item is taken, there are enough turns and, with the due
    turns sorted, the i-th (from 0) is above i. Changes neither argument.
    """
    goal = len(needed)
    if goal > len(turns) or any(state.taken[k] for k in needed):
        return None
    taken = set(k for k in range(state.enc.m) if state.taken[k])
    due = dict.fromkeys(needed, goal)
    gone = set()
    for stage in range(state.stage, len(state.enc.seq)):
        if stage in turns:
            continue
        before = min(goal, sum(t < stage for t in turns))
        for k in state.enc.prefs[state.enc.seq[stage]]:
            if k in needed:
                if k not in gone:
                    gone.add(k)
                    due[k] = before
            elif k not in taken:
                taken.add(k)
                break
    ranked = sorted(due.values())
    if any(d <= i for i, d in enumerate(ranked)):
        return None
    return due


def test_one_pass_rule_matches_earliest_deadline_reference():
    """``can_achieve`` and ``secures`` against the per-turn replaying rule, and
    ``secures``'s due turns against the stage-by-stage replay, from the start
    and from mid-run states; ``secures`` changes nothing it gets."""
    rng = random.Random(26)
    seen = {"over_turns": 0, "short_sequence": 0, "resumed": 0, "due": 0, True: 0, False: 0}
    for _ in range(3000):
        m = rng.randint(2, 14)
        inst = random_instance(rng, n=rng.randint(2, 5), m=m, L=rng.choice([None, m]))
        enc = Encoded(inst)
        manip = rng.randrange(len(inst.agents))
        turns = stages_of(enc.seq, manip)
        seen["short_sequence"] += len(inst.sequence) < m
        # mostly targets near the turn count, where either verdict is common
        size = min(m, max(0, len(turns) + rng.randint(-2, 1)))
        target = rng.sample(range(m), size)
        verdict = can_achieve(enc, manip, target)
        assert verdict == _edf_secures(PickState(enc), turns, set(target)), (inst, manip, target)
        due = secures(PickState(enc), turns, target)
        assert due == _due_by_replay(PickState(enc), turns, target), (inst, manip, target)
        assert (due is not None) == verdict
        seen[verdict] += 1
        seen["over_turns"] += size > len(turns)

        # resume after some greedy stages and manipulator takes
        state = PickState(enc)
        for t in turns[: rng.randint(0, len(turns))]:
            state.advance(t)
            take(state, rng.choice([k for k in range(m) if not state.taken[k]]))
        state.advance(rng.randint(state.stage, len(enc.seq)))
        later = [t for t in turns if t >= state.stage]
        free = [k for k in range(m) if not state.taken[k]]
        needed = set(rng.sample(free, min(len(free), max(0, len(later) + rng.randint(-2, 0)))))
        if rng.random() < 0.1:  # an item already gone
            needed.add(rng.choice([k for k in range(m) if state.taken[k]] or free))
        before = (state.stage, bytes(state.taken), list(state.cursor), set(needed))
        got = secures(state, later, needed)
        assert (state.stage, bytes(state.taken), list(state.cursor), set(needed)) == before
        assert got == _due_by_replay(state, later, needed), (inst, manip, before)
        assert (got is not None) == _edf_secures(state.copy(), later, set(needed)), before
        seen["due"] += bool(got) and min(got.values()) < len(needed)  # a scan reached one
        seen["resumed"] += state.stage > 0
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


@pytest.mark.parametrize("seed, num_vars", [(1, 3), (2, 3), (3, 6)])
def test_the_pattern_sweep_leaves_the_shared_encoding_as_built(seed, num_vars):
    """The sweep rewrites a private manipulator row: the compiled instance's
    held encoding stays a fresh encoding's, and replays from it after a
    sweep answer as on a fresh compile."""
    rng = random.Random(seed)
    f = random_restricted_formula(rng, num_vars)
    out, fresh = build_instance(f), build_instance(f)
    verify_choice_patterns(out)
    assert encoded_view(out.instance.encoded) == encoded_view(Encoded(out.instance))
    assert run_sequential_allocation(out.instance) == run_sequential_allocation(fresh.instance)
    assignments = f.satisfying_assignments()[:3]
    assignments += [{v: rng.random() < 0.5 for v in f.variables()} for _ in range(3)]
    for assignment in assignments:
        assert verify_forward(out, assignment) == verify_forward(fresh, assignment)
