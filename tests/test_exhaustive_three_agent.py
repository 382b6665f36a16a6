"""Every small three-agent instance, checked against the exhaustive references.

The family: m = 3 and 4 items i0 .. i(m-1); the manipulator (agent 1) ranks
them i0 first, which loses nothing, since any instance is this one with its
items relabelled; agents 2 and 3 have every order; the sequence is every
word over {1, 2, 3} of length 0..m. That is 1,440 instances at m = 3 and
69,696 at m = 4. The manipulator values i_k at m - k, so at m = 4 bundles
of equal worth, and with them tied optima, occur (i0 + i3 = i1 + i2).
``engine.secures`` is also checked from every node of the manipulator's
pick-order walk, on the whole family at m = 3 and every 10th instance at
m = 4 (the whole m = 4 family takes seconds).
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations, product

from seqalloc.engine import Encoded, PickState, can_achieve, secures, stages_of
from seqalloc.model import UtilityFunction, validate_instance
from seqalloc.oracle import (
    brute_force_best_response,
    count_achievable_bundles,
    enumerate_achievable_bundles,
    first_pick_order,
)

from conftest import take

AGENTS = ("1", "2", "3")
MANIPULATOR = "1"


def _family(m):
    """Every instance of the family with ``m`` items."""
    items = [f"i{k}" for k in range(m)]
    for second, third in product(permutations(items), repeat=2):
        prefs = {"1": items, "2": second, "3": third}
        for length in range(m + 1):
            for sequence in product(AGENTS, repeat=length):
                yield validate_instance(items, AGENTS, prefs, sequence)


def _first_pick_orders(inst):
    """Each reachable bundle's first pick order, walking the manipulator's
    pick orders in index order: at each turn every free item, smallest first."""
    enc = Encoded(inst)
    turns = stages_of(enc.seq, enc.agent_index[MANIPULATOR])
    first = {}

    def walk(state, picks):
        if len(picks) == len(turns):
            first.setdefault(frozenset(inst.items[k] for k in picks), picks)
            return
        state.advance(turns[len(picks)])
        for item in range(enc.m):
            if not state.taken[item]:
                child = state.copy()
                take(child, item)
                walk(child, picks + [item])

    walk(PickState(enc), [])
    return first


def _check(m, walk):
    items = [f"i{k}" for k in range(m)]
    u = UtilityFunction({MANIPULATOR: {o: Fraction(m - k) for k, o in enumerate(items)}})
    worth = dict(zip(items, range(m, 0, -1)))
    seen = Counter()
    for inst in _family(m):
        res = brute_force_best_response(inst, u, MANIPULATOR)
        bundles = enumerate_achievable_bundles(inst, MANIPULATOR)
        assert count_achievable_bundles(inst, MANIPULATOR) == len(bundles), inst
        value = {b: sum(map(worth.__getitem__, b)) for b in bundles}
        best = max(value.values())
        assert res.max_utility == best, inst
        assert set(res.optimal_bundles) == {b for b, v in value.items() if v == best}, inst
        if walk:
            first = _first_pick_orders(inst)
            assert bundles == set(first), inst
            # ``secures``, from the start state: S is achievable iff the walk
            # reaches a bundle that contains it
            enc = Encoded(inst)
            manip = enc.agent_index[MANIPULATOR]
            for size in range(m + 1):
                for S in combinations(range(m), size):
                    names = {inst.items[k] for k in S}
                    reached = any(names <= bundle for bundle in first)
                    assert can_achieve(enc, manip, S) == reached, (inst, S)
                    seen["subsets"] += 1
            turns = inst.turns(MANIPULATOR)
            for bundle in res.optimal_bundles:
                head = res.witness_reports[bundle][:turns]
                assert list(head) == [inst.items[k] for k in first[bundle]], (inst, bundle)
        seen["instances"] += 1
        seen["tied"] += len(res.optimal_bundles) > 1
    return seen


def test_every_three_agent_instance_with_three_items():
    seen = _check(3, walk=True)
    assert seen["instances"] == 1440 and seen["subsets"] == 1440 * 2**3, seen


def test_every_three_agent_instance_with_four_items():
    seen = _check(4, walk=False)
    assert seen["instances"] == 69696 and seen["tied"], seen


def _check_mid_run(instances):
    """``secures`` from every node of every manipulator pick-order walk.

    A node is the state at the manipulator's j-th turn, after its picks so
    far. For every set S of free items, ``secures(state, turns[j:], S)`` is
    not None iff some completion from the node picks every item of S, that
    is, reaches a bundle that contains the picks and S; and then
    ``first_pick_order(S, due)`` can be played from the node.
    """
    seen = Counter()
    for inst in instances:
        enc = Encoded(inst)
        turns = stages_of(enc.seq, enc.agent_index[MANIPULATOR])

        def walk(state, j):
            """The item sets that the manipulator can pick from turn j on."""
            if j == len(turns):
                return {frozenset()}
            state.advance(turns[j])
            free = [k for k in range(enc.m) if not state.taken[k]]
            completions = set()
            for item in free:
                child = state.copy()
                take(child, item)
                completions.update(c | {item} for c in walk(child, j + 1))
            for size in range(len(free) + 1):
                for S in combinations(free, size):
                    due = secures(state, turns[j:], S)
                    reached = any(c.issuperset(S) for c in completions)
                    assert (due is not None) == reached, (inst, turns[j], S)
                    if reached:
                        play = state.copy()
                        for turn, item in zip(turns[j:], first_pick_order(list(S), due)):
                            play.advance(turn)
                            assert not play.taken[item], (inst, turns[j], S, item)
                            take(play, item)
                    seen["checks"] += 1
            seen["nodes"] += 1
            return completions

        if turns:
            walk(PickState(enc), 0)
        seen["instances"] += 1
    return seen


def test_secures_from_every_mid_run_state_with_three_items():
    seen = _check_mid_run(_family(3))
    assert seen == {"instances": 1440, "nodes": 1908, "checks": 8064}, seen


def test_secures_from_every_mid_run_state_of_every_tenth_four_item_instance():
    seen = _check_mid_run(islice(_family(4), 0, None, 10))
    assert seen == {"instances": 6970, "nodes": 20612, "checks": 114174}, seen
