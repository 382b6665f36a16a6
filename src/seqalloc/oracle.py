"""Exact best responses for any number of agents, by search.

``brute_force_best_response`` is a branch and bound over target sets. It
tries items in falling order of the manipulator's value and extends the
kept set by an item only if the one-pass achievability rule
(``engine.secures``, from one state at the manipulator's first turn that
every check shares) says some report still secures the extended set.
Achievable sets are closed under subsets, and the manipulator always ends
with one item per turn, so the leaves are exactly the achievable bundles
and the recursion is at most as deep as the manipulator's turn count. A
branch is cut when its kept value plus the best values that could fill its
free turns is below the best bundle found, so tied optima all survive.
Each optimum keeps the due turns of its leaf check, from which
``first_pick_order`` builds its witness without a replay, so
``node_budget`` bounds the search's achievability checks and the witnesses
spend none.

``enumerate_achievable_bundles`` is the exhaustive reference. Searching
the manipulator's pick at each of their turns is outcome-equivalent to
searching all m! reports, because a report only influences the outcome
through the item picked at each of the manipulator's turns. The search goes
turn by turn and keeps the states that some pick order reaches at that
turn, a state being the pair (items taken, manipulator's picks). Three
facts make it exact:

- Merging is exact. The other agents pick greedily, so what they pick from
  a turn on depends only on which items are free then. Pick orders that
  reach the same pair reach the same bundles, and one state stands for all
  of them.
- The others' picks depend only on the items taken, never on which of
  them the manipulator picked. So a turn's states are grouped by their
  taken set, and each group is replayed once for all its pick sets: every
  move found, a next taken set and the manipulator's pick, applies to the
  whole group.
- One pass replay serves every candidate outside it. From a taken set, the
  others play to the manipulator's next turn as if the manipulator passed.
  If the manipulator instead takes an item x that no other agent takes in
  that replay, each other agent still finds its replayed pick free and
  every item it prefers taken, so the others pick exactly as replayed.
  Only the items the others take in the replay, at most one per other
  stage before the next turn, need a replay of their own.

  Groups whose pass replays leave the same taken set share those moves,
  so they are applied once per taken set after the pass, to the union of
  the groups' pick sets.

At the last turn later stages cannot change the manipulator's bundle, so
the bundles are the picks plus each free item: each pick set's names as one
``frozenset``, joined with each free item's. ``node_budget`` counts nodes:
the root and each (state, candidate pick), the candidates at the last turn
being the leaf bundles; a group charges its pick sets times its free items
before its replays. Item sets are ints until the last turn, every replay
resets one ``PickState`` to a taken set, and a group is dropped as soon as
it is expanded. Memory grows with the states of one turn, at most one per
node: about 50 MiB peak RSS at the default budget on the instance that
``enumerate_achievable_bundles`` describes. ``node_budget`` is each
search's only limit.

The refuted ordinal greedy does not search: it asks ``engine.secures``, a
polynomial test, from one shared state at the manipulator's first turn,
whether each extension of its kept set is achievable.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Mapping
from fractions import Fraction
from itertools import compress
from math import inf
from operator import itemgetter

from .engine import Encoded, PickState, secures, stages_of
from .model import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    Instance,
    Record,
    UtilityFunction,
    ValidationError,
    check_budget,
    complete_order,
    integer_values,
)
from .two_agent import ordinal_greedy


class OracleResult(Record):
    max_utility: Fraction
    optimal_bundles: tuple[frozenset[str], ...]
    witness_reports: Mapping[frozenset, tuple[str, ...]]
    checks: int  # the search's achievability checks, the unit of ``node_budget``


def _setup(inst: Instance, manipulator: str) -> tuple[Encoded, list[int], PickState]:
    """The encoded instance, the manipulator's stages and a state advanced to
    their first turn (none if they have no turn), which ``secures`` leaves as
    it is, so every check can share it; ValidationError if the manipulator is
    unknown."""
    enc = Encoded(inst)
    if manipulator not in enc.agent_index:
        raise ValidationError([f"unknown agent {manipulator}"])
    turns = stages_of(enc.seq, enc.agent_index[manipulator])
    start = PickState(enc)
    start.advance(turns[0] if turns else 0)
    return enc, turns, start


def _spend(used: int, count: int, budget: int, unit: str, progress: Callable[[], str]) -> int:
    """``used`` plus ``count`` more ``unit``; BudgetExceededError past ``budget``.

    Raises as counting one by one would: after using the whole budget, with
    ``progress()`` saying how far the search got.
    """
    if used + count > budget:
        raise BudgetExceededError(
            f"search exceeded node budget {budget} after {budget} {unit}, {progress()}",
            limit=budget, used=budget, unit=unit,
        )
    return used + count


def enumerate_achievable_bundles(
    inst: Instance, manipulator: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> set[frozenset[str]]:
    """All bundles the manipulator can end up holding under some report.

    Searches turn by turn over merged (taken, picks) states, grouped by the
    items taken, with one pass replay per group (see the module docstring).
    Item sets, taken and picked alike, are ints with bit 0 of byte k
    standing for item k, so a ``PickState.taken`` converts with one
    ``int.from_bytes``; the last turn builds the bundles as name sets, so
    none is decoded from an int. ValidationError if ``node_budget`` is negative.
    BudgetExceededError once the root and the (state, candidate pick) nodes
    exceed ``node_budget``; its message names the turn reached (0 being the
    root) out of the manipulator's turns, and that turn's number of merged
    states, both independent of the order in which the groups are expanded.

    One turn's merged states are held at once, so memory grows with
    ``node_budget``: three agents with near-identical orders of 30 items,
    under round robin with 10 turns each, exceed the default budget at
    turn 6, with 129,456 merged states, at about 50 MiB peak RSS on
    CPython 3.11.
    """
    check_budget("node_budget", node_budget)
    turn = held = 0  # the turn reached (0 at the root) and its number of merged states

    def progress() -> str:
        return f"at turn {turn} of {inst.turns(manipulator)} with {held} merged states"

    # the root, charged before the set-up advances to the first turn, so a
    # zero budget raises before any replay (and before the manipulator is
    # looked up)
    nodes = _spend(0, 1, node_budget, "nodes", progress)
    enc, turns, root = _setup(inst, manipulator)
    if not turns:
        return {frozenset()}
    m = enc.m
    bit = [1 << 8 * k for k in range(m)]
    every = sum(bit)
    state = PickState(enc)  # every replay resets this one state
    fresh = [0] * len(enc.prefs)

    def resume(taken: int, stage: int) -> PickState:
        """The state at ``stage`` with the items of ``taken`` taken."""
        state.taken[:] = taken.to_bytes(m, "little")
        state.cursor[:] = fresh
        state.stage = stage
        return state

    # taken -> the manipulator's pick sets
    states: dict[int, set[int]] = {int.from_bytes(root.taken, "little"): {0}}
    for turn, (now, stop) in enumerate(zip(turns, turns[1:]), 1):
        merged: defaultdict[int, set[int]] = defaultdict(set)
        passed: defaultdict[int, set[int]] = defaultdict(set)  # taken after the pass -> pick sets
        held = sum(map(len, states.values()))
        while states:  # a group is dropped as it is expanded, to bound the peak
            taken, mines = states.popitem()
            nodes = _spend(
                nodes, len(mines) * (every ^ taken).bit_count(), node_budget, "nodes", progress
            )
            # the others' picks depend only on ``taken``, so each move (next
            # taken set, pick) applies to all of ``mines`` at once; one pass
            # replay gives the moves of the candidates that the others would
            # not take themselves before ``stop``, one replay each the rest
            lost = resume(taken, now + 1).advance(stop)  # the manipulator passes
            passed[int.from_bytes(state.taken, "little")].update(mines)
            for k in lost:
                resume(taken | bit[k], now + 1).advance(stop)
                merged[int.from_bytes(state.taken, "little")].update(map(bit[k].__or__, mines))
        # the moves past the others' pass, once per taken set after it
        for after, mines in passed.items():
            for b in compress(bit, (every ^ after).to_bytes(m, "little")):
                merged[after | b].update(map(b.__or__, mines))
        states = merged
    turn, held = len(turns), sum(map(len, states.values()))
    # later stages cannot change the manipulator's bundle
    single = [frozenset((o,)) for o in inst.items]
    reached: set[frozenset[str]] = set()
    while states:
        taken, mines = states.popitem()
        free = list(compress(single, (every ^ taken).to_bytes(m, "little")))
        nodes = _spend(nodes, len(mines) * len(free), node_budget, "nodes", progress)
        for mine in mines:
            named = frozenset(compress(inst.items, mine.to_bytes(m, "little")))
            reached.update(map(named.union, free))
    return reached


def brute_force_best_response(
    inst: Instance,
    u: UtilityFunction,
    manipulator: str,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Exact maximum utility, every optimal bundle, one witness report each.

    Optimal bundles come in canonical order: by their item indices, sorted
    and compared lexicographically. Each witness is its bundle's smallest
    manipulator pick order by item index, completed by ``complete_order``;
    it comes from the due turns of the bundle's leaf check, at no check.
    ValidationError if ``node_budget`` is negative. BudgetExceededError once
    the achievability checks would exceed ``node_budget``; its message also
    names the best utility found so far and the optimal bundles held.
    """
    check_budget("node_budget", node_budget)
    enc, turns, start = _setup(inst, manipulator)  # every check shares ``start``
    worth, scale = integer_values(u, manipulator, inst.items)
    checks = 0

    def held() -> str:
        found = Fraction(best, scale) if optima else "none"
        return f"best utility so far {found}, {len(optima)} optimal bundles held"

    # items by falling value
    order = sorted(range(enc.m), key=lambda k: (-worth[k], k))
    prefix = [0]  # prefix[j]: worth of the first j items in ``order``
    for k in order:
        prefix.append(prefix[-1] + worth[k])
    kept: list[int] = []
    optima: list[tuple[list[int], dict[int, int]]] = []  # each with its leaf's due turns
    best = -inf

    def extend(pos: int, value: int, due: dict[int, int]) -> None:
        """Fill the free turns from ``order[pos:]``, given ``kept`` worth
        ``value`` with due turns ``due``."""
        nonlocal best, checks
        free = len(turns) - len(kept)
        if not free:
            if value > best:
                best = value
                optima.clear()
            if value == best:
                optima.append((sorted(kept), due))
            return
        for j in range(pos, enc.m - free + 1):
            if value + prefix[j + free] - prefix[j] < best:
                break  # later windows are worth no more
            checks = _spend(checks, 1, node_budget, "achievability checks", held)
            kept.append(order[j])
            found = secures(start, turns, kept)
            if found is not None:
                extend(j + 1, value + worth[order[j]], found)
            kept.pop()

    extend(0, 0, {})
    named = {
        frozenset(inst.items[k] for k in bundle): complete_order(
            [inst.items[k] for k in first_pick_order(bundle, due)], inst.items
        )
        for bundle, due in sorted(optima, key=itemgetter(0))
    }
    return OracleResult(Fraction(best, scale), tuple(named), named, checks)


def first_pick_order(bundle: list[int], due: Mapping[int, int]) -> list[int]:
    """The smallest pick order by item index that secures ``bundle``.

    ``due`` holds each item's due turn, as ``engine.secures`` returns it
    for the whole bundle from the manipulator's first turn. The orders that
    secure the bundle are exactly those that take each item at a turn below
    its due turn (see ``engine.can_achieve``), so no replay is needed. At
    turn c the remaining items' due turns, sorted as d_0 <= d_1 <= ...,
    have d_i > c + i. Taking one of them leaves the others feasible from
    turn c + 1 (earliest deadline first) iff its due turn is at most the
    first d_i with no turn to spare, d_i = c + 1 + i, if there is one; the
    smallest such item is taken.
    """
    left = sorted(bundle)
    picks = []
    for c in range(len(left)):
        ranked = sorted(map(due.__getitem__, left))
        cap = next((d for i, d in enumerate(ranked, c + 1) if d == i), inf)
        item = next(k for k in left if due[k] <= cap)
        left.remove(item)
        picks.append(item)
    return picks


def refuted_greedy_best_response(inst: Instance, manipulator: str) -> frozenset[str]:
    """The ordinal greedy known to be suboptimal for three or more agents.

    Scans the manipulator's true order and keeps an item whenever some
    report gives a bundle containing the kept set plus that item
    (``engine.secures``, every check from one state at the manipulator's
    first turn). Correct for two agents, not in general. It is exact under
    lexicographic utilities for any number of agents: a greedy in preference
    order over a subset-closed family finds the lexicographic maximum.
    """
    enc, turns, start = _setup(inst, manipulator)  # every check shares ``start``
    index = enc.item_index
    kept: list[int] = []

    def accepts(o: str) -> bool:
        kept.append(index[o])
        if secures(start, turns, kept) is not None:
            return True
        kept.pop()
        return False

    return frozenset(ordinal_greedy(inst, manipulator, accepts))
