"""Exact best responses for any number of agents, by search.

``brute_force_best_response`` is a branch and bound over target sets. It
tries items in falling order of the manipulator's value and extends the
kept set by an item only if ``engine.can_achieve`` says some report still
secures the extended set. Achievable sets are closed under subsets, and the
manipulator always ends with one item per turn, so the leaves are exactly
the achievable bundles and the recursion is at most as deep as the
manipulator's turn count. A branch is cut when its kept value plus the best
values that could fill its free turns is below the best bundle found, so
tied optima all survive. ``node_budget`` bounds the achievability checks,
those that build the witnesses included; there is no turn guard.

``enumerate_achievable_bundles`` is the exhaustive reference. It branches
over the manipulator's pick at each of their turns; between turns every
other agent picks greedily. This is outcome-equivalent to searching over
all m! reports because a report only influences the outcome through the
item picked at each of the manipulator's turns. It is bounded by a node
budget and by a guard of ``MAX_TURNS`` manipulator turns.

The refuted ordinal greedy does not search: it asks ``engine.can_achieve``,
a polynomial test, whether each extension of its kept set is achievable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Mapping

from .engine import Encoded, PickState, can_achieve, secures, stages_of
from .model import (
    BudgetExceededError,
    Instance,
    UtilityFunction,
    ValidationError,
    complete_order,
    integer_values,
)
from .two_agent import ordinal_greedy

DEFAULT_NODE_BUDGET = 2_000_000
MAX_TURNS = 16  # of enumerate_achievable_bundles, checked before any node is visited


@dataclass(frozen=True)
class OracleResult:
    max_utility: Fraction
    optimal_bundles: tuple[frozenset[str], ...]
    witness_reports: Mapping[frozenset, tuple[str, ...]]
    checks: int  # achievability checks made, the unit of ``node_budget``


def _agent(enc: Encoded, manipulator: str) -> int:
    """The manipulator's agent index; ValidationError if it is unknown."""
    if manipulator not in enc.agent_index:
        raise ValidationError([f"unknown agent {manipulator}"])
    return enc.agent_index[manipulator]


def _walk(
    state: PickState,
    turns: list[int],
    picks: list[int],
    reached: set[frozenset[int]],
    nodes: int,
    node_budget: int,
) -> int:
    """Visit the node reached by ``picks``; return the nodes counted so far.

    ``state`` is the parent's, shared with the siblings and standing before
    this node's own pick ``picks[-1]``.
    """
    if nodes == node_budget:
        raise BudgetExceededError(
            f"search exceeded node budget {node_budget} after {nodes} nodes,"
            f" {len(reached)} bundles found",
            limit=node_budget, used=nodes, unit="nodes",
        )
    nodes += 1
    if len(picks) == len(turns):
        # later stages cannot change the manipulator's bundle
        reached.add(frozenset(picks))
        return nodes
    if picks:
        state = state.copy()
        state.take(picks[-1])
    state.advance(turns[len(picks)])
    taken = state.taken
    for item in range(len(taken)):
        if not taken[item]:
            picks.append(item)
            nodes = _walk(state, turns, picks, reached, nodes, node_budget)
            picks.pop()
    return nodes


def enumerate_achievable_bundles(
    inst: Instance, manipulator: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> set[frozenset[str]]:
    """All bundles the manipulator can end up holding under some report."""
    enc = Encoded(inst)
    turns = stages_of(enc.seq, _agent(enc, manipulator))
    if len(turns) > MAX_TURNS:
        raise BudgetExceededError(
            f"manipulator has {len(turns)} turns, guard allows {MAX_TURNS}",
            limit=MAX_TURNS, used=len(turns), unit="turns",
        )
    reached: set[frozenset[int]] = set()
    _walk(PickState(enc), turns, [], reached, 0, node_budget)
    return {frozenset(inst.items[k] for k in bundle) for bundle in reached}


def brute_force_best_response(
    inst: Instance,
    u: UtilityFunction,
    manipulator: str,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Exact maximum utility, every optimal bundle, one witness report each.

    Optimal bundles come in canonical order: by their item indices, sorted
    and compared lexicographically. Each witness is its bundle's smallest
    manipulator pick order by item index, completed by ``complete_order``.
    """
    enc = Encoded(inst)
    manip = _agent(enc, manipulator)
    worth, scale = integer_values(u, manipulator, inst.items)
    turns = stages_of(enc.seq, manip)
    checks = 0

    def spend_check() -> None:
        nonlocal checks
        if checks == node_budget:
            raise BudgetExceededError(
                f"search exceeded node budget {node_budget} after {checks} achievability checks",
                limit=node_budget, used=checks, unit="achievability checks",
            )
        checks += 1

    # items by falling value
    order = sorted(range(enc.m), key=lambda k: (-worth[k], k))
    prefix = [0]  # prefix[j]: worth of the first j items in ``order``
    for k in order:
        prefix.append(prefix[-1] + worth[k])
    kept: list[int] = []
    optima: list[list[int]] = []
    best = -inf

    def extend(pos: int, value: int) -> None:
        """Fill the free turns from ``order[pos:]``, given ``kept`` worth ``value``."""
        nonlocal best
        free = len(turns) - len(kept)
        if not free:
            if value > best:
                best = value
                optima.clear()
            if value == best:
                optima.append(sorted(kept))
            return
        for j in range(pos, enc.m - free + 1):
            if value + prefix[j + free] - prefix[j] < best:
                break  # later windows are worth no more
            spend_check()
            kept.append(order[j])
            if can_achieve(enc, manip, kept):
                extend(j + 1, value + worth[order[j]])
            kept.pop()

    def first_pick_order(bundle: list[int]) -> list[int]:
        """At each turn, the smallest item after which the rest stays achievable."""
        state = PickState(enc)
        needed = set(bundle)
        picks = []
        for c, t in enumerate(turns):
            state.advance(t)
            for item in sorted(needed)[:-1]:
                spend_check()
                trial = state.copy()
                trial.take(item)
                if secures(trial, turns[c + 1 :], needed - {item}):
                    break
            else:  # the last candidate: some item must work
                item = max(needed)
            state.take(item)
            needed.remove(item)
            picks.append(item)
        return picks

    extend(0, 0)
    named = {
        frozenset(inst.items[k] for k in bundle): complete_order(
            [inst.items[k] for k in first_pick_order(bundle)], inst.items
        )
        for bundle in sorted(optima)
    }
    return OracleResult(Fraction(best, scale), tuple(named), named, checks)


def refuted_greedy_best_response(inst: Instance, manipulator: str) -> frozenset[str]:
    """The ordinal greedy known to be suboptimal for three or more agents.

    Scans the manipulator's true order and keeps an item whenever some
    report gives a bundle containing the kept set plus that item
    (``engine.can_achieve``). Correct for two agents, not in general.
    """
    enc = Encoded(inst)
    manip = _agent(enc, manipulator)
    index = enc.item_index
    return frozenset(
        ordinal_greedy(
            inst, manipulator, lambda trial: can_achieve(enc, manip, [index[o] for o in trial])
        )
    )
