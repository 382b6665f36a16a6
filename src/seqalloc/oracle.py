"""Exponential-time ground truth for best responses, any number of agents.

The search branches over the manipulator's pick at each of their turns;
between turns every other agent picks greedily. This is outcome-equivalent
to searching over all m! reports because a report only influences the
outcome through the item picked at each of the manipulator's turns. The
search is bounded by a node budget and by a guard of ``MAX_TURNS``
manipulator turns.

The refuted ordinal greedy does not search: it asks ``engine.can_achieve``,
a polynomial test, whether each extension of its kept set is achievable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .engine import Encoded, PickState, can_achieve, stages_of
from .model import BudgetExceededError, Instance, UtilityFunction, ValidationError, complete_order
from .two_agent import ordinal_greedy

DEFAULT_NODE_BUDGET = 2_000_000
MAX_TURNS = 16  # checked before any node is visited


@dataclass(frozen=True)
class OracleResult:
    max_utility: Fraction
    optimal_bundles: tuple[frozenset[str], ...]
    witness_reports: Mapping[frozenset, tuple[str, ...]]


def _agent(enc: Encoded, manipulator: str) -> int:
    """The manipulator's agent index; ValidationError if it is unknown."""
    if manipulator not in enc.agent_index:
        raise ValidationError([f"unknown agent {manipulator}"])
    return enc.agent_index[manipulator]


def _achievable(
    enc: Encoded, manip: int, node_budget: int
) -> dict[frozenset[int], tuple[int, ...]]:
    """Map each achievable bundle to the first pick order that reaches it.

    Items are indices into the instance's items. Picks are tried in
    canonical item order at every branch, so the first pick order to reach
    a bundle is its smallest by item index.
    """
    turns = stages_of(enc.seq, manip)
    if len(turns) > MAX_TURNS:
        raise BudgetExceededError(f"manipulator has {len(turns)} turns, guard allows {MAX_TURNS}")
    reached: dict[frozenset[int], tuple[int, ...]] = {}
    _walk(PickState(enc), turns, [], reached, 0, node_budget)
    return reached


def _walk(
    state: PickState,
    turns: list[int],
    picks: list[int],
    reached: dict[frozenset[int], tuple[int, ...]],
    nodes: int,
    node_budget: int,
) -> int:
    """Visit the node reached by ``picks``; return the nodes counted so far.

    ``state`` is the parent's, shared with the siblings and standing before
    this node's own pick ``picks[-1]``.
    """
    nodes += 1
    if nodes > node_budget:
        raise BudgetExceededError(f"search exceeded node budget {node_budget}")
    if len(picks) == len(turns):
        # later stages cannot change the manipulator's bundle
        reached.setdefault(frozenset(picks), tuple(picks))
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
    reached = _achievable(enc, _agent(enc, manipulator), node_budget)
    return {frozenset(inst.items[k] for k in bundle) for bundle in reached}


def brute_force_best_response(
    inst: Instance,
    u: UtilityFunction,
    manipulator: str,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Exact maximum utility, every optimal bundle, one witness report each."""
    enc = Encoded(inst)
    manip = _agent(enc, manipulator)
    vals = u.values_of(manipulator, inst.items)
    reached = _achievable(enc, manip, node_budget)
    item_values = [vals[o] for o in inst.items]
    utility = {b: sum((item_values[k] for k in b), Fraction(0)) for b in reached}
    best = max(utility.values())
    named = {
        frozenset(inst.items[k] for k in bundle): complete_order(
            [inst.items[k] for k in reached[bundle]], inst.items
        )
        for bundle in sorted((b for b in reached if utility[b] == best), key=sorted)
    }
    return OracleResult(best, tuple(named), named)


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
