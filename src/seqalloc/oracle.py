"""Exponential-time ground truth for best responses, any number of agents.

The search branches over the manipulator's pick at each of their turns;
between turns every other agent picks greedily. This is outcome-equivalent
to searching over all m! reports because a report only influences the
outcome through the item picked at each of the manipulator's turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .engine import Encoded, PickState
from .model import BudgetExceededError, Instance, UtilityFunction, ValidationError, complete_order
from .two_agent import ordinal_greedy

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_MAX_TURNS = 16


@dataclass(frozen=True)
class OracleResult:
    max_utility: Fraction
    optimal_bundles: tuple[frozenset[str], ...]
    witness_reports: Mapping[frozenset, tuple[str, ...]]


def _leaf_bundles(
    inst: Instance, manipulator: str, node_budget: int, max_turns: int
) -> Iterator[tuple[frozenset[int], tuple[int, ...]]]:
    """Yield (bundle, manipulator pick order) for every leaf of the search.

    Bundles repeat when different pick orders coincide; items are indices
    into ``inst.items``. Deterministic order: picks tried in canonical item
    order at every branch. The agent and the turn guard are checked before
    the first leaf is asked for.
    """
    enc = Encoded(inst)
    if manipulator not in enc.agent_index:
        raise ValidationError([f"unknown agent {manipulator}"])
    manip = enc.agent_index[manipulator]
    turns = [t for t, a in enumerate(enc.seq) if a == manip]
    if len(turns) > max_turns:
        raise BudgetExceededError(
            f"manipulator has {len(turns)} turns, guard allows {max_turns}"
        )
    m = enc.m
    nodes = 0

    def walk(state: PickState, picks: list[int]):
        # ``state`` is the parent's, shared with the siblings and standing
        # before this node's own pick ``picks[-1]``
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"search exceeded node budget {node_budget}")
        if len(picks) == len(turns):
            # later stages cannot change the manipulator's bundle
            yield frozenset(picks), tuple(picks)
            return
        if picks:
            state = state.copy()
            state.take(picks[-1])
        state.advance(turns[len(picks)])
        taken = state.taken
        for item in range(m):
            if not taken[item]:
                picks.append(item)
                yield from walk(state, picks)
                picks.pop()

    return walk(PickState(enc), [])


def enumerate_achievable_bundles(
    inst: Instance,
    manipulator: str,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_turns: int = DEFAULT_MAX_TURNS,
) -> set[frozenset[str]]:
    """All bundles the manipulator can end up holding under some report."""
    out = set()
    for bundle, _ in _leaf_bundles(inst, manipulator, node_budget, max_turns):
        out.add(frozenset(inst.items[k] for k in bundle))
    return out


def brute_force_best_response(
    inst: Instance,
    u: UtilityFunction,
    manipulator: str,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_turns: int = DEFAULT_MAX_TURNS,
) -> OracleResult:
    """Exact maximum utility, every optimal bundle, one witness report each."""
    leaves = _leaf_bundles(inst, manipulator, node_budget, max_turns)
    vals = u.values_of(manipulator)
    item_values = [vals[o] for o in inst.items]
    best: Fraction | None = None
    argmax: dict[frozenset[int], tuple[int, ...]] = {}
    for bundle, picks in leaves:
        utility = sum((item_values[k] for k in bundle), Fraction(0))
        if best is None or utility > best:
            best = utility
            argmax = {bundle: picks}
        elif utility == best and bundle not in argmax:
            argmax[bundle] = picks
    assert best is not None  # L >= 1 guarantees at least one leaf
    named = {
        frozenset(inst.items[k] for k in bundle): complete_order(
            [inst.items[k] for k in argmax[bundle]], inst.items
        )
        for bundle in sorted(argmax, key=sorted)
    }
    return OracleResult(best, tuple(named), named)


def refuted_greedy_best_response(
    inst: Instance,
    manipulator: str,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_turns: int = DEFAULT_MAX_TURNS,
) -> frozenset[str]:
    """The ordinal greedy known to be suboptimal for three or more agents.

    Scans the manipulator's true order and keeps an item whenever the kept
    set plus that item is contained in some achievable bundle. Correct for
    two agents, not in general.
    """
    achievable = enumerate_achievable_bundles(inst, manipulator, node_budget, max_turns)

    def contained(trial: list[str]) -> bool:
        wanted = set(trial)
        return any(wanted <= bundle for bundle in achievable)

    return frozenset(ordinal_greedy(inst, manipulator, contained))
