"""Exact polynomial-time best response and Nash verification for two agents.

Achievability of a target set S is decided in closed form, without running
the engine. Let s_0 < s_1 < ... be the 0-based stages at which the
manipulator picks, and p_0 < p_1 < ... the opponent's 0-based ranks of the
items of S. S is achievable iff |S| is at most the manipulator's turn count
and s_j <= p_j for every j: the canonical report (the target items first,
in the opponent's relative order) then yields a bundle containing S, and no
report does otherwise. For a target smaller than the manipulator's turn
count, "achievable" means some report yields a bundle containing it.

The same rule in prefix form: with H(x) the number of manipulator stages
<= x, S is achievable iff every prefix x of the opponent's order holds at
most H(x) items of S (x = m - 1 bounds |S| by the turns, as the sequence is
no longer than m). That is the feasibility of unit tasks with deadlines:
item o is a task due by slot H(rank of o), and there are turns slots. The
best response schedules each kept item in the latest free slot by its
deadline, found by a union-find over the slots (CLRS, Problem 16-4), so a
best response costs O(m alpha(m)), with no call of the closed form per
item.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable

from .engine import Encoded, can_achieve, run_sequential_allocation, stages_of
from .model import (
    Instance,
    UtilityFunction,
    ValidationError,
    bundle_utility,
    complete_order,
    order_from_utilities,
    row_problems,
)


def _require_two_agents(inst: Instance) -> None:
    if len(inst.agents) != 2:
        raise ValidationError(
            [f"two-agent algorithm called on an instance with {len(inst.agents)} agents"]
        )


def _opponent(inst: Instance, manipulator: str) -> str:
    a, b = inst.agents
    if manipulator == a:
        return b
    if manipulator == b:
        return a
    raise ValidationError([f"unknown agent {manipulator}"])


def canonical_report(
    S: Iterable[str], opponent_pref: tuple[str, ...], all_items: tuple[str, ...]
) -> tuple[str, ...]:
    """Target items first, sorted by the opponent's preference; then the rest.

    The tail order never affects the outcome, so the fixed canonical item
    order is used to keep outputs deterministic.
    """
    S = _known_items(S, all_items)
    rank = {o: k for k, o in enumerate(opponent_pref)}
    return complete_order(sorted(S, key=rank.__getitem__), all_items)


def _known_items(S: Iterable[str], items: Iterable[str]) -> set[str]:
    """``S`` as a set; ValidationError if it names an item outside ``items``."""
    S = set(S)
    unknown = S.difference(items)
    if unknown:
        raise ValidationError([f"unknown items in target set: {sorted(unknown)}"])
    return S


def is_achievable(S: Iterable[str], inst: Instance, manipulator: str) -> bool:
    """True iff some report gives the manipulator a bundle containing S.

    Closed form, O(m) and no engine run: with s_j the stage of the
    manipulator's j-th pick and p_j the j-th smallest opponent rank among
    the items of S (both 0-based), S is achievable iff |S| <= turns and
    s_j <= p_j for every j. Before stage s_j the opponent has picked
    s_j - j times, and p_j - j items outside S rank above the j-th target.
    """
    _require_two_agents(inst)
    opponent = _opponent(inst, manipulator)
    opp_pref = inst.preferences[opponent]
    rank = dict(zip(opp_pref, range(len(opp_pref))))
    ranks = sorted(rank[o] for o in _known_items(S, rank))
    stages = stages_of(inst.sequence, manipulator)
    return len(ranks) <= len(stages) and all(s <= p for s, p in zip(stages, ranks))


def achievability_certificate(S: Iterable[str], inst: Instance, manipulator: str) -> bool:
    """The engine reference for ``is_achievable``: ``engine.can_achieve``.

    One replay on the engine's picking state: the opponent picks around the
    reserved target items while the manipulator passes, and Hall's condition
    on the stages at which the opponent reaches them decides. It does not
    use the closed form.
    """
    _require_two_agents(inst)
    _opponent(inst, manipulator)  # rejects an unknown manipulator
    S = _known_items(S, inst.items)
    enc = Encoded(inst)
    return can_achieve(enc, enc.agent_index[manipulator], [enc.item_index[o] for o in S])


def ordinal_greedy(
    inst: Instance, manipulator: str, achievable: Callable[[list[str]], bool]
) -> list[str]:
    """Bouveret and Lang's greedy over the manipulator's true order.

    Keeps an item whenever ``achievable`` accepts the kept items plus it,
    until the manipulator's turns are used up. A best response for two
    agents, not for three or more. The greedy keeps an item iff its test
    accepts it, so a stateful test may take each accepted item as kept.
    The test gets the greedy's own list, with the item last, and must not
    keep it: a rejected item is popped again.
    """
    turns = inst.turns(manipulator)
    kept: list[str] = []
    for o in inst.preferences[manipulator]:
        if len(kept) == turns:
            break
        kept.append(o)
        if not achievable(kept):
            kept.pop()
    return kept


def _deadline_test(inst: Instance, manipulator: str) -> Callable[[list[str]], bool]:
    """The closed form as a stateful test of the greedy's next item.

    An item of opponent rank r is due by slot H(r), the manipulator's
    stages <= r (the turn count past the sequence), among slots 1..turns.
    ``parent`` links each slot to a slot no later than it, and ``find(d)``
    is the latest free slot <= d, 0 meaning none. The kept set is achievable
    iff each kept item takes a free slot by its deadline, so an item is
    accepted iff ``find`` of its deadline is a slot, which it then takes.
    Valid only inside ``ordinal_greedy``, which keeps exactly the items this
    test accepts.
    """
    opp_pref = inst.preferences[_opponent(inst, manipulator)]
    turns = inst.turns(manipulator)
    due = list(accumulate(int(a == manipulator) for a in inst.sequence))
    due += [turns] * (len(opp_pref) - len(due))
    deadline = dict(zip(opp_pref, due))
    parent = list(range(turns + 1))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def accepts(trial: list[str]) -> bool:
        k = find(deadline[trial[-1]])
        if k == 0:
            return False
        parent[k] = k - 1
        return True

    return accepts


def lexicographic_best_response(
    inst: Instance, manipulator: str
) -> tuple[tuple[str, ...], frozenset[str]]:
    """Greedy over the manipulator's true order, keeping achievable extensions.

    Returns the canonical report for the selected set and the set itself;
    replaying the report through the engine yields exactly that set. The
    greedy schedules kept items by deadline; its result is checked once
    against ``is_achievable``, and AssertionError (also under ``python
    -O``) means the two disagree.
    """
    _require_two_agents(inst)
    opponent = _opponent(inst, manipulator)
    S = ordinal_greedy(inst, manipulator, _deadline_test(inst, manipulator))
    if not is_achievable(S, inst, manipulator):
        raise AssertionError(f"greedy kept an unachievable set {sorted(S)}")
    report = canonical_report(S, inst.preferences[opponent], inst.items)
    return report, frozenset(S)


def best_response(
    inst: Instance, u: UtilityFunction, manipulator: str
) -> tuple[tuple[str, ...], frozenset[str], Fraction]:
    """Utility-maximizing report for any utilities consistent with the order.

    The resulting bundle does not depend on which consistent utilities are
    supplied; they are only used to report the achieved utility. The
    manipulator's row is checked against their order in one pass over its
    integer view; ValidationError lists its problems as
    ``validate_utilities`` would.
    """
    _require_two_agents(inst)
    u.values_of(manipulator, inst.items)
    problems = row_problems(u, inst, manipulator)
    if problems:
        raise ValidationError(problems)
    report, bundle = lexicographic_best_response(inst, manipulator)
    return report, bundle, bundle_utility(u, manipulator, bundle)


@dataclass(frozen=True)
class NashEvidence:
    agent: str
    current_bundle: frozenset[str]
    current_utility: Fraction
    best_response_bundle: frozenset[str]
    best_response_utility: Fraction

    @property
    def can_improve(self) -> bool:
        return self.best_response_utility > self.current_utility


def nash_evidence(inst: Instance, u: UtilityFunction) -> list[NashEvidence]:
    """Per-agent best-response comparison against the reported profile.

    ``inst`` carries the reported preferences; ``u`` carries each agent's
    true utilities, whose induced order is that agent's true preference.
    """
    _require_two_agents(inst)
    true_orders = {a: order_from_utilities(u, a, inst.items) for a in inst.agents}
    current = run_sequential_allocation(inst)
    out = []
    for agent in inst.agents:
        deviation_setting = inst.with_preference(agent, true_orders[agent])
        _, bundle, utility = best_response(deviation_setting, u, agent)
        out.append(
            NashEvidence(
                agent=agent,
                current_bundle=current.bundles[agent],
                current_utility=bundle_utility(u, agent, current.bundles[agent]),
                best_response_bundle=bundle,
                best_response_utility=utility,
            )
        )
    return out


def verify_nash_two_agents(inst: Instance, u: UtilityFunction) -> bool:
    """True iff no agent's best response beats their bundle under the reports."""
    return not any(e.can_improve for e in nash_evidence(inst, u))
