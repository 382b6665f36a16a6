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

Each answer is one builtin pass over an order: one pass over the
opponent's order yields the ranks p_j already sorted and, in the same way,
the head of the canonical report; the greedy is ``engine.ordinal_greedy``, one
``filter`` of the manipulator's order by a per-item test.

A Nash check compares bundles, so it asks the greedy for bundles, not
reports: for every agent, ``lexicographic_bundle`` runs on the instance
with that agent's true order, and no canonical report is built. When their
utility row induces their reported order, that is the reported instance
itself, and no instance is copied.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from operator import eq, le

from .engine import ordinal_greedy, run_sequential_allocation, stages_of
from .model import (
    Instance,
    Record,
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
    """Target items first, in the opponent's order; then the rest.

    One pass over ``opponent_pref`` picks out the items of S in its order,
    and the tail is every other item of ``all_items`` (distinct ids) in that
    fixed canonical order, which never affects the outcome and keeps
    outputs deterministic. ValidationError if S names an item outside
    ``all_items``, or if ``opponent_pref`` does not list every item of S
    exactly once.
    """
    S = frozenset(S)
    head = list(compress(opponent_pref, map(S.__contains__, opponent_pref)))
    report = complete_order(head, all_items)
    if len(head) != len(S) or len(report) != len(all_items):
        _known_items(S, all_items)
        miscounted = sorted(o for o in S if opponent_pref.count(o) != 1)
        raise ValidationError(
            [f"target items not listed exactly once in the opponent's order: {miscounted}"]
        )
    return report


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
    One pass over the opponent's order yields the p_j already sorted; fewer
    of them than items of S means S names an unknown item.
    """
    _require_two_agents(inst)
    opp_pref = inst.preferences[_opponent(inst, manipulator)]
    S = frozenset(S)
    ranks = list(compress(count(), map(S.__contains__, opp_pref)))
    if len(ranks) != len(S):
        _known_items(S, opp_pref)  # raises: the order lists every item once
    stages = stages_of(inst.sequence, manipulator)
    return len(ranks) <= len(stages) and all(map(le, stages, ranks))


def _deadline_test(inst: Instance, manipulator: str) -> Callable[[str], bool]:
    """The closed form as a stateful per-item test for ``ordinal_greedy``.

    An item of opponent rank r is due by slot H(r), the manipulator's
    stages <= r (the turn count past the sequence), among slots 1..turns.
    ``parent`` links each slot to a slot no later than it; following the
    links from slot d (halving the path) ends at the latest free slot <= d,
    0 meaning none. The kept set is achievable iff each kept item takes a
    free slot by its deadline, so ``accepts(o)`` is true iff the walk from
    ``deadline[o]`` ends at a slot, which o then takes. Valid only inside
    ``ordinal_greedy``, which keeps exactly the items this test accepts.
    """
    opp_pref = inst.preferences[_opponent(inst, manipulator)]
    turns = inst.turns(manipulator)
    # due[r + 1] counts the manipulator's stages <= r; due[0] is the initial 0
    due = list(accumulate(map(eq, inst.sequence, repeat(manipulator)), initial=0))
    due += [turns] * (len(opp_pref) + 1 - len(due))
    deadline = dict(zip(opp_pref, due[1:]))
    parent = list(range(turns + 1))

    def accepts(o: str) -> bool:
        k = deadline[o]
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        if k == 0:
            return False
        parent[k] = k - 1
        return True

    return accepts


def lexicographic_bundle(inst: Instance, manipulator: str) -> frozenset[str]:
    """Greedy over the manipulator's true order, keeping achievable extensions.

    Returns the selected set, the manipulator's best response bundle under
    any utilities that induce their order. The greedy schedules kept items
    by deadline; its result is checked once against ``is_achievable``, and
    AssertionError (also under ``python -O``) means the two disagree.
    """
    _require_two_agents(inst)
    S = frozenset(ordinal_greedy(inst, manipulator, _deadline_test(inst, manipulator)))
    if not is_achievable(S, inst, manipulator):
        raise AssertionError(f"greedy kept an unachievable set {sorted(S)}")
    return S


def lexicographic_best_response(
    inst: Instance, manipulator: str
) -> tuple[tuple[str, ...], frozenset[str]]:
    """``lexicographic_bundle`` and the canonical report for it; replaying
    the report through the engine yields exactly that set."""
    S = lexicographic_bundle(inst, manipulator)
    return canonical_report(S, inst.preferences[_opponent(inst, manipulator)], inst.items), S


def best_response(
    inst: Instance, u: UtilityFunction, manipulator: str
) -> tuple[tuple[str, ...], frozenset[str], Fraction]:
    """Utility-maximizing report for any utilities consistent with the order.

    The resulting bundle does not depend on which consistent utilities are
    supplied; they are only used to report the achieved utility. The
    manipulator's row is checked against their order by ``row_problems``,
    checked once per order: a row that parse or an earlier query found
    consistent with this order is not scanned again. ValidationError lists
    its problems as ``row_problems`` names them.
    """
    _require_two_agents(inst)
    problems = row_problems(u, inst, manipulator)
    if problems:
        raise ValidationError(problems)
    report, bundle = lexicographic_best_response(inst, manipulator)
    return report, bundle, bundle_utility(u, manipulator, bundle)


class NashEvidence(Record):
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
    true utilities, whose induced order is that agent's true preference: the
    reported order if the row has no ``row_problems``, else the order
    ``order_from_utilities`` ranks. Each agent's best response bundle is
    ``lexicographic_bundle`` on ``with_preference`` of their true order
    (``inst`` itself for the reported order), valued by ``bundle_utility``,
    with no report built. Rows are checked once per order: a row that parse
    checked, or that the ranking proved consistent, is not scanned again.
    ValidationError names the problems of a row that induces no order, or
    that ``row_problems`` finds on the copy with the order it induces.
    """
    _require_two_agents(inst)
    consistent = {a for a in inst.agents if not row_problems(u, inst, a)}
    true_orders = {
        a: inst.preferences[a] if a in consistent
        else order_from_utilities(u, a, inst.items)
        for a in inst.agents
    }
    current = run_sequential_allocation(inst)
    out = []
    for agent in inst.agents:
        deviation_setting = inst.with_preference(agent, true_orders[agent])
        problems = [] if agent in consistent else row_problems(u, deviation_setting, agent)
        if problems:
            raise ValidationError(problems)
        bundle = lexicographic_bundle(deviation_setting, agent)
        out.append(
            NashEvidence(
                agent=agent,
                current_bundle=current.bundles[agent],
                current_utility=bundle_utility(u, agent, current.bundles[agent]),
                best_response_bundle=bundle,
                best_response_utility=bundle_utility(u, agent, bundle),
            )
        )
    return out


def verify_nash_two_agents(inst: Instance, u: UtilityFunction) -> bool:
    """True iff no agent's best response beats their bundle under the reports."""
    return not any(e.can_improve for e in nash_evidence(inst, u))
