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

``_walk`` is a dynamic program over the other agents' cursors that runs
``engine.can_achieve``'s argument for every target set at once. Let the
manipulator pass, and let the other agents pick around a reserved set S of
items. An item's fate is fixed when another agent's scan first reaches it:
that agent takes it, or it joins S and falls due at t, the manipulator's
turns before that stage. An item is gone iff some cursor has passed it, so
(every cursor, q = |S| so far) fixes the future, and states are merged by
that key. Due turns arrive in non-decreasing order, so Hall's condition is
``q + 1 <= t`` at each reservation. Items that no scan reaches before the
last turn fall due at turn k, the manipulator's turn count, so each final
state's bundles are its reserved sets, each joined with any k - q of its
free items. A reserved set fixes its replay, so each bundle comes from one
path and one fill, and none is produced twice. Two folds share the walk:
``enumerate_achievable_bundles``, the exhaustive reference, lists each
state's reserved sets with their fills; ``count_achievable_bundles``
carries only their number, so its budget counts states.

The refuted ordinal greedy does not search: it runs
``engine.ordinal_greedy`` and asks ``engine.secures``, a polynomial test,
from one shared state at the manipulator's first turn, whether each
extension of its kept set is achievable. Nothing here imports
``two_agent``, so no oracle query loads the two-agent code.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from itertools import combinations, compress
from math import comb, inf
from operator import itemgetter

from .engine import Encoded, PickState, ordinal_greedy, secures, stages_of
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
    render_fraction,
)


class OracleResult(Record):
    max_utility: Fraction
    optimal_bundles: tuple[frozenset[str], ...]
    witness_reports: Mapping[frozenset, tuple[str, ...]]
    checks: int  # the search's achievability checks, the unit of ``node_budget``


def _encode(inst: Instance, manipulator: str) -> tuple[Encoded, list[int]]:
    """The instance's held encoding and the manipulator's stages;
    ValidationError if the manipulator is unknown."""
    enc = inst.encoded
    if manipulator not in enc.agent_index:
        raise ValidationError([f"unknown agent {manipulator}"])
    return enc, stages_of(enc.seq, enc.agent_index[manipulator])


def _setup(inst: Instance, manipulator: str) -> tuple[Encoded, list[int], PickState]:
    """``_encode`` and a state advanced to the manipulator's first turn (none
    if they have no turn), which ``secures`` leaves as it is, so every check
    can share it."""
    enc, turns = _encode(inst, manipulator)
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


def _walk(
    inst: Instance, manipulator: str, root, reserve: Callable, weight: Callable, held_as: str,
    budget: int,
) -> tuple[dict, int, Callable[[int], None]]:
    """The cursor walk of the module docstring, carrying a payload per state.

    Returns the final states ``{(cursors, q): [gone, payload]}``, the
    manipulator's turn count k and ``spend(count)``, which charges more
    nodes. ``reserve(payload, x)`` is the payload after reserving item bit
    x; payloads reaching one state merge with ``+=``. Nodes: the root,
    before the manipulator is looked up, then ``weight(payload)`` per state
    made. ValidationError if ``budget`` is negative. A BudgetExceededError
    names the turns passed (all once the walk is done) and the weight held,
    as ``held_as``, after the last complete stage.
    """
    check_budget("node_budget", budget)
    t = held = 0  # the manipulator's turns passed and the weight held

    def progress() -> str:
        return f"at turn {t} of {inst.turns(manipulator)} with {held} {held_as}"

    def spend(count: int) -> None:
        nonlocal nodes
        nodes = _spend(nodes, count, budget, "nodes", progress)

    nodes = _spend(0, 1, budget, "nodes", progress)
    enc, turns = _encode(inst, manipulator)
    me, prefs = enc.agent_index[manipulator], enc.prefs
    # (cursors, items reserved) -> [items gone, payload]
    states = {((0,) * len(prefs), 0): [0, root]}
    held = weight(root)
    for agent in enc.seq[: turns[-1] if turns else 0]:
        if agent == me:
            t += 1
            continue
        row, after = prefs[agent], {}
        while states:  # a state is dropped as it is expanded, to bound the peak
            (cursors, q), (gone, payload) = states.popitem()
            p = cursors[agent]
            while True:
                while gone >> row[p] & 1:
                    p += 1
                x = 1 << row[p]
                nodes = _spend(nodes, weight(payload), budget, "nodes", progress)
                key = (cursors[:agent] + (p + 1,) + cursors[agent + 1 :], q)
                if key in after:  # the agent takes x
                    after[key][1] += payload
                else:
                    after[key] = [gone | x, payload]
                if q == t:  # reserving x would break Hall's condition, q + 1 <= t
                    break
                q, gone, payload = q + 1, gone | x, reserve(payload, x)  # x is reserved
        states = after
        held = sum(weight(payload) for _, payload in states.values())
    t = len(turns)
    return states, t, spend


def enumerate_achievable_bundles(
    inst: Instance, manipulator: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> set[frozenset[str]]:
    """All bundles the manipulator can end up holding under some report.

    ``_walk`` carrying each state's reserved sets, as ints (item x is
    ``1 << x``); each set's names are read once, for its bundles. Nodes:
    the root, each (state, reserved set) made and each bundle listed; the
    budget error names the reserved sets held. ValidationError if
    ``node_budget`` is negative.

    Memory grows with the sets of one stage: three agents with
    near-identical orders of 30 items, under round robin with 10 turns
    each, exceed the default budget at turn 9, with 690,690 sets held, at
    about 63 MiB peak RSS on CPython 3.11.
    """
    states, k, spend = _walk(
        inst, manipulator, [0], lambda sets, x: [s | x for s in sets], len, "reserved sets",
        node_budget,
    )
    if not k:  # the root, already charged, is the one bundle
        return {frozenset()}
    reached: set[frozenset[str]] = set()
    for (_, q), (gone, sets) in states.items():
        free = [o for x, o in enumerate(inst.items) if not gone >> x & 1]
        spend(len(sets) * comb(len(free), k - q))
        fills = list(combinations(free, k - q))
        for s in sets:  # each set's names, read from its bits, joined with each fill
            named = frozenset(compress(inst.items, map("1".__eq__, bin(s)[:1:-1])))
            reached.update(map(named.union, fills))
    return reached


def count_achievable_bundles(
    inst: Instance, manipulator: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """How many bundles ``enumerate_achievable_bundles`` returns, none built.

    ``_walk`` carrying how many reserved sets reach each state; a final
    state adds that number times the ways to fill its k - q free turns.
    Nodes: the root and each state made; the budget error names the states
    held. ValidationError if ``node_budget`` is negative.
    """
    states, k, _ = _walk(inst, manipulator, 1, lambda n, x: n, lambda n: 1, "states", node_budget)
    m = len(inst.items)
    return sum(n * comb(m - gone.bit_count(), k - q) for (_, q), (gone, n) in states.items())


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
        found = render_fraction(Fraction(best, scale)) if optima else "none"
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
