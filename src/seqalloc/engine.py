"""Sequential allocation engine.

At each stage the agent named by the sequence receives their most-preferred
remaining item. ``Encoded`` (defined in ``model``) is the one integer view
of an instance, which the instance builds on its first replay and then
holds, and ``PickState`` the one picking loop. ``run_with_report``
encodes its instance first, so a report replays the held view with one
row re-encoded. The reduction's pattern sweep keeps a ``PickState.copy``
of the state at each choice round's start, so each pattern resumes from
the rounds it shares with the one before.
``can_achieve`` (or ``secures``, from a given state) decides in one replay
which item sets the manipulator can secure: the other agents pick around
the reserved target items while the manipulator passes, and Hall's
condition on the stages at which they reach those items gives the
verdict. ``secures`` also returns those stages as due turns, which
settle every pick order that secures the set. The oracle's enumeration
runs the same rule for every target set at once, over the other agents'
cursors, with no replay of its own. ``ordinal_greedy`` is the one ordinal
greedy, over any per-item ``accepts`` test: ``two_agent`` runs it with its
deadline schedule and ``oracle``'s refuted greedy with ``secures``, so
neither imports the other.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Sequence
from itertools import compress, count, islice, repeat
from operator import eq

from .model import Allocation, Encoded, Instance  # ``Encoded`` is re-exported


class PickState:
    """A resumable run of the picking sequence over an ``Encoded`` instance.

    ``stage`` is the next stage to play, ``taken[k]`` marks item k as
    allocated and ``cursor[i]`` is the first position of agent i's
    preference that may still be free.
    """

    __slots__ = ("enc", "stage", "taken", "cursor")

    def __init__(self, enc: Encoded):
        self.enc = enc
        self.stage = 0
        self.taken = bytearray(enc.m)
        self.cursor = [0] * len(enc.prefs)

    def advance(self, until: int) -> list[int]:
        """Play greedy stages up to, not including, ``until``; return the picks."""
        prefs, seq, taken, cursor = self.enc.prefs, self.enc.seq, self.taken, self.cursor
        picks = []
        for agent in seq[self.stage : until]:
            row = prefs[agent]
            p = cursor[agent]
            while taken[row[p]]:
                p += 1
            item = row[p]
            taken[item] = 1
            cursor[agent] = p + 1
            picks.append(item)
        self.stage = max(self.stage, until)
        return picks

    def copy(self) -> "PickState":
        twin = type(self).__new__(type(self))
        twin.enc = self.enc
        twin.stage = self.stage
        twin.taken = self.taken[:]
        twin.cursor = self.cursor[:]
        return twin


def stages_of(sequence: Sequence, agent: str | int) -> list[int]:
    """The 0-based stages at which ``agent`` picks, by name or by index."""
    return list(compress(count(), map(eq, sequence, repeat(agent))))


def can_achieve(enc: Encoded, manipulator: int, target: Iterable[int]) -> bool:
    """True iff some report gives the manipulator a bundle containing ``target``.

    ``manipulator`` is an agent index and ``target`` holds item indices.
    One replay: reserve the target items and let the other agents pick
    greedily around them while the manipulator passes. A reserved item falls
    due at the stage at which another agent's scan first reaches it (every
    reserved item that one scan passes falls due at its stage). The target
    is achievable iff it has at most one item per turn and, at every due
    event, the items due so far are no more than the manipulator's stages
    before it (Hall's condition).

    Why it is exact: before an item's due stage no other agent's top free
    item is that item, so taking it earlier changes no other pick. The
    others therefore pick as in the reserved replay in every run that
    secures the target, and the manipulator must take each target item at
    one of its stages before the item's due stage; taking the items in due
    order (earliest deadline first) does so whenever Hall's condition holds.
    The same argument gives every pick order that secures the target: the
    orders that take each item at a turn before its due turn, which is what
    ``oracle.first_pick_order`` searches without a replay.
    For two agents the due stage comes from the opponent's rank: the target
    item of j-th smallest opponent rank p_j falls due at the opponent's
    pick number p_j - j (0-based), so with s_j the manipulator's j-th stage
    Hall's condition reads s_j <= p_j, ``two_agent.is_achievable``'s
    closed form.
    """
    return secures(PickState(enc), stages_of(enc.seq, manipulator), set(target)) is not None


def secures(state: PickState, turns: list[int], needed: Collection[int]) -> dict[int, int] | None:
    """``can_achieve`` resumed from ``state``: each needed item's due turn, or
    None if the manipulator cannot still get ``needed``.

    ``turns`` are the manipulator's stages from ``state.stage`` on and
    ``needed`` holds distinct item indices. An item's due turn is the number
    of ``turns`` before another agent's scan reaches it, or ``len(needed)``
    if no scan does before the manipulator has had that many turns; every
    pick order that takes each item at a turn below its due turn secures
    ``needed``. An empty ``needed`` gives ``{}``, so test the result against
    None. Runs the one-pass rule from the state's taken items, cursors and
    stage on copies, so neither ``state`` nor ``needed`` changes.
    """
    goal = len(needed)
    if goal > len(turns):
        return None
    taken = state.taken[:]
    for k in needed:
        if taken[k]:
            return None
        taken[k] = 2  # reserved, not yet due
    prefs, seq, cursor = state.enc.prefs, state.enc.seq, state.cursor[:]
    stage = state.stage
    due: dict[int, int] = {}
    # from the goal-th turn on, at least goal stages precede every due event,
    # and before turn ``before`` at most ``before`` < goal items fall due
    for before, turn in enumerate(turns[:goal]):
        for agent in seq[stage:turn]:
            row = prefs[agent]
            p = cursor[agent]
            item = row[p]
            while taken[item]:
                if taken[item] == 2:  # this scan is the first to reach it
                    due[item] = before
                    if len(due) > before:  # also before any scan runs off its row
                        return None
                    taken[item] = 1
                p += 1
                item = row[p]
            taken[item] = 1
            cursor[agent] = p + 1
        stage = turn + 1  # the manipulator passes
    return dict.fromkeys(needed, goal) | due


def ordinal_greedy(
    inst: Instance, manipulator: str, accepts: Callable[[str], bool]
) -> list[str]:
    """Bouveret and Lang's greedy over the manipulator's true order.

    One ``filter`` of that order: keeps each item that ``accepts`` accepts
    until the manipulator's turns are used up, and tests no item after
    that. A best response for two agents, not for three or more.
    ``accepts(o)`` answers whether the items accepted so far plus o are
    achievable; the greedy keeps exactly the accepted items, so the test
    itself records an accepted item as kept.
    """
    order = inst.preferences[manipulator]
    return list(islice(filter(accepts, order), inst.turns(manipulator)))


def run_sequential_allocation(inst: Instance) -> Allocation:
    """Execute the picking sequence and return bundles plus the full trace."""
    picks = PickState(inst.encoded).advance(len(inst.sequence))
    names = list(map(inst.items.__getitem__, picks))
    trace = tuple(zip(range(1, len(names) + 1), inst.sequence, names))
    bundles = {a: set() for a in inst.agents}
    for agent, item in zip(inst.sequence, names):
        bundles[agent].add(item)
    return Allocation({a: frozenset(b) for a, b in bundles.items()}, trace)


def run_with_report(inst: Instance, agent: str, report: Iterable[str]) -> Allocation:
    """Allocate with one agent's preference replaced by ``report``; errors as in
    ``Instance.with_preference``. ``inst`` is encoded first, so the copy re-encodes one row."""
    inst.encoded
    return run_sequential_allocation(inst.with_preference(agent, report))
