"""Sequential allocation engine.

At each stage the agent named by the sequence receives their most-preferred
remaining item. ``Encoded`` is the one integer view of an instance and
``PickState`` the one picking loop; the oracle resumes and copies the same
state to branch over the manipulator's picks, and ``can_achieve`` (or
``secures``, from a given state) plays it forward to decide which item sets
the manipulator can secure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import Allocation, Instance


class Encoded:
    """Integer view of an instance: items and agents replaced by indices.

    ``prefs[i][k]`` is the index of the item that the agent with index ``i``
    ranks k-th; ``seq[t]`` is the agent index of stage ``t``.
    """

    __slots__ = ("item_index", "agent_index", "prefs", "seq", "m")

    def __init__(self, inst: Instance):
        # locals, not attributes, inside the comprehensions: the lookups run
        # once per item per agent on every replay
        item_index = {o: k for k, o in enumerate(inst.items)}
        agent_index = {a: i for i, a in enumerate(inst.agents)}
        self.item_index = item_index
        self.agent_index = agent_index
        self.prefs = [[item_index[o] for o in inst.preferences[a]] for a in inst.agents]
        self.seq = [agent_index[a] for a in inst.sequence]
        self.m = len(inst.items)


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

    def take(self, item: int) -> None:
        """The agent of the current stage takes ``item``, which must be free."""
        self.taken[item] = 1
        self.stage += 1

    def copy(self) -> "PickState":
        twin = PickState.__new__(PickState)
        twin.enc = self.enc
        twin.stage = self.stage
        twin.taken = self.taken[:]
        twin.cursor = self.cursor[:]
        return twin


def stages_of(sequence: Sequence, agent: str | int) -> list[int]:
    """The 0-based stages at which ``agent`` picks, by name or by index."""
    return [t for t, a in enumerate(sequence) if a == agent]


def can_achieve(enc: Encoded, manipulator: int, target: Iterable[int]) -> bool:
    """True iff some report gives the manipulator a bundle containing ``target``.

    ``manipulator`` is an agent index and ``target`` holds item indices.
    Earliest deadline first: at each of the manipulator's stages, take the
    needed item that the other agents would take first if the manipulator
    passed from then on, or any needed item if they would take none. The
    target is achievable iff no other agent takes a needed item first.
    """
    return secures(PickState(enc), stages_of(enc.seq, manipulator), set(target))


def secures(state: PickState, turns: list[int], needed: set[int]) -> bool:
    """``can_achieve`` resumed from ``state``: can the manipulator still get ``needed``?

    ``turns`` are the manipulator's stages from ``state.stage`` on. Plays
    the rule on ``state`` and ``needed`` themselves, so pass copies to keep
    them.
    """
    if len(needed) > len(turns):
        return False
    for c, t in enumerate(turns[: len(needed)]):  # one needed item per turn
        state.advance(t)
        if any(state.taken[k] for k in needed):
            return False
        item = _first_lost(state, turns[c + 1 :], needed)
        state.take(item)
        needed.remove(item)
    return True


def _first_lost(state: PickState, later_turns: list[int], needed: set[int]) -> int:
    """The needed item the other agents take first if the manipulator passes.

    ``state`` stands at one of the manipulator's stages and is not changed;
    ``later_turns`` are the manipulator's stages after it.
    """
    look = state.copy()
    for stop in later_turns + [len(state.enc.seq)]:
        look.stage += 1  # the manipulator passes
        for item in look.advance(stop):
            if item in needed:
                return item
    return min(needed)


def run_sequential_allocation(inst: Instance) -> Allocation:
    """Execute the picking sequence and return bundles plus the full trace."""
    picks = PickState(Encoded(inst)).advance(len(inst.sequence))
    trace = tuple(
        (stage + 1, inst.sequence[stage], inst.items[item])
        for stage, item in enumerate(picks)
    )
    bundles = {a: set() for a in inst.agents}
    for _, agent, item in trace:
        bundles[agent].add(item)
    return Allocation({a: frozenset(b) for a, b in bundles.items()}, trace)


def run_with_report(inst: Instance, agent: str, report: Iterable[str]) -> Allocation:
    """Allocate with one agent's preference replaced by ``report``; errors as
    in ``Instance.with_preference``."""
    return run_sequential_allocation(inst.with_preference(agent, report))
