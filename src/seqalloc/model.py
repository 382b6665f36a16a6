"""Domain types for sequential allocation: instances, utilities, allocations.

All types are immutable after construction. Utilities are exact rationals
(``fractions.Fraction``) at the API; inside, each agent's row is read
through one integer view, ``UtilityFunction.integer_view``: integer worths
over one positive scale, built at most once per agent, so every comparison
and sum is exact integer arithmetic and tie detection is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import filterfalse
from math import lcm
from operator import gt
from typing import Iterable, Mapping, Sequence


class ValidationError(ValueError):
    """Raised when raw instance data violates an invariant.

    ``problems`` lists every violation found, not just the first.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class BudgetExceededError(RuntimeError):
    """A search budget ran out: the oracle's check or node budget, or the
    reduction verifier's pattern budget.

    ``limit`` is the bound and ``unit`` what it counts ("achievability
    checks", "nodes" or "patterns"). ``used`` is how far the search got;
    for the pattern budget, checked before the sweep starts, it is what the
    sweep would need.
    """

    def __init__(self, message: str, *, limit: int, used: int, unit: str):
        self.limit = limit
        self.used = used
        self.unit = unit
        super().__init__(message)


def check_budget(name: str, budget: int) -> None:
    """ValidationError if the search budget ``name`` is negative."""
    if budget < 0:
        raise ValidationError([f"{name} must be non-negative, got {budget}"])


@dataclass(frozen=True)
class Instance:
    """A complete allocation setting: items, agents, preferences, sequence.

    ``items`` doubles as the canonical global item order used wherever a
    deterministic tie-free ordering of items is needed.
    """

    items: tuple[str, ...]
    agents: tuple[str, ...]
    preferences: Mapping[str, tuple[str, ...]]
    sequence: tuple[str, ...]

    def turns(self, agent: str) -> int:
        return sum(1 for a in self.sequence if a == agent)

    def with_preference(self, agent: str, order: Iterable[str]) -> "Instance":
        """Copy of the instance with one agent's preference replaced;
        ValidationError for an unknown agent or a non-permutation order."""
        if agent not in self.agents:
            raise ValidationError([f"unknown agent {agent}"])
        order = tuple(order)
        if not _is_permutation(order, self.items, set(self.items)):
            raise ValidationError(
                [f"replacement preference for agent {agent} is not a permutation of the item set"]
            )
        prefs = dict(self.preferences)
        prefs[agent] = order
        return Instance(self.items, self.agents, prefs, self.sequence)


def _is_permutation(order: tuple, items: tuple, item_set: set) -> bool:
    """True iff ``order`` lists the entries of ``items``: O(m) hashing when
    they are distinct, a sorted comparison when ids repeat."""
    if len(item_set) == len(items):
        return len(order) == len(items) and set(order) == item_set
    return sorted(order) == sorted(items)


def validate_instance(
    items: Iterable[str],
    agents: Iterable[str],
    preferences: Mapping[str, Iterable[str]],
    sequence: Iterable[str],
) -> Instance:
    """Validate raw data and return an Instance.

    Raises ValidationError listing every violated invariant: duplicate ids,
    incomplete or non-permutation preferences (each checked in O(m)), unknown
    agents in the sequence, or a sequence longer than the item count.
    """
    items = tuple(items)
    agents = tuple(agents)
    sequence = tuple(sequence)
    prefs = {a: tuple(p) for a, p in preferences.items()}
    problems: list[str] = []

    # membership tests go through sets, not the tuples: O(L + n), not O(L * n)
    item_set, agent_set = set(items), set(agents)
    if len(item_set) != len(items):
        problems.append("duplicate item ids")
    if len(agent_set) != len(agents):
        problems.append("duplicate agent ids")
    if item_set & agent_set:
        problems.append("item and agent ids overlap")

    for a in agents:
        if a not in prefs:
            problems.append(f"agent {a} has no preference list")
        elif not _is_permutation(prefs[a], items, item_set):
            if set(prefs[a]) <= item_set and len(set(prefs[a])) == len(prefs[a]):
                problems.append(f"incomplete preference for agent {a}")
            else:
                problems.append(f"preference of agent {a} is not a permutation of the item set")
    for a in prefs:
        if a not in agent_set:
            problems.append(f"preference given for unknown agent {a}")

    for a in sequence:
        if a not in agent_set:
            problems.append(f"sequence references unknown agent {a}")
    if len(sequence) > len(items):
        problems.append("sequence exceeds item count")
    if not agents:
        problems.append("no agents")
    if not items:
        problems.append("no items")

    if problems:
        raise ValidationError(problems)
    return Instance(items, agents, prefs, sequence)


@dataclass(frozen=True)
class UtilityFunction:
    """Per-agent additive item utilities, positive and exact.

    May cover a subset of the agents (e.g. only the manipulator). ``values``
    holds ``Fraction``s and must not change after construction: the integer
    view of each row is built from it once and kept, outside ``==`` and
    ``repr``. Constructing validates nothing.
    """

    values: Mapping[str, Mapping[str, Fraction]]
    _views: dict[str, tuple[dict[str, int], int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_rationals(cls, rows: Mapping[str, Mapping[str, int | Fraction]]) -> "UtilityFunction":
        """Utilities from exact ``int`` or ``Fraction`` rows, each row
        converted once: to ``Fraction``s for ``values`` and, in the same
        call, to its integer view (scale 1 for a row of ints)."""
        u = cls({a: dict(zip(row, map(Fraction, row.values()))) for a, row in rows.items()})
        for a, row in rows.items():
            worth, scale = _over_common_denominator(list(row.values()))
            u._views[a] = (dict(zip(row, worth)), scale)
        return u

    def of(self, agent: str, item: str) -> Fraction:
        return self.values[agent][item]

    def values_of(self, agent: str, items: Iterable[str]) -> Mapping[str, Fraction]:
        """The agent's item values.

        ValidationError if the agent has no utilities or they miss one of
        ``items``; consistency with a preference is not checked.
        """
        if agent not in self.values:
            raise ValidationError([f"no utilities for agent {agent}"])
        vals = self.values[agent]
        if not all(o in vals for o in items):
            raise ValidationError([f"utilities of agent {agent} do not cover the item set"])
        return vals

    def integer_view(self, agent: str) -> tuple[Mapping[str, int], int]:
        """``(worth, scale)``: ``worth[o] / scale`` is the agent's value of
        item o, over one positive scale for the whole row.

        Built through ``_over_common_denominator`` on first use, unless
        ``from_rationals`` handed it in, and kept; the mapping must not be
        changed. KeyError if the agent has no utilities.
        """
        view = self._views.get(agent)
        if view is None:
            vals = self.values[agent]
            worth, scale = _over_common_denominator(list(vals.values()))
            view = self._views[agent] = (dict(zip(vals, worth)), scale)
        return view

    def agents(self) -> tuple[str, ...]:
        return tuple(self.values)


def integer_values(u: UtilityFunction, agent: str, items: Sequence[str]) -> tuple[list[int], int]:
    """The agent's values over ``items`` as integers, read from its integer view.

    Returns ``(worth, scale)``: ``worth[k] / scale`` is the value of
    ``items[k]``; ``scale`` is the common denominator of the agent's whole
    row. ValidationError as for ``UtilityFunction.values_of``.
    """
    u.values_of(agent, items)
    view, scale = u.integer_view(agent)
    return [view[o] for o in items], scale


def _over_common_denominator(row: list[int | Fraction]) -> tuple[list[int], int]:
    """``(worth, scale)`` with ``worth[k] / scale == row[k]``; scale 1 if empty."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row], scale


def validate_utilities(u: UtilityFunction, inst: Instance) -> None:
    """Check positivity and consistency with each covered agent's order.

    ValidationError listing the problems of every row, as ``row_problems``
    gives them.
    """
    problems = [p for agent in u.values for p in row_problems(u, inst, agent)]
    if problems:
        raise ValidationError(problems)


def row_problems(u: UtilityFunction, inst: Instance, agent: str) -> list[str]:
    """Every problem with the row of ``agent``, whom ``u`` must cover: an
    agent unknown to ``inst``, a row that does not cover exactly the item
    set, a non-positive value, or a value not strictly below the one before
    it in the agent's order.

    One pass over the integer view along that order settles a consistent
    row; only a row that fails it is scanned again to name its problems.
    """
    if agent not in inst.agents:
        return [f"utilities given for unknown agent {agent}"]
    order = inst.preferences[agent]
    view, _ = u.integer_view(agent)
    worth = list(map(view.get, order))
    if (
        len(view) == len(worth)
        and None not in worth
        and (not worth or worth[-1] > 0)
        and all(map(gt, worth, worth[1:]))
    ):
        return []
    if set(view) != set(inst.items):
        return [f"utilities of agent {agent} do not cover the item set"]
    problems = [
        f"non-positive utility for agent {agent}, item {o}" for o, w in zip(order, worth) if w <= 0
    ]
    problems += [
        f"utilities of agent {agent} not strictly decreasing at {better} vs {worse}"
        for better, worse, w, v in zip(order, order[1:], worth, worth[1:])
        if not w > v
    ]
    return problems


def make_lexicographic_utilities(
    preferences: Mapping[str, tuple[str, ...]],
) -> UtilityFunction:
    """Powers-of-two utilities: each item outweighs all less-preferred ones.

    The k-th ranked of m items is worth 2**(m-k), so every prefix-dominance
    inequality holds with slack 1.
    """
    rows = {}
    for agent, order in preferences.items():
        m = len(order)
        rows[agent] = {o: 2 ** (m - k - 1) for k, o in enumerate(order)}
    return UtilityFunction.from_rationals(rows)


def bundle_utility(u: UtilityFunction, agent: str, bundle: Iterable[str]) -> Fraction:
    """Exact additive utility of a bundle. Raises KeyError on unknown items.

    Sums the agent's integer view over the bundle, then makes one
    ``Fraction``.
    """
    worth, scale = u.integer_view(agent)
    return Fraction(sum(map(worth.__getitem__, bundle)), scale)


def complete_order(prefix: list[str], items: Iterable[str]) -> tuple[str, ...]:
    """``prefix``, then every other item in the canonical order ``items`` (one pass)."""
    return (*prefix, *filterfalse(set(prefix).__contains__, items))


def order_from_utilities(u: UtilityFunction, agent: str, items: Iterable[str]) -> tuple[str, ...]:
    """The strict preference order induced by an agent's utilities.

    Raises ValidationError if the utilities miss one of ``items`` or value
    two of them equally (the induced order would not be strict).
    """
    items = tuple(items)
    worth, _ = integer_values(u, agent, items)
    ranked = sorted(range(len(items)), key=lambda k: -worth[k])
    for j, k in zip(ranked, ranked[1:]):
        if worth[j] == worth[k]:
            a, b = items[j], items[k]
            raise ValidationError(
                [f"agent {agent} values {a} and {b} equally; induced order is not strict"]
            )
    return tuple(items[k] for k in ranked)


@dataclass(frozen=True)
class Allocation:
    """Bundles per agent plus the stage-by-stage pick trace.

    Trace entries are ``(stage, agent, item)`` with stages numbered from 1.
    Items beyond the sequence length remain unallocated.
    """

    bundles: Mapping[str, frozenset[str]]
    trace: tuple[tuple[int, str, str], ...] = field(default_factory=tuple)

    def holder_of(self, item: str) -> str | None:
        for agent, bundle in self.bundles.items():
            if item in bundle:
                return agent
        return None

    def matrix(self, inst: Instance) -> list[list[int]]:
        """0/1 assignment matrix, rows in agent order, columns in item order."""
        return [
            [1 if o in self.bundles.get(a, frozenset()) else 0 for o in inst.items]
            for a in inst.agents
        ]
