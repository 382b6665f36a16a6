"""Domain types for sequential allocation: instances, utilities, allocations.

All types are immutable after construction. Every result type of the
package is a ``Record``: a frozen class of named fields with value
equality, written out once here rather than generated per class, so that
importing the package loads no module beyond the few it computes with.
Utilities are exact rationals (``fractions.Fraction``) at the API only:
``UtilityFunction`` holds each agent's row once, as integer worths over one
positive scale (``UtilityFunction.rows``), so every comparison and sum is
exact integer arithmetic and tie detection is deterministic.

An ``Instance`` holds its one integer encoding (``Encoded``), built on its
first replay and reused by every later one; a report on it (a
``with_preference`` copy) re-encodes only the replaced row. In the same
way a ``UtilityFunction`` holds, per agent, the order tuple its row was
last found consistent with, so a row is checked once per order: by
``instance_io.parse_instance`` on the values it read, or by the first
``row_problems`` on it. Neither is a field, so equality, hash, ``repr``,
copy and pickle ignore both.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from decimal import Decimal  # ``fractions`` has already loaded it
from fractions import Fraction
from itertools import count, filterfalse
from math import lcm
from operator import gt


class Record:
    """A frozen record: its fields are the subclass's own annotated names.

    Fields are given by position or keyword; a class attribute of a field's
    name is its default. Records are equal, and hash alike, when they are of
    the same class with equal field values. Assigning or deleting an
    attribute raises AttributeError. Values live in ``__dict__``; equality,
    copy, deepcopy and pickle take the fields alone (``__getstate__``), so
    what a record holds beside them (an instance's encoding, the orders a
    utility function's rows were checked against) is not copied.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        name, defaults = type(self).__name__, vars(type(self))
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unknown or repeated field {key!r}")
        values.update(kwargs)
        for key in fields:
            if key not in values and key not in defaults:
                raise TypeError(f"{name}() missing field {key!r}")
            self.__dict__[key] = values[key] if key in values else defaults[key]

    def __repr__(self) -> str:
        shown = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __getstate__(self) -> dict:
        return {key: self.__dict__[key] for key in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash((self.__class__, *map(self.__dict__.__getitem__, self._fields)))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")


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


DEFAULT_NODE_BUDGET = 2_000_000  # the oracle's achievability checks or enumeration nodes
DEFAULT_PATTERN_BUDGET = 4 ** 8  # choice patterns of an 8-variable formula


def check_budget(name: str, budget: int) -> None:
    """ValidationError if the search budget ``name`` is negative."""
    if budget < 0:
        raise ValidationError([f"{name} must be non-negative, got {budget}"])


class Encoded:
    """Integer view of an instance: items and agents replaced by indices.

    ``prefs[i][k]`` is the index of the item that the agent with index ``i``
    ranks k-th; ``seq[t]`` is the agent index of stage ``t``. An instance's
    held view is shared by every replay of it, so no caller changes it.
    """

    __slots__ = ("item_index", "agent_index", "prefs", "seq", "m")

    def __init__(self, inst: Instance):
        item_index = dict(zip(inst.items, count()))
        agent_index = dict(zip(inst.agents, count()))
        self.item_index = item_index
        self.agent_index = agent_index
        self.prefs = [list(map(item_index.__getitem__, inst.preferences[a])) for a in inst.agents]
        self.seq = list(map(agent_index.__getitem__, inst.sequence))
        self.m = len(inst.items)

    def with_row(self, agent: int, row: list[int]) -> "Encoded":
        """A view whose row of agent index ``agent`` is ``row``: a new list of
        rows, sharing the indices, the sequence and every other row."""
        twin = Encoded.__new__(Encoded)
        twin.item_index, twin.agent_index, twin.seq, twin.m = (
            self.item_index, self.agent_index, self.seq, self.m
        )
        twin.prefs = self.prefs[:]
        twin.prefs[agent] = row
        return twin


class Instance(Record):
    """A complete allocation setting: items, agents, preferences, sequence.

    ``items`` doubles as the canonical global item order used wherever a
    deterministic tie-free ordering of items is needed.
    """

    items: tuple[str, ...]
    agents: tuple[str, ...]
    preferences: Mapping[str, tuple[str, ...]]
    sequence: tuple[str, ...]

    def turns(self, agent: str) -> int:
        return self.sequence.count(agent)

    @property
    def encoded(self) -> Encoded:
        """The instance's integer view, built on first use and then held.
        Not a field: equality, copy and pickle ignore it."""
        enc = self.__dict__.get("_encoded")
        if enc is None:
            enc = self.__dict__["_encoded"] = Encoded(self)
        return enc

    def with_preference(self, agent: str, order: Iterable[str]) -> "Instance":
        """Copy of the instance with one agent's preference replaced;
        ValidationError for an unknown agent or a non-permutation order.

        An order equal to the agent's current one replaces nothing: the
        instance itself is returned, with no copy and no second check of
        an order that ``validate_instance`` already checked. Once the
        instance holds its encoding (after a replay), the copy holds it
        too, with only the replaced row encoded afresh.
        """
        if agent not in self.agents:
            raise ValidationError([f"unknown agent {agent}"])
        order = tuple(order)
        if order == self.preferences[agent]:
            return self
        if not _is_permutation(order, self.items, set(self.items)):
            raise ValidationError(
                [f"replacement preference for agent {agent} is not a permutation of the item set"]
            )
        prefs = dict(self.preferences)
        prefs[agent] = order
        twin = Instance(self.items, self.agents, prefs, self.sequence)
        enc = self.__dict__.get("_encoded")
        if enc is not None:
            row = list(map(enc.item_index.__getitem__, order))
            twin.__dict__["_encoded"] = enc.with_row(enc.agent_index[agent], row)
        return twin


def _is_permutation(order: tuple, items: tuple, item_set: set) -> bool:
    """True iff ``order`` lists the entries of ``items``: O(m) hashing when
    they are distinct, a sorted comparison when ids repeat.

    For m distinct ids it is exact to check that ``order`` has m entries
    and misses none of the ids: then its m entries are the m ids, so it
    holds no repeat and no foreign id. No set of ``order`` is built.
    """
    if len(item_set) == len(items):
        return len(order) == len(items) and not item_set.difference(order)
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


class UtilityFunction(Record):
    """Per-agent additive item utilities, exact and integer inside.

    ``rows[agent] = (worth, scale)``: ``worth[o] / scale`` is the agent's
    value of item o, over one positive scale for the whole row. The
    constructor takes rows of exact ``int`` or ``Fraction`` values and
    converts each row once; TypeError for any other value. Positivity and
    order are not checked here (``row_problems`` does, once per order). A
    row of plain ``int`` values is its own worth at scale 1 and is only copied; a row
    with any ``bool`` or ``Fraction`` is converted over the lcm of its
    denominators. May cover a subset of the agents (e.g. only the
    manipulator).
    """

    rows: Mapping[str, tuple[Mapping[str, int], int]]

    def __init__(self, rows: Mapping[str, Mapping[str, int | Fraction]]):
        converted = {}
        for agent, row in rows.items():
            if set(map(type, row.values())) <= {int}:
                converted[agent] = (dict(row), 1)
                continue
            for item, v in row.items():
                if not isinstance(v, (int, Fraction)):
                    raise TypeError(
                        f"utility of agent {agent} for item {item} is {v!r}, not an int or a Fraction"
                    )
            worth, scale = _over_common_denominator(list(row.values()))
            converted[agent] = (dict(zip(row, worth)), scale)
        self.__dict__["rows"] = converted

    @property
    def values(self) -> dict[str, dict[str, Fraction]]:
        """Every row as ``Fraction``s, made afresh on each call."""
        return {
            a: {o: Fraction(w, scale) for o, w in worth.items()}
            for a, (worth, scale) in self.rows.items()
        }

    def of(self, agent: str, item: str) -> Fraction:
        worth, scale = self.rows[agent]
        return Fraction(worth[item], scale)

    def agents(self) -> tuple[str, ...]:
        return tuple(self.rows)


def integer_values(u: UtilityFunction, agent: str, items: Sequence[str]) -> tuple[list[int], int]:
    """The agent's values over ``items`` as integers.

    Returns ``(worth, scale)``: ``worth[k] / scale`` is the value of
    ``items[k]``; ``scale`` is the common denominator of the agent's whole
    row. ValidationError if the agent has no utilities or they miss one of
    ``items``; consistency with a preference is not checked.
    """
    row = u.rows.get(agent)
    if row is None:
        raise ValidationError([f"no utilities for agent {agent}"])
    worth, scale = row
    try:
        return list(map(worth.__getitem__, items)), scale
    except KeyError:
        raise ValidationError([f"utilities of agent {agent} do not cover the item set"]) from None


def _over_common_denominator(row: list[int | Fraction]) -> tuple[list[int], int]:
    """``(worth, scale)`` with ``worth[k] / scale == row[k]``; scale 1 if empty."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row], scale


def validate_utilities(u: UtilityFunction, inst: Instance) -> None:
    """Check positivity and consistency with each covered agent's order.

    ValidationError listing the problems of every row, as ``row_problems``
    gives them.
    """
    problems = [p for agent in u.rows for p in row_problems(u, inst, agent)]
    if problems:
        raise ValidationError(problems)


def row_problems(u: UtilityFunction, inst: Instance, agent: str) -> list[str]:
    """Every problem with the row of ``agent``: no row at all, an agent
    unknown to ``inst``, a row that does not cover exactly the item set, a
    non-positive value, or a value not strictly below the one before it in
    the agent's order.

    Checked once per order: a row that ``u`` holds as consistent with this
    very order tuple (identity, not equality) has none. Otherwise one pass
    over the integer row along the order (``_row_fits``) settles a consistent
    row, which ``u`` then holds; only a row that fails it is scanned again
    to name its problems. The verdict depends on the row and the order
    alone, and neither changes, so holding it is exact.
    """
    if agent not in u.rows:
        return [f"no utilities for agent {agent}"]
    if agent not in inst.agents:
        return [f"utilities given for unknown agent {agent}"]
    order = inst.preferences[agent]
    held = u.__dict__.get("_fit_orders")
    if held is not None and agent in held and held[agent] is order:
        return []
    row, _ = u.rows[agent]
    if _row_fits(row, order):
        _hold_fit(u, agent, order)
        return []
    worth = list(map(row.get, order))
    if set(row) != set(inst.items):
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


def _row_fits(row: Mapping[str, int], order: tuple[str, ...]) -> bool:
    """True iff ``row`` values exactly the items of ``order`` (distinct ids),
    each positive and each strictly below the one before it: one pass."""
    worth = list(map(row.get, order))
    return (
        len(row) == len(worth)
        and None not in worth
        and (not worth or worth[-1] > 0)
        and all(map(gt, worth, worth[1:]))
    )


def _hold_fit(u: UtilityFunction, agent: str, order: tuple[str, ...]) -> None:
    """Record that ``u``'s row of ``agent`` is consistent with ``order``, the
    very tuple an instance holds; ``row_problems`` then passes it unscanned.
    Only this helper and ``row_problems`` know where the record is kept."""
    u.__dict__.setdefault("_fit_orders", {})[agent] = order


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
    return UtilityFunction(rows)


def bundle_utility(u: UtilityFunction, agent: str, bundle: Iterable[str]) -> Fraction:
    """Exact additive utility of a bundle. Raises KeyError on unknown items.

    Sums the agent's integer row over the bundle, then makes one
    ``Fraction``.
    """
    worth, scale = u.rows[agent]
    return Fraction(sum(map(worth.__getitem__, bundle)), scale)


def render_fraction(x: Fraction) -> str:
    """Exact text of a rational: ``7`` or ``7/3``, never a binary float.

    Written through ``Decimal``, which has no int digit limit and writes the
    same digits as ``str``, so also past the limit where ``str`` raises.
    """
    n, d = str(Decimal(x.numerator)), str(Decimal(x.denominator))
    return n if d == "1" else f"{n}/{d}"


def complete_order(prefix: list[str], items: Iterable[str]) -> tuple[str, ...]:
    """``prefix``, then every other item in the canonical order ``items`` (one pass)."""
    return (*prefix, *filterfalse(set(prefix).__contains__, items))


def order_from_utilities(u: UtilityFunction, agent: str, items: Iterable[str]) -> tuple[str, ...]:
    """The strict preference order induced by an agent's utilities.

    Raises ValidationError if the utilities miss one of ``items`` or value
    two of them equally (the induced order would not be strict). A positive
    row of exactly ``items`` is held as consistent with the returned order.
    """
    items = tuple(items)
    value = dict(zip(items, integer_values(u, agent, items)[0]))
    ranked = tuple(sorted(items, key=value.__getitem__, reverse=True))  # ties keep item order
    worth = list(map(value.__getitem__, ranked))
    if not all(map(gt, worth, worth[1:])):
        a, b = next((a, b) for a, b, w, v in zip(ranked, ranked[1:], worth, worth[1:]) if w == v)
        raise ValidationError(
            [f"agent {agent} values {a} and {b} equally; induced order is not strict"]
        )
    if len(u.rows[agent][0]) == len(items) and (not worth or worth[-1] > 0):
        _hold_fit(u, agent, ranked)
    return ranked


class Allocation(Record):
    """Bundles per agent plus the stage-by-stage pick trace.

    Trace entries are ``(stage, agent, item)`` with stages numbered from 1.
    Items beyond the sequence length remain unallocated.
    """

    bundles: Mapping[str, frozenset[str]]
    trace: tuple[tuple[int, str, str], ...] = ()

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
