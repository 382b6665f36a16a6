"""Text format for allocation instances.

Grammar (one directive per line, ``#`` starts a comment):

    agents <n> items <m> seq <L>
    item <name>                        (m lines, declaration order is canonical)
    pref <agent> : <item> ... <item>   (n lines, most preferred first)
    seq : <agent> ... <agent>          (L entries)
    util <agent> : <decimal> ...       (optional; aligned with that agent's
                                        preference order, parsed exactly)

Utility literals are exact rationals (``3.1`` is 31/10, not a float); one
holding ``_``, or an exponent beyond 4300 in magnitude, is rejected. An
all-integer ``util`` row is read in one ``int`` pass, any other as
``Fraction``s; ``UtilityFunction`` converts each row once to integer worths.
Each row is checked on the values read, which are aligned with the agent's
order, and the utility function holds the verdict, so that no later query
checks that row against that order again.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import repeat
from operator import gt, itemgetter

from .model import (
    Instance,
    UtilityFunction,
    ValidationError,
    _hold_fit,
    validate_instance,
    validate_utilities,
)

_MAX_EXPONENT = 4300  # CPython's default int digit limit, which bounds a literal's other parts


class InstanceParseError(ValidationError):
    """Malformed instance text; ``line_no`` is 0 for whole-file problems."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__([f"line {line_no}: {message}"])


def parse_instance(text: str) -> tuple[Instance, UtilityFunction | None]:
    """Parse the text format; returns the instance and utilities if present."""
    header = None
    items: list[str] = []
    prefs: dict[str, tuple[str, ...]] = {}  # in agent order
    sequence: list[str] | None = None
    utils: dict[str, tuple[int, list[int | Fraction]]] = {}  # agent: (line, row)

    lines = text.splitlines()
    if "#" in text:  # each line up to its first '#'
        lines = map(itemgetter(0), map(str.split, lines, repeat("#"), repeat(1)))
    # split() and strip() agree on whitespace: a line of none but whitespace has no fields
    for line_no, fields in enumerate(map(str.split, lines), start=1):
        if not fields:
            continue
        kind = fields[0]
        if kind == "item":
            if len(fields) != 2:
                raise InstanceParseError(line_no, "expected 'item <name>'")
            items.append(fields[1])
        elif kind == "agents":
            if header is not None:
                raise InstanceParseError(line_no, "duplicate header")
            if len(fields) != 6 or fields[2] != "items" or fields[4] != "seq":
                raise InstanceParseError(line_no, "malformed header, expected 'agents n items m seq L'")
            try:
                header = (int(fields[1]), int(fields[3]), int(fields[5]))
            except ValueError:
                raise InstanceParseError(line_no, "header counts must be integers") from None
        elif kind == "pref":
            agent, values = _directive(fields, line_no, "pref")
            if agent in prefs:
                raise InstanceParseError(line_no, f"duplicate preference for agent {agent}")
            prefs[agent] = tuple(values)
        elif kind == "seq":
            if len(fields) < 2 or fields[1] != ":":
                raise InstanceParseError(line_no, "expected 'seq : <agents>'")
            if sequence is not None:
                raise InstanceParseError(line_no, "duplicate sequence")
            sequence = fields[2:]
        elif kind == "util":
            agent, values = _directive(fields, line_no, "util")
            if agent in utils:
                raise InstanceParseError(line_no, f"duplicate utilities for agent {agent}")
            try:
                utils[agent] = (line_no, _utility_row(values))
            except (ValueError, ZeroDivisionError):
                raise InstanceParseError(line_no, "utilities must be decimal or rational literals") from None
        else:
            raise InstanceParseError(line_no, f"unknown directive {kind!r}")

    if header is None:
        raise InstanceParseError(0, "missing header")
    if sequence is None:
        raise InstanceParseError(0, "missing sequence")
    n, m, L = header
    if len(items) != m:
        raise InstanceParseError(0, f"header declares {m} items, found {len(items)}")
    if len(prefs) != n:
        raise InstanceParseError(0, f"header declares {n} agents, found {len(prefs)}")
    if len(sequence) != L:
        raise InstanceParseError(0, f"header declares sequence length {L}, found {len(sequence)}")

    inst = validate_instance(items, list(prefs), prefs, sequence)

    utility = None
    if utils:
        rows = {}
        for agent, (line_no, row) in utils.items():
            if agent not in inst.agents:
                raise InstanceParseError(line_no, f"utilities for unknown agent {agent}")
            order = inst.preferences[agent]
            if len(row) != len(order):
                raise InstanceParseError(
                    line_no, f"agent {agent}: {len(row)} utilities for {len(order)} items"
                )
            rows[agent] = dict(zip(order, row))
        utility = UtilityFunction(rows)
        # a row read along its agent's order is consistent with that order
        # iff it is positive and strictly decreasing; a row that is not goes
        # through validate_utilities, which names every row's problems
        for agent, (_, row) in utils.items():
            if not (row[-1] > 0 and all(map(gt, row, row[1:]))):
                validate_utilities(utility, inst)
            _hold_fit(utility, agent, inst.preferences[agent])
    return inst, utility


def _utility_row(values: list[str]) -> list[int] | list[Fraction]:
    """The row as ``int``s if every literal is an integer, else as ``Fraction``s
    (``int`` reads a subset of ``Fraction``'s literals, to the same values).

    ValueError for a literal holding ``_`` (3.10's ``int`` accepts ``5_000``,
    ``Fraction`` only from 3.11) or an exponent beyond ``_MAX_EXPONENT`` in
    magnitude (``Fraction`` computes ``10 ** exponent``).
    """
    if "_" in " ".join(values):
        raise ValueError("digit separator")
    try:
        return list(map(int, values))
    except ValueError:
        pass
    # a literal's exponent is all after its one 'e'; any other literal reads 0
    if max(abs(int(v.lower().partition("e")[2] or 0)) for v in values) > _MAX_EXPONENT:
        raise ValueError("exponent out of range")
    return list(map(Fraction, values))


def _directive(fields: list[str], line_no: int, kind: str) -> tuple[str, list[str]]:
    if len(fields) < 4 or fields[2] != ":":
        raise InstanceParseError(line_no, f"expected '{kind} <agent> : <values>'")
    return fields[1], fields[3:]


def serialize_instance(inst: Instance, utility: UtilityFunction | None = None) -> str:
    """Render an instance (and optional utilities) in the text format.

    Utilities are written from the integer rows: a scale-1 row as its
    worths, any other value as ``str(Fraction(worth, scale))``, which is
    ``model.render_fraction``'s text.
    ValidationError naming each item or agent id that ``parse_instance``
    could not read back: one that is empty or holds whitespace or ``#``;
    then, as ``parse_instance`` would name them, every problem of the
    utilities (``validate_utilities``); then the first agent whose row holds
    a value of more digits than ``str`` writes, which ``int`` and
    ``Fraction`` would not read back either (``sys.get_int_max_str_digits``).
    """
    ids = [*inst.items, *inst.agents]
    joined = " ".join(ids)
    if "#" in joined or joined.split() != ids:  # one pass over every id
        raise ValidationError([
            f"{kind} id {x!r} cannot be written: it is empty or holds whitespace or '#'"
            for kind, names in (("item", inst.items), ("agent", inst.agents))
            for x in names
            if "#" in x or x.split() != [x]
        ])
    if utility is not None:
        validate_utilities(utility, inst)
    lines = [f"agents {len(inst.agents)} items {len(inst.items)} seq {len(inst.sequence)}"]
    lines += [f"item {o}" for o in inst.items]
    for a in inst.agents:
        lines.append(f"pref {a} : " + " ".join(inst.preferences[a]))
    lines.append("seq : " + " ".join(inst.sequence))
    if utility is not None:
        for a in utility.agents():
            worth, scale = utility.rows[a]
            values = map(worth.__getitem__, inst.preferences[a])
            try:
                if scale == 1:
                    row = " ".join(map(str, values))
                else:
                    row = " ".join(str(Fraction(w, scale)) for w in values)
            except ValueError:  # ``str`` refuses an int past the digit limit
                limit = sys.get_int_max_str_digits()
                raise ValidationError(
                    [f"agent {a}: a utility of more than {limit} digits cannot be written"]
                ) from None
            lines.append(f"util {a} : {row}")
    lines.append("")  # the final newline, in the one join rather than a second copy
    return "\n".join(lines)
