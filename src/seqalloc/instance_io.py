"""Text format for allocation instances.

Grammar (one directive per line, ``#`` starts a comment):

    agents <n> items <m> seq <L>
    item <name>                        (m lines, declaration order is canonical)
    pref <agent> : <item> ... <item>   (n lines, most preferred first)
    seq : <agent> ... <agent>          (L entries)
    util <agent> : <decimal> ...       (optional; aligned with that agent's
                                        preference order, parsed exactly)

Utility literals are parsed to exact rationals, so ``3.1`` is 31/10, never a
binary float; a literal holding ``_`` is rejected on every Python version.
Each ``util`` row is converted once, by ``UtilityFunction.from_rationals``:
to ``Fraction``s for the API and to the integer view (integer worths over one
scale) that validation and every later check read.
"""

from __future__ import annotations

from fractions import Fraction

from .model import Instance, UtilityFunction, ValidationError, validate_instance, validate_utilities


class InstanceParseError(ValidationError):
    """Malformed instance text; ``line_no`` is 0 for whole-file problems."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__([f"line {line_no}: {message}"])


def parse_instance(text: str) -> tuple[Instance, UtilityFunction | None]:
    """Parse the text format; returns the instance and utilities if present."""
    header = None
    items: list[str] = []
    prefs: dict[str, tuple[str, ...]] = {}
    agents: list[str] = []
    sequence: list[str] | None = None
    utils: dict[str, tuple[int, list[int | Fraction]]] = {}  # agent: (line, row)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "agents":
            if header is not None:
                raise InstanceParseError(line_no, "duplicate header")
            if len(fields) != 6 or fields[2] != "items" or fields[4] != "seq":
                raise InstanceParseError(line_no, "malformed header, expected 'agents n items m seq L'")
            try:
                header = (int(fields[1]), int(fields[3]), int(fields[5]))
            except ValueError:
                raise InstanceParseError(line_no, "header counts must be integers") from None
        elif kind == "item":
            if len(fields) != 2:
                raise InstanceParseError(line_no, "expected 'item <name>'")
            items.append(fields[1])
        elif kind == "pref":
            agent, values = _directive(fields, line_no, "pref")
            if agent in prefs:
                raise InstanceParseError(line_no, f"duplicate preference for agent {agent}")
            prefs[agent] = tuple(values)
            agents.append(agent)
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
                utils[agent] = (line_no, [_utility_literal(v) for v in values])
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
    if len(agents) != n:
        raise InstanceParseError(0, f"header declares {n} agents, found {len(agents)}")
    if len(sequence) != L:
        raise InstanceParseError(0, f"header declares sequence length {L}, found {len(sequence)}")

    inst = validate_instance(items, agents, prefs, sequence)

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
        utility = UtilityFunction.from_rationals(rows)
        validate_utilities(utility, inst)
    return inst, utility


def _utility_literal(v: str) -> int | Fraction:
    """An integer literal as ``int``, any other as ``Fraction(v)``.

    ValueError for a literal holding ``_``: ``int`` accepts digit
    separators on every supported version, ``Fraction`` only from 3.11, so
    rejecting them keeps the grammar the same on all of them. Otherwise
    ``int`` accepts a subset of ``Fraction``'s literals and gives them the
    same value.
    """
    if "_" in v:
        raise ValueError(v)
    try:
        return int(v)
    except ValueError:
        return Fraction(v)


def _directive(fields: list[str], line_no: int, kind: str) -> tuple[str, list[str]]:
    if len(fields) < 4 or fields[2] != ":":
        raise InstanceParseError(line_no, f"expected '{kind} <agent> : <values>'")
    return fields[1], fields[3:]


def serialize_instance(inst: Instance, utility: UtilityFunction | None = None) -> str:
    """Render an instance (and optional utilities) in the text format.

    ValidationError naming each item or agent id that ``parse_instance``
    could not read back: one that is empty or holds whitespace or ``#``.
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
    lines = [f"agents {len(inst.agents)} items {len(inst.items)} seq {len(inst.sequence)}"]
    lines += [f"item {o}" for o in inst.items]
    for a in inst.agents:
        lines.append(f"pref {a} : " + " ".join(inst.preferences[a]))
    lines.append("seq : " + " ".join(inst.sequence))
    if utility is not None:
        for a in utility.agents():
            row = " ".join(render_fraction(utility.of(a, o)) for o in inst.preferences[a])
            lines.append(f"util {a} : {row}")
    return "\n".join(lines) + "\n"


def render_fraction(x: Fraction) -> str:
    """Exact text of a rational: ``7`` or ``7/3``, never a binary float."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
