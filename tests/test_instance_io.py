import random
from fractions import Fraction

import pytest

from seqalloc.instance_io import InstanceParseError, parse_instance, serialize_instance
from seqalloc.model import (
    UtilityFunction,
    ValidationError,
    render_fraction,
    validate_instance,
    validate_utilities,
)
from seqalloc.reduction import build_instance

from conftest import random_consistent_utilities, random_instance, random_restricted_formula

EXAMPLE = """\
# two agents, sequence 1221
agents 2 items 4 seq 4
item o1
item o2
item o3
item o4
pref 1 : o1 o2 o3 o4
pref 2 : o1 o3 o2 o4
seq : 1 2 2 1
util 1 : 3.1 3 2 1
"""


def test_parse_example():
    inst, utility = parse_instance(EXAMPLE)
    assert inst.items == ("o1", "o2", "o3", "o4")
    assert inst.agents == ("1", "2")
    assert inst.sequence == ("1", "2", "2", "1")
    assert utility is not None
    assert utility.of("1", "o1") == Fraction(31, 10)
    assert utility.of("1", "o4") == Fraction(1)


def test_utilities_are_exact_rationals_not_floats():
    _, utility = parse_instance(EXAMPLE)
    assert utility.of("1", "o1") != Fraction(3.1)


@pytest.mark.parametrize(
    "literal",
    [
        "7", "007", "+5", "-5", "1_000", "5_000", "1_0/3", "3.1", "7/3", "1e3", "\u0663",
        "0x10", "1/0", "x",
    ],
)
def test_utility_literals_parse_as_fraction_does(literal):
    """Every literal gives ``Fraction(literal)``'s value, or its parse error;
    a literal with a digit separator ``_`` is a parse error on every version
    (3.10's ``int`` accepts ``5_000`` and its ``Fraction`` rejects ``1_0/3``)."""
    text = EXAMPLE.replace("util 1 : 3.1 3 2 1", f"util 1 : {literal} 1/4 1/5 1/6")
    try:
        if "_" in literal:
            raise ValueError(literal)
        expected = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        message = "line 10: utilities must be decimal or rational literals"
        with pytest.raises(InstanceParseError, match=message):
            parse_instance(text)
        return
    if expected <= 0:
        with pytest.raises(ValidationError, match="non-positive utility for agent 1, item o1"):
            parse_instance(text)
        return
    _, utility = parse_instance(text)
    assert utility.of("1", "o1") == expected and type(utility.of("1", "o1")) is Fraction


def test_utilities_optional():
    text = "\n".join(l for l in EXAMPLE.splitlines() if not l.startswith("util"))
    _, utility = parse_instance(text)
    assert utility is None


@pytest.mark.parametrize("literal", ["1e4301", "1E+4301", "1e-4301", "2.5e-04301"])
def test_utility_exponents_beyond_4300_are_rejected(literal):
    """``Fraction`` computes ``10 ** exponent``, so an exponent beyond 4300,
    CPython's default int digit limit, is a parse error on its line."""
    text = EXAMPLE.replace("util 1 : 3.1 3 2 1", f"util 1 : {literal} 3 2 1")
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == 10
    assert str(exc.value) == "line 10: utilities must be decimal or rational literals"


@pytest.mark.parametrize(
    "literal, exponent",
    [("1e3", 3), ("1e-3", -3), ("1e300", 300), ("1e4300", 4300), ("1E-4300", -4300)],
)
def test_utility_exponents_within_the_bound_keep_their_exact_value(literal, exponent):
    value = Fraction(10) ** exponent
    row, item = (f"{literal} 3 2 1", "o1") if value > 3 else (f"3 2 1 {literal}", "o4")
    _, utility = parse_instance(EXAMPLE.replace("util 1 : 3.1 3 2 1", f"util 1 : {row}"))
    assert utility.of("1", item) == value


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("agents 2 items 4 seq 4", "agents 2 items 4"), "malformed header"),
        (("agents 2 items 4 seq 4", "agents two items 4 seq 4"), "integers"),
        (("seq : 1 2 2 1", "seq 1 2 2 1"), "expected 'seq"),
        (("item o4", "gizmo o4"), "unknown directive"),
        (("pref 2 : o1 o3 o2 o4", "pref 1 : o1 o3 o2 o4"), "duplicate preference"),
        (("util 1 : 3.1 3 2 1", "util 1 : 3.1 3 2"), "3 utilities for 4 items"),
        (("util 1 : 3.1 3 2 1", "util 1 : 3.1 3 x 1"), "decimal or rational"),
        (("util 1 : 3.1 3 2 1", "util 9 : 3.1 3 2 1"), "unknown agent 9"),
        (
            ("util 1 : 3.1 3 2 1", "util 1 : 3.1 3 2 1\nutil 1 : 4 3 2 1"),
            "line 11: duplicate utilities for agent 1",
        ),
        (("seq : 1 2 2 1", "seq : 1 2 2 1\nseq : 1 2 2 1"), "line 10: duplicate sequence"),
    ],
)
def test_parse_errors(mutation, message):
    old, new = mutation
    with pytest.raises(InstanceParseError, match=message):
        parse_instance(EXAMPLE.replace(old, new))


def test_missing_header_and_sequence():
    with pytest.raises(InstanceParseError, match="missing header"):
        parse_instance("item a\n")
    with pytest.raises(InstanceParseError, match="missing sequence"):
        parse_instance("agents 1 items 1 seq 1\nitem a\npref 1 : a\n")


def test_count_mismatches():
    with pytest.raises(InstanceParseError, match="declares 4 items, found 3"):
        parse_instance(EXAMPLE.replace("item o4\n", ""))
    with pytest.raises(InstanceParseError, match="sequence length 4, found 3"):
        parse_instance(EXAMPLE.replace("seq : 1 2 2 1", "seq : 1 2 2"))


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(EXAMPLE.replace("item o2", "item"))
    assert exc.value.line_no == 4
    assert "line 4" in str(exc.value)


def test_serialize_parse_roundtrip_random():
    rng = random.Random(71)
    for _ in range(25):
        inst = random_instance(rng, n=rng.randint(1, 4), m=rng.randint(1, 7))
        agent = rng.choice(inst.agents)
        u = random_consistent_utilities(rng, inst, agent)
        text = serialize_instance(inst, u)
        inst2, u2 = parse_instance(text)
        assert inst2 == inst
        assert all(u2.of(agent, o) == u.of(agent, o) for o in inst.items)


def test_serialize_renders_exact_fractions():
    inst, _ = parse_instance(EXAMPLE)
    u = UtilityFunction(
        {"2": {"o1": Fraction(7, 3), "o3": Fraction(2), "o2": Fraction(1, 2), "o4": Fraction(1, 4)}}
    )
    text = serialize_instance(inst, u)
    assert "util 2 : 7/3 2 1/2 1/4" in text
    inst2, u2 = parse_instance(text)
    assert u2.of("2", "o1") == Fraction(7, 3)


def test_serialize_rejects_ids_that_do_not_read_back():
    items = ["x#1", "x#2", "a b", "", "ok", "tab\tbed"]
    agents = ["1", "line\nbreak"]
    inst = validate_instance(items, agents, {a: items for a in agents}, ["1"])
    with pytest.raises(ValidationError) as exc:
        serialize_instance(inst)
    assert exc.value.problems == [
        f"{kind} id {x!r} cannot be written: it is empty or holds whitespace or '#'"
        for kind, x in [
            ("item", "x#1"), ("item", "x#2"), ("item", "a b"), ("item", ""),
            ("item", "tab\tbed"), ("agent", "line\nbreak"),
        ]
    ]


@pytest.mark.parametrize(
    "rows, problems",
    [
        ({"9": {"o1": 4, "o2": 3, "o3": 2, "o4": 1}}, ["utilities given for unknown agent 9"]),
        ({"1": {"o1": 3, "o2": 2, "o3": 1}}, ["utilities of agent 1 do not cover the item set"]),
        (
            {"1": dict.fromkeys(["o1", "o2", "o3", "o4"], 1)},
            [f"utilities of agent 1 not strictly decreasing at {a} vs {b}"
             for a, b in [("o1", "o2"), ("o2", "o3"), ("o3", "o4")]],
        ),
    ],
    ids=["unknown-agent", "missing-item", "all-ones"],
)
def test_serialize_rejects_utilities_that_do_not_read_back(rows, problems):
    """Utilities that ``parse_instance`` would reject are not written: the
    error names their problems as validation does."""
    inst, _ = parse_instance(EXAMPLE)
    with pytest.raises(ValidationError) as exc:
        serialize_instance(inst, UtilityFunction(rows))
    assert exc.value.problems == problems


@pytest.mark.parametrize("scale", [1, 3])
def test_serialize_rejects_utilities_past_the_int_digit_limit(default_digit_limit, scale):
    """A value that ``str`` cannot write, ``parse_instance`` could not read
    back, whether its row is written as worths or as fractions."""
    inst, _ = parse_instance(EXAMPLE)
    big = 10**default_digit_limit
    rows = {
        "1": {"o1": Fraction(big, scale), "o2": 3, "o3": 2, "o4": 1},
        "2": {"o1": 4, "o3": 3, "o2": 2, "o4": 1},
    }
    with pytest.raises(ValidationError) as exc:
        serialize_instance(inst, UtilityFunction(rows))
    assert exc.value.problems == [
        f"agent 1: a utility of more than {default_digit_limit} digits cannot be written"
    ]


def test_render_fraction_writes_past_the_int_digit_limit(default_digit_limit):
    big = 10**default_digit_limit + 1
    assert render_fraction(Fraction(big)) == "1" + "0" * (default_digit_limit - 1) + "1"
    assert render_fraction(Fraction(1, big)) == "1/1" + "0" * (default_digit_limit - 1) + "1"


def test_serialize_keeps_ids_that_read_back():
    items = [":", "item", "agents", "oé"]
    inst = validate_instance(items, ["seq", "pref"], {"seq": items, "pref": items[::-1]}, ["pref"])
    assert parse_instance(serialize_instance(inst))[0] == inst


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("util 1 : 3.1 3 2", "agent 1: 3 utilities for 4 items"),
        ("util 9 : 3.1 3 2 1", "utilities for unknown agent 9"),
    ],
)
def test_utility_row_errors_carry_their_line_number(mutation, message):
    with pytest.raises(InstanceParseError, match=message) as exc:
        parse_instance(EXAMPLE.replace("util 1 : 3.1 3 2 1", mutation))
    assert exc.value.line_no == 10
    assert str(exc.value) == f"line 10: {message}"


# --- util rows read in one pass when they can be ------------------------------

_ODD_LITERALS = ["+5", "3.1", "7/3", "1e3", "1_000", "x"]


def _literal_value(v: str) -> Fraction:
    """The grammar's value of one utility literal: ``Fraction(v)``, and a
    ValueError for a literal holding the digit separator ``_``."""
    if "_" in v:
        raise ValueError(v)
    return Fraction(v)


def _util_row_case(rng: random.Random):
    """An instance text with one seeded ``util`` row, that row's literals, and
    the line it is on. The row holds distinct integers, now and then with odd
    literals mixed in, sorted best first when every literal reads."""
    m = rng.randint(1, 12)
    items = [f"o{k}" for k in range(m)]
    agents = ["1", "a_x1^1"]  # an agent id holding '_'
    literals = [str(v) for v in rng.sample(range(1, 10 * m + 1), m)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        literals[rng.randrange(m)] = rng.choice(_ODD_LITERALS)
    try:
        values = [_literal_value(v) for v in literals]
    except (ValueError, ZeroDivisionError):
        pass
    else:
        literals = [literals[k] for k in sorted(range(m), key=lambda k: -values[k])]
    inst = validate_instance(items, agents, {a: items for a in agents}, [agents[0]])
    agent = rng.choice(agents)
    text = serialize_instance(inst) + f"util {agent} : {' '.join(literals)}\n"
    return inst, agent, literals, text, text.count("\n")


def test_util_rows_parse_as_the_per_value_reference():
    """Every seeded ``util`` row gives the rows, or the parse error with its
    message and line, of ``_literal_value`` applied value by value."""
    rng = random.Random(29)
    seen = dict.fromkeys(["integer", "mixed", "rejected", "separator", "inconsistent"], 0)
    for _ in range(400):
        inst, agent, literals, text, line_no = _util_row_case(rng)
        try:
            values = [_literal_value(v) for v in literals]
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InstanceParseError) as exc:
                parse_instance(text)
            assert exc.value.line_no == line_no
            assert str(exc.value) == f"line {line_no}: utilities must be decimal or rational literals"
            seen["separator" if "1_000" in literals else "rejected"] += 1
            continue
        expected = UtilityFunction({agent: dict(zip(inst.preferences[agent], values))})
        try:
            validate_utilities(expected, inst)
        except ValidationError as err:
            with pytest.raises(ValidationError) as exc:
                parse_instance(text)
            assert exc.value.problems == err.problems
            seen["inconsistent"] += 1
            continue
        _, u = parse_instance(text)
        assert u.rows == expected.rows
        assert all(type(w) is int for w in u.rows[agent][0].values())
        seen["integer" if all(v.isdigit() for v in literals) else "mixed"] += 1
    assert min(seen.values()) >= 10, seen


def test_digit_separator_in_an_integer_row_is_rejected():
    text = EXAMPLE.replace("util 1 : 3.1 3 2 1", "util 1 : 4000 1_000 2 1")
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(text)
    assert str(exc.value) == "line 10: utilities must be decimal or rational literals"


def test_agent_id_with_underscore_keeps_its_integer_row():
    inst = validate_instance(["o_1", "o2"], ["a_x1^1"], {"a_x1^1": ["o_1", "o2"]}, ["a_x1^1"])
    _, u = parse_instance(serialize_instance(inst) + "util a_x1^1 : 4 3\n")
    assert u.rows == {"a_x1^1": ({"o_1": 4, "o2": 3}, 1)}


# --- serialization renders from the integer rows ----------------------------


def _serialize_per_value(inst, u) -> str:
    """Reference text: every utility rendered from its ``Fraction``."""
    lines = [
        f"util {a} : " + " ".join(render_fraction(u.of(a, o)) for o in inst.preferences[a])
        for a in u.agents()
    ]
    return serialize_instance(inst) + "".join(line + "\n" for line in lines)


def _scaled_utilities(rng: random.Random, inst, agent: str) -> UtilityFunction:
    """Strictly decreasing positive ``Fraction``s with denominators up to 6,
    the worst item at ``Fraction(12, 6)`` (it reduces to 2) and the best
    one at a seventh above the sum, so the row's scale is above 1."""
    worst, *others = reversed(inst.preferences[agent])
    vals = {worst: Fraction(12, 6)}
    v = vals[worst]
    for o in others:
        v += Fraction(rng.randint(1, 30), rng.randint(1, 6))
        vals[o] = v
    vals[inst.preferences[agent][0]] = v + Fraction(1, 7)
    return UtilityFunction({agent: vals})


def test_serialize_renders_as_the_per_value_reference():
    """Scale-1 rows, scale>1 rows and a 30-variable compile serialize to the
    bytes of a per-value ``render_fraction`` renderer, and read back equal."""
    rng = random.Random(83)
    cases = []
    for _ in range(30):
        inst = random_instance(rng, n=rng.randint(1, 3), m=rng.randint(1, 12))
        agent = rng.choice(inst.agents)
        cases.append((inst, random_consistent_utilities(rng, inst, agent)))
        cases.append((inst, _scaled_utilities(rng, inst, agent)))
    out = build_instance(random_restricted_formula(random.Random(68), num_vars=30))
    cases.append((out.instance, out.utility))
    scales = set()
    for inst, u in cases:
        text = serialize_instance(inst, u)
        assert text == _serialize_per_value(inst, u)
        inst2, u2 = parse_instance(text)
        assert inst2 == inst and u2.rows == u.rows
        scales |= {scale > 1 for _, scale in u.rows.values()}
    assert scales == {False, True}
