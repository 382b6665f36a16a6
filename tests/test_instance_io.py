import random
from fractions import Fraction

import pytest

from seqalloc.instance_io import InstanceParseError, parse_instance, serialize_instance
from seqalloc.model import UtilityFunction, ValidationError, validate_instance

from conftest import random_consistent_utilities, random_instance

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
