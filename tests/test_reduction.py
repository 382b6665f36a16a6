import dataclasses
import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from seqalloc import reduction
from seqalloc.engine import Encoded, PickState, run_with_report, stages_of
from seqalloc.instance_io import parse_instance, serialize_instance
from seqalloc.model import (
    Instance,
    UtilityFunction,
    ValidationError,
    bundle_utility,
    complete_order,
    integer_values,
    validate_instance,
)
from seqalloc.reduction import (
    MANIPULATOR,
    FormulaError,
    GadgetRegistry,
    PatternOutcome,
    PatternReport,
    ReductionOutput,
    RestrictedFormula,
    RoundSpan,
    _occurrences,
    _pattern_report,
    assignment_to_report,
    audit_utilities,
    build_instance,
    parse_formula,
    validate_formula,
    verify_choice_patterns,
    verify_forward,
)
from seqalloc.golden import REFERENCE_ASSIGNMENT, REFERENCE_FORMULA

from conftest import package_env, random_restricted_formula


@pytest.fixture(scope="module")
def reference():
    return build_instance(parse_formula(REFERENCE_FORMULA))


def test_parse_formula_reference():
    f = parse_formula(REFERENCE_FORMULA)
    assert f.num_vars == 3
    assert f.clauses == ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3))


def test_parse_formula_rejects_garbage():
    with pytest.raises(FormulaError, match="problem line"):
        parse_formula("1 2 3 0\n")
    with pytest.raises(FormulaError, match="unknown token"):
        parse_formula("p cnf 3 1\n1 two 3 0\n")
    with pytest.raises(FormulaError, match="declares 2 clauses"):
        parse_formula("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(FormulaError, match="line 1: malformed problem line"):
        parse_formula("p cnf a 3\n1 2 3 0\n")
    # both would otherwise parse as the valid reference formula
    with pytest.raises(FormulaError, match="line 3: duplicate problem line"):
        parse_formula("p cnf 9 9\n" + REFERENCE_FORMULA)
    moved = "1 2 3 0\n" + REFERENCE_FORMULA.replace("\n1 2 3 0\n", "\n", 1)
    with pytest.raises(FormulaError, match="line 1: clause before the problem line"):
        parse_formula(moved)
    with pytest.raises(FormulaError, match="formula has 0 variables, expected at least 1"):
        parse_formula("p cnf 0 0\n")


def test_validate_formula_enforces_restrictions():
    with pytest.raises(FormulaError, match="formula has 0 variables, expected at least 1"):
        validate_formula(0, [])
    with pytest.raises(FormulaError, match="expected 3"):
        validate_formula(2, [(1, 2)])
    with pytest.raises(FormulaError, match="repeats a variable"):
        validate_formula(3, [(1, -1, 2)])
    with pytest.raises(FormulaError, match="unknown variable"):
        validate_formula(2, [(1, 2, 5)])
    # literal -3 occurs zero times, 3 occurs four times
    with pytest.raises(FormulaError, match="occurs"):
        validate_formula(
            3,
            [(1, 2, 3), (1, 2, 3), (-1, -2, 3), (-1, -2, 3)],
        )


def test_reference_dimensions(reference):
    f = reference.formula
    assert len(reference.instance.agents) == 1 + 4 * f.num_vars == 13
    assert len(reference.instance.items) == 18 * f.num_vars + 3 * len(f.clauses) == 66
    assert len(reference.instance.sequence) == 16 * f.num_vars + 4 * len(f.clauses) == 64


def test_reference_compile_is_pinned(reference):
    """Exact target and manipulator utilities, along their preference order."""
    assert reference.target == 214475092837
    row = [
        reference.utility.of(MANIPULATOR, o)
        for o in reference.instance.preferences[MANIPULATOR]
    ]
    assert row == [
        85296470701, 85296470700, 76766823631, 76766823630, 51177882420,
        38383411815, 26441905917, 25588941210, 12794470605, 852964707,
        151503501, 151503500, 136353151, 136353150, 90902100,
        68176575, 46966085, 45451050, 22725525, 1515035,
        269101, 269100, 242191, 242190, 161460,
        121095, 83421, 80730, 40365, 2691,
        540, 539, 538, 537,
    ] + list(range(32, 0, -1))


# the target T of each pinned compile, which neither hash below holds
_PINNED_TARGETS = {
    "reference": 214475092837,
    "random6": 268570835367038450898,
    "random30": 30852556754107731573816531311244381122943951331655192592273092533846183306488115816165146,
}


@pytest.mark.parametrize(
    "formula, instance_sha, registry_sha",
    [
        (
            "reference",
            "01c92bff64dbc323b0e895ec9dae446b868a67d3e4093101e5137ad5a7a769d9",
            "5429cd70eb9b222c3bd5d6f0defcdbc73e104a5ae744aa6a4fba7e47ae321619",
        ),
        (
            "random6",
            "9d22a54e11cc4510918caff112c5ed8cdc562c1e7d35bdbfb8464386e3aedaa8",
            "2b06b39fc79757e5cdd427f07f69a823a8d2388d16757863064a974cfb17d272",
        ),
        (
            "random30",
            "5b6cd0376138c36b86d5222f553e9b75e82a5c33c6e444491f08bab3fd74373b",
            "16415d6b4bb12f4b107eb65b43bc16ed716b033b9abe54c96f5773661df2b4c0",
        ),
    ],
)
def test_whole_compile_is_pinned(formula, instance_sha, registry_sha):
    """Every item, agent, preference list, stage, utility and registry entry,
    and the target."""
    if formula == "reference":
        f = parse_formula(REFERENCE_FORMULA)
    elif formula == "random6":
        f = random_restricted_formula(random.Random(61), num_vars=6)
    else:
        f = random_restricted_formula(random.Random(68), num_vars=30)
    out = build_instance(f)
    text = serialize_instance(out.instance, out.utility)
    assert hashlib.sha256(text.encode()).hexdigest() == instance_sha
    assert hashlib.sha256(out.registry.to_json().encode()).hexdigest() == registry_sha
    assert out.target == _PINNED_TARGETS[formula]


def test_dimensions_scale_with_formula_size():
    rng = random.Random(61)
    f = random_restricted_formula(rng, num_vars=6)
    out = build_instance(f)
    assert len(out.instance.agents) == 1 + 4 * 6
    assert len(out.instance.items) == 18 * 6 + 3 * 8
    assert len(out.instance.sequence) == 16 * 6 + 4 * 8
    assert out.instance.turns(MANIPULATOR) == 4 * 6 + 8


def test_registry_names_every_agent_and_item(reference):
    reg = reference.registry
    agents = set(reg.literal_agents.values()) | {MANIPULATOR}
    assert agents == set(reference.instance.agents)
    items = set()
    for group in (reg.choice_items, reg.consistency_items, reg.dummy_items, reg.clause_items):
        for names in group.values():
            items.update(names)
    assert items == set(reference.instance.items)
    doc = json.loads(reg.to_json())
    assert set(doc) == {
        "literal_agents", "choice_items", "consistency_items", "dummy_items",
        "clause_items", "clause_agents", "occurrences", "rounds",
    }


def test_rounds_tile_the_sequence(reference):
    rounds = reference.registry.rounds
    assert rounds[0].start == 1
    assert rounds[-1].end == len(reference.instance.sequence)
    for prev, cur in zip(rounds, rounds[1:]):
        assert cur.start == prev.end + 1
    kinds = [r.kind for r in rounds]
    assert kinds == ["choice"] * 3 + ["clause"] * 4 + ["collection"]


def test_audit_passes_on_random_formulas():
    rng = random.Random(62)
    for num_vars in (3, 6, 9, 30):
        out = build_instance(random_restricted_formula(rng, num_vars))
        audit_utilities(out)  # raises on any broken inequality


def _with_values(out, edits=None, scale=1, preference=None):
    """``out`` with some of the manipulator's values replaced, all values
    then divided by ``scale``, and optionally a new manipulator preference."""
    vals = dict(out.utility.values[MANIPULATOR])
    vals.update({o: Fraction(v) for o, v in (edits or {}).items()})
    vals = {o: v / scale for o, v in vals.items()}
    instance = out.instance
    if preference is not None:
        instance = instance.with_preference(MANIPULATOR, preference)
    return dataclasses.replace(
        out, instance=instance, utility=UtilityFunction({MANIPULATOR: vals})
    )


# One hand-edited value row per named inequality of the reference ledger
# (values as in test_reference_compile_is_pinned; eps_total = 6, the tail
# holds 32..1 with sum 528, and round x1's scale exceeds all below by 9).
# Every edit keeps the earlier inequalities and breaks its own by the
# smallest step, so an audit that is off by one there passes it.
_BROKEN_LEDGERS = {
    "order": ({"o_c2^1": 540}, "order violated at o_c1^1 vs o_c2^1"),
    "non-positive": ({"o_c4^3": 0}, "non-positive utility"),
    "o1-near-tie": ({"o_x1^1": 85296470700 + 7}, "x1: o^1 twins not nearly tied"),
    "o2-near-tie": ({"o_x1^2": 76766823630 + 7}, "x1: o^2 twins not nearly tied"),
    "o1-over-o2": (
        {"o_x1^2": 85296470700 - 852964707 + 1, "o_~x1^2": 85296470700 - 852964707},
        "x1: o^1 items do not dominate o^2 items",
    ),
    "consistency-pairs": ({"h_x1^1": 25588941210 + 1}, "x1: consistency pair inequality violated"),
    "round-dominance": ({"o_x2^1": 151503501 + 3}, "x1: round scale does not dominate later items"),
    "clause-top": ({"o_c4^1": 32 + 6}, "c4: top clause item does not dominate leftovers"),
    "clause-scale": ({"o_c4^1": 528}, "clause scale does not dominate the tail"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_LEDGERS))
def test_audit_names_each_broken_inequality(reference, case):
    edits, message = _BROKEN_LEDGERS[case]
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        audit_utilities(_with_values(reference, edits))


def test_audit_names_broken_h_order(reference):
    """The h items sit in h order inside the manipulator's preference, so
    breaking that order without breaking the preference order needs both
    swapped."""
    pref = list(reference.instance.preferences[MANIPULATOR])
    i, j = pref.index("h_x1^1"), pref.index("h_x1^2")
    pref[i], pref[j] = pref[j], pref[i]
    broken = _with_values(
        reference, {"h_x1^1": 12794470605, "h_x1^2": 25588941210}, preference=pref
    )
    with pytest.raises(AssertionError, match=r"^x1: h order violated$"):
        audit_utilities(broken)


def test_audit_scales_its_constants_with_the_values(reference):
    """Divided by 7, round x1's margin of 9 units becomes 9/7, below the
    epsilon allowance of 6; an audit comparing unscaled constants with
    integers over the denominator 7 would pass this ledger."""
    with pytest.raises(
        AssertionError, match=r"^x1: round scale does not dominate later items$"
    ):
        audit_utilities(_with_values(reference, scale=7))
    audit_utilities(_with_values(reference, scale=1))


def test_audit_requires_utilities_on_every_item(reference):
    vals = dict(reference.utility.values[MANIPULATOR])
    del vals["o_c4^3"]
    broken = dataclasses.replace(reference, utility=UtilityFunction({MANIPULATOR: vals}))
    with pytest.raises(ValidationError, match="utilities of agent 1 do not cover the item set"):
        audit_utilities(broken)


# Swap the manipulator's two top values on the reference compile.
_BROKEN_LEDGER_AUDIT = """
import dataclasses
from seqalloc.golden import REFERENCE_FORMULA
from seqalloc.model import UtilityFunction
from seqalloc.reduction import MANIPULATOR, audit_utilities, build_instance, parse_formula

out = build_instance(parse_formula(REFERENCE_FORMULA))
vals = dict(out.utility.values[MANIPULATOR])
first, second = out.instance.preferences[MANIPULATOR][:2]
vals[first], vals[second] = vals[second], vals[first]
audit_utilities(dataclasses.replace(out, utility=UtilityFunction({MANIPULATOR: vals})))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_audit_rejects_broken_ledger_under_any_flag(flags):
    """``python -O`` strips ``assert`` statements; the audit must not rely on them."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _BROKEN_LEDGER_AUDIT],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "AssertionError: order violated at o_x1^1 vs o_~x1^1" in proc.stderr


def test_assignment_to_report_requires_total_assignment(reference):
    with pytest.raises(ValueError, match="missing variables"):
        assignment_to_report(reference, {1: True})


def test_forward_soundness_on_reference(reference):
    for assignment in reference.formula.satisfying_assignments():
        fwd = verify_forward(reference, assignment)
        assert fwd.meets_target, assignment
        assert fwd.utility >= reference.target


def test_forward_fails_on_non_satisfying_assignment(reference):
    # x1=F, x2=F, x3=F falsifies clause 1; its top item escapes
    fwd = verify_forward(reference, {1: False, 2: False, 3: False})
    assert not fwd.meets_target
    assert "o_c1^1" not in fwd.manipulator_bundle


def test_reference_assignment_collects_all_top_clause_items(reference):
    fwd = verify_forward(reference, REFERENCE_ASSIGNMENT)
    assert fwd.meets_target
    assert {f"o_c{c}^1" for c in (1, 2, 3, 4)} <= fwd.manipulator_bundle


def test_choice_patterns_agree_with_sat_enumeration(reference):
    report = verify_choice_patterns(reference)
    assert len(report.outcomes) == 4 ** 3
    assert report.satisfiable
    assert report.sat_enumeration_agrees
    meeting = {
        "".join("T" if o.assignment[v] else "F" for v in (1, 2, 3))
        for o in report.outcomes
        if o.meets_target
    }
    direct = {
        "".join("T" if a[v] else "F" for v in (1, 2, 3))
        for a in reference.formula.satisfying_assignments()
    }
    assert meeting == direct


def test_choice_patterns_on_random_formula():
    rng = random.Random(63)
    out = build_instance(random_restricted_formula(rng, num_vars=3))
    report = verify_choice_patterns(out)
    assert report.sat_enumeration_agrees


def test_pattern_sweep_matches_engine_replay(monkeypatch):
    """The sweep's one shared encoding against a fresh engine replay per pattern."""
    runs = []

    class RecordingPickState(PickState):
        def advance(self, until):
            picks = super().advance(until)
            runs.append(picks)
            return picks

    monkeypatch.setattr(reduction, "PickState", RecordingPickState)
    rng = random.Random(66)
    formulas = [random_restricted_formula(rng, 3) for _ in range(4)]
    formulas.append(random_restricted_formula(rng, 6))
    for f in formulas:
        out = build_instance(f)
        runs.clear()
        report = verify_choice_patterns(out)
        assert len(report.outcomes) == len(runs) == 4 ** f.num_vars
        turns = stages_of(out.instance.sequence, MANIPULATOR)
        consistent = 0
        for outcome, picks in zip(report.outcomes, runs):
            swept = frozenset(out.instance.items[picks[t]] for t in turns)
            alloc = run_with_report(out.instance, MANIPULATOR, _pattern_report(out, outcome.kinds))
            bundle = alloc.bundles[MANIPULATOR]
            assert swept == bundle, outcome.kinds
            assert outcome.utility == bundle_utility(out.utility, MANIPULATOR, bundle)
            if outcome.consistent:
                consistent += 1
                fwd = verify_forward(out, outcome.assignment)
                assert (fwd.manipulator_bundle, fwd.utility) == (bundle, outcome.utility)
                assert fwd.meets_target == outcome.meets_target
        assert consistent == 2 ** f.num_vars


def _name_based_sweep(out, quadruple=None):
    """Reference sweep: each pattern's report built from item names, then encoded.

    Every check of ``verify_choice_patterns`` on names: the report from
    ``quadruple`` (by default ``_round_quadruple`` below) and the top clause
    items, the bundle as a set of names, utility compared as a ``Fraction``
    against T.
    """
    quadruple = quadruple or _round_quadruple
    f = out.formula
    items = out.instance.items
    worth, scale = integer_values(out.utility, MANIPULATOR, items)
    enc = Encoded(out.instance)
    manip = enc.agent_index[MANIPULATOR]
    turns = stages_of(enc.seq, manip)
    tops = [clause_item(c, 1) for c in range(1, len(f.clauses) + 1)]
    consistency = {}
    for v in f.variables():
        h = [consistency_item(v, j) for j in (1, 2, 3)]
        nh = [consistency_item(-v, j) for j in (1, 2, 3)]
        consistency[v] = (frozenset(h + nh), {h[1], nh[1]})
    outcomes = []
    pattern_sat = False
    for kinds in itertools.product(["T", "F", "I1", "I2"], repeat=f.num_vars):
        body = [o for v, k in zip(f.variables(), kinds) for o in quadruple(v, k)]
        report = complete_order(body + tops, items)
        enc.prefs[manip] = [enc.item_index[o] for o in report]
        picks = PickState(enc).advance(len(enc.seq))
        mine = [picks[t] for t in turns]
        bundle = frozenset(items[k] for k in mine)
        utility = Fraction(sum(worth[k] for k in mine), scale)
        meets = utility >= out.target
        consistent = all(k in ("T", "F") for k in kinds)
        assignment = satisfies = None
        if consistent:
            assignment = {v: k == "T" for v, k in zip(f.variables(), kinds)}
            satisfies = f.is_satisfied_by(assignment)
            if meets != satisfies:
                raise RuntimeError(
                    f"pattern {kinds}: meets_target={meets} but satisfies={satisfies}"
                )
            pattern_sat = pattern_sat or meets
        else:
            for v, k in zip(f.variables(), kinds):
                if k in ("T", "F"):
                    continue
                six, pair = consistency[v]
                got = bundle & six
                if got != pair:
                    raise RuntimeError(
                        f"pattern {kinds}: round x{v} consistency items {sorted(got)},"
                        f" expected exactly {sorted(pair)}"
                    )
            if meets:
                raise RuntimeError(f"inconsistent pattern {kinds} meets the target")
        outcomes.append(
            PatternOutcome(tuple(kinds), utility, meets, consistent, assignment, satisfies)
        )
    direct_sat = bool(f.satisfying_assignments())
    return PatternReport(tuple(outcomes), pattern_sat, pattern_sat == direct_sat)


# The compile as it was before it ran on item indices, kept verbatim but for
# its name: every item and agent named through the naming helpers at each
# use, every preference completed with ``complete_order`` over names, and a
# name-keyed utility ledger. The naming helpers, the weight table and the
# quadruples are this file's own, as they were before ``reduction`` defined
# a round by one table of slots, so a wrong slot in that table fails the
# compares below. The index compile must reproduce it byte for byte.


def lit_name(lit: int) -> str:
    v = abs(lit)
    return f"x{v}" if lit > 0 else f"~x{v}"


def choice_item(lit: int, j: int) -> str:
    return f"o_{lit_name(lit)}^{j}"


def consistency_item(lit: int, j: int) -> str:
    return f"h_{lit_name(lit)}^{j}"


def clause_item(c: int, j: int) -> str:
    return f"o_c{c}^{j}"


def agent_id(lit: int, copy: int) -> str:
    return f"a_{lit_name(lit)}^{copy}"


def dummy_item(lit: int, j: str) -> str:
    return f"d_{lit_name(lit)}^{j}"


def _round_values(v: int, B: int) -> dict[str, int]:
    """Concrete utilities of the ten manipulator-relevant items of round v.

    Keys are in the manipulator's preference order. A +1 epsilon separates
    each positive-literal choice item from its negative twin; everything
    else scales with B.
    """
    x, nx = v, -v
    return {
        choice_item(x, 1): 100 * B + 1,
        choice_item(nx, 1): 100 * B,
        choice_item(x, 2): 90 * B + 1,
        choice_item(nx, 2): 90 * B,
        consistency_item(nx, 1): 60 * B,
        consistency_item(nx, 2): 45 * B,
        consistency_item(nx, 3): 31 * B,
        consistency_item(x, 1): 30 * B,
        consistency_item(x, 2): 15 * B,
        consistency_item(x, 3): 1 * B,
    }


def _round_quadruple(v: int, kind: str) -> list[str]:
    """The four items the manipulator picks in round v, in pick order.

    kind: "T" (consistent, variable true), "F" (consistent, false),
    "I1" (inconsistent o_x^1 then o_~x^2), "I2" (inconsistent o_~x^1 then o_x^2).
    """
    x, nx = v, -v
    if kind == "T":
        return [choice_item(nx, 1), choice_item(nx, 2), consistency_item(nx, 3), consistency_item(x, 1)]
    if kind == "F":
        return [choice_item(x, 1), choice_item(x, 2), consistency_item(nx, 1), consistency_item(x, 3)]
    if kind == "I1":
        return [choice_item(x, 1), choice_item(nx, 2), consistency_item(nx, 2), consistency_item(x, 2)]
    if kind == "I2":
        return [choice_item(nx, 1), choice_item(x, 2), consistency_item(nx, 2), consistency_item(x, 2)]
    raise ValueError(f"unknown round kind {kind!r}")


def _name_based_build(f: RestrictedFormula) -> ReductionOutput:
    """Compile the formula. The utility ledger is audited before returning.

    One pass per variable appends its whole gadget and one pass per clause
    its round. The canonical item order is, per variable, the
    manipulator-relevant block (the keys of its round's weight table) then
    the dummies, then all clause items. Every agent's preference is an
    explicit head completed with that order; the manipulator's head is the
    relevant blocks, then the top clause items.
    """
    occ = _occurrences(f)
    items: list[str] = []
    agents = [MANIPULATOR]
    sequence: list[str] = []
    rounds: list[RoundSpan] = []
    heads: dict[str, list[str]] = {MANIPULATOR: []}
    literal_agents: dict[tuple[int, int], str] = {}
    choice: dict[int, tuple[str, str]] = {}
    consistency: dict[int, tuple[str, str, str]] = {}
    dummies: dict[int, tuple[str, str, str, str]] = {}

    for v in f.variables():
        for lit in (-v, v):
            for copy in (1, 2):
                literal_agents[(lit, copy)] = agent_id(lit, copy)
            choice[lit] = (choice_item(lit, 1), choice_item(lit, 2))
            consistency[lit] = tuple(consistency_item(lit, j) for j in (1, 2, 3))
            dummies[lit] = tuple(dummy_item(lit, j) for j in ("11", "12", "21", "22"))
        relevant = list(_round_values(v, 1))
        heads[MANIPULATOR] += relevant
        items += relevant + list(dummies[v]) + list(dummies[-v])
        neg1, neg2 = literal_agents[(-v, 1)], literal_agents[(-v, 2)]
        pos1, pos2 = literal_agents[(v, 1)], literal_agents[(v, 2)]
        agents += [neg1, neg2, pos1, pos2]
        start = len(sequence) + 1
        sequence += [
            MANIPULATOR, neg1, neg2, pos1, pos2,
            MANIPULATOR, neg1, neg2, pos1, pos2,
            neg1, neg2, MANIPULATOR, pos1, pos2, MANIPULATOR,
        ]
        rounds.append(RoundSpan("choice", lit_name(v), start, len(sequence)))
        # agents of each literal chase the items of its negation
        (ox1, ox2), (hx1, hx2, hx3), (dx11, dx12, dx21, dx22) = choice[v], consistency[v], dummies[v]
        (on1, on2), (hn1, hn2, hn3), (dn11, dn12, dn21, dn22) = choice[-v], consistency[-v], dummies[-v]
        heads[neg1] = [ox1, dx11, dx12, ox2, hx1, hx2, hx3] + _clause_block(occ[v][0])
        heads[neg2] = [dx21, ox1, ox2, dx22, hx1, hx2, hx3] + _clause_block(occ[v][1])
        heads[pos1] = [on1, dn11, hn1, on2, hn2, hn3, dn12] + _clause_block(occ[-v][0])
        heads[pos2] = [dn21, on1, on2, hn1, hn2, hn3, dn22] + _clause_block(occ[-v][1])

    clause_items: dict[int, tuple[str, str, str]] = {}
    clause_agents: dict[int, tuple[str, str, str]] = {}
    for c, clause in enumerate(f.clauses, start=1):
        clause_items[c] = tuple(clause_item(c, j) for j in (1, 2, 3))
        items += clause_items[c]
        heads[MANIPULATOR].append(clause_items[c][0])
        # copy 1 of a literal's opponents plays its first clause, copy 2 its second
        clause_agents[c] = tuple(
            literal_agents[(-lit, 1 if occ[lit][0] == c else 2)] for lit in clause
        )
        start = len(sequence) + 1
        sequence += clause_agents[c]
        rounds.append(RoundSpan("clause", f"c{c}", start, len(sequence)))
    start = len(sequence) + 1
    sequence += [MANIPULATOR] * len(f.clauses)
    rounds.append(RoundSpan("collection", "", start, len(sequence)))

    prefs = {a: complete_order(head, items) for a, head in heads.items()}
    instance = validate_instance(items, agents, prefs, sequence)
    utility, target = _name_based_utility(f, instance, prefs[MANIPULATOR])
    registry = GadgetRegistry(
        literal_agents=literal_agents, choice_items=choice, consistency_items=consistency,
        dummy_items=dummies, clause_items=clause_items, clause_agents=clause_agents,
        occurrences=occ, rounds=tuple(rounds),
    )
    out = ReductionOutput(f, instance, utility, target, registry)
    audit_utilities(out)  # every build re-checks the utility ledger
    return out


def _clause_block(c: int) -> list[str]:
    return [clause_item(c, 3), clause_item(c, 2), clause_item(c, 1)]


def _name_based_utility(
    f: RestrictedFormula, inst: Instance, manip_pref: tuple[str, ...]
) -> tuple[UtilityFunction, Fraction]:
    """Assign integer utilities satisfying the construction's ledger.

    Scales are built bottom-up: tail items get 1..t descending along the
    manipulator's preference, clause items sit just above the whole tail,
    and each choice round's scale exceeds the total value of everything
    below it (with margin 2|X| for the epsilon bonuses), so a lost round or
    clause item can never be compensated later.
    """
    n_vars, n_clauses = f.num_vars, len(f.clauses)
    explicit = 10 * n_vars + n_clauses
    tail = manip_pref[explicit:]
    values: dict[str, int] = {}

    t = len(tail)
    for k, item in enumerate(tail):
        values[item] = t - k
    tail_sum = t * (t + 1) // 2

    W = tail_sum + 2 * n_vars + 3
    for c in range(1, n_clauses + 1):
        values[clause_item(c, 1)] = W + (n_clauses - c)
    clause_sum = sum(values[clause_item(c, 1)] for c in range(1, n_clauses + 1))

    below = tail_sum + clause_sum
    target = clause_sum
    for v in range(n_vars, 0, -1):
        round_values = _round_values(v, below + 2 * n_vars + 3)
        values.update(round_values)
        below += sum(round_values.values())
        # each round guarantees the value of its cheaper consistent branch
        target += sum(round_values[o] for o in _round_quadruple(v, "T"))
    utility = UtilityFunction(
        {MANIPULATOR: {o: Fraction(values[o]) for o in inst.items}}
    )
    return utility, Fraction(target)


def _compile_formulas():
    rng = random.Random(69)
    formulas = {"reference": parse_formula(REFERENCE_FORMULA)}
    formulas.update((f"random3-{k}", random_restricted_formula(rng, 3)) for k in range(8))
    formulas.update((f"random6-{k}", random_restricted_formula(rng, 6)) for k in range(2))
    formulas["random9"] = random_restricted_formula(rng, 9)
    formulas["random30"] = random_restricted_formula(rng, 30)
    return formulas


COMPILE_FORMULAS = _compile_formulas()


@pytest.mark.parametrize("name", list(COMPILE_FORMULAS))
def test_index_compile_equals_name_based_compile(name):
    formula = COMPILE_FORMULAS[name]
    out, ref = build_instance(formula), _name_based_build(formula)
    assert out.instance == ref.instance
    assert out.utility == ref.utility
    assert out.target == ref.target
    assert out.registry.to_json() == ref.registry.to_json()
    assert serialize_instance(out.instance, out.utility) == serialize_instance(
        ref.instance, ref.utility
    )


def _sweep_formulas():
    rng = random.Random(67)
    formulas = {"reference": parse_formula(REFERENCE_FORMULA)}
    formulas.update((f"random3-{k}", random_restricted_formula(rng, 3)) for k in range(8))
    formulas.update((f"random6-{k}", random_restricted_formula(rng, 6)) for k in range(2))
    return formulas


SWEEP_FORMULAS = _sweep_formulas()


@pytest.mark.parametrize("name", list(SWEEP_FORMULAS))
def test_index_sweep_equals_name_based_sweep(name):
    formula = SWEEP_FORMULAS[name]
    out = build_instance(formula)
    report = verify_choice_patterns(out)
    assert report == _name_based_sweep(out)
    assert len(report.outcomes) == 4 ** formula.num_vars


def test_inconsistent_round_error_names_items(reference, monkeypatch):
    """An I1 quadruple that picks h_~x^3 for h_~x^2 fails the first
    inconsistent pattern, with the same message from both sweeps."""
    broken = dict(reduction._QUADRUPLES, I1=(0, 3, 6, 8))
    monkeypatch.setattr(reduction, "_QUADRUPLES", broken)

    def broken_quadruple(v, kind):
        quad = _round_quadruple(v, kind)
        return quad[:2] + [consistency_item(-v, 3), quad[3]] if kind == "I1" else quad

    assert reduction._round_quadruple(3, "I1") == broken_quadruple(3, "I1")
    expected = (
        "pattern ('T', 'T', 'I1'): round x3 consistency items ['h_x3^2', 'h_~x3^3'],"
        " expected exactly ['h_x3^2', 'h_~x3^2']"
    )
    with pytest.raises(RuntimeError) as swept:
        verify_choice_patterns(reference)
    with pytest.raises(RuntimeError) as by_name:
        _name_based_sweep(reference, broken_quadruple)
    assert str(swept.value) == str(by_name.value) == expected


def test_pattern_budget_guard():
    rng = random.Random(64)
    out = build_instance(random_restricted_formula(rng, num_vars=6))
    from seqalloc.model import BudgetExceededError

    with pytest.raises(BudgetExceededError, match="patterns exceed the budget") as excinfo:
        verify_choice_patterns(out, max_patterns=5)
    assert (excinfo.value.limit, excinfo.value.used, excinfo.value.unit) == (5, 4**6, "patterns")


def test_compiled_instance_roundtrips_through_text_format(reference):
    text = serialize_instance(reference.instance, reference.utility)
    inst, utility = parse_instance(text)
    assert inst == reference.instance
    assert utility is not None
    assert all(
        utility.of(MANIPULATOR, o) == reference.utility.of(MANIPULATOR, o)
        for o in inst.items
    )


def test_manipulator_utility_is_strictly_decreasing(reference):
    pref = reference.instance.preferences[MANIPULATOR]
    vals = [reference.utility.of(MANIPULATOR, o) for o in pref]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0


def test_consistent_branches_realize_their_quadruples():
    """In round 1 the manipulator's four picks must be the branch quadruple."""
    rng = random.Random(65)
    out = build_instance(random_restricted_formula(rng, num_vars=3))
    for kind in ("T", "F"):
        report = assignment_to_report(out, {1: kind == "T", 2: True, 3: True})
        alloc = run_with_report(out.instance, MANIPULATOR, report)
        round1 = [
            item
            for stage, agent, item in alloc.trace
            if stage <= 16 and agent == MANIPULATOR
        ]
        assert round1 == _round_quadruple(1, kind)


def test_round_quadruples_match_the_name_based_ones():
    for v in (1, 2, 7):
        for kind in ("T", "F", "I1", "I2"):
            assert reduction._round_quadruple(v, kind) == _round_quadruple(v, kind)
    with pytest.raises(ValueError, match="unknown round kind 'X'"):
        reduction._round_quadruple(1, "X")
