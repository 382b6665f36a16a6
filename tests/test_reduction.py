import dataclasses
import hashlib
import json
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from seqalloc import reduction
from seqalloc.engine import PickState, run_with_report, stages_of
from seqalloc.instance_io import parse_instance, serialize_instance
from seqalloc.model import UtilityFunction, ValidationError, bundle_utility
from seqalloc.reduction import (
    MANIPULATOR,
    FormulaError,
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


def test_validate_formula_enforces_restrictions():
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
    ],
)
def test_whole_compile_is_pinned(formula, instance_sha, registry_sha):
    """Every item, agent, preference list, stage, utility and registry entry."""
    if formula == "reference":
        f = parse_formula(REFERENCE_FORMULA)
    else:
        f = random_restricted_formula(random.Random(61), num_vars=6)
    out = build_instance(f)
    text = serialize_instance(out.instance, out.utility)
    assert hashlib.sha256(text.encode()).hexdigest() == instance_sha
    assert hashlib.sha256(out.registry.to_json().encode()).hexdigest() == registry_sha


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
    from seqalloc.engine import run_with_report
    from seqalloc.reduction import _round_quadruple

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
