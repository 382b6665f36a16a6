import json
import random
import subprocess
import sys

import pytest

from seqalloc.instance_io import parse_instance, serialize_instance
from seqalloc.reduction import (
    MANIPULATOR,
    FormulaError,
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
    for num_vars in (3, 6, 9):
        out = build_instance(random_restricted_formula(rng, num_vars))
        audit_utilities(out)  # raises on any broken inequality


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
