"""Built-in reference cases with known-good outcomes.

Small hand-checkable settings exercising every algorithm: two-agent
settings with sequences 1221 and 1212, one with sequence 121 on which
truthful play earns exactly half of the best response, a three-agent
setting on which the ordinal greedy is provably suboptimal, and a reference
restricted 3-CNF formula whose compiled instance has a fully hand-tabulated
64-stage trace.

``run_golden_checks`` replays all of them as rows of exact expected values;
the CLI's ``examples`` command reports each row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest

from .engine import can_achieve, run_sequential_allocation, run_with_report
from .model import UtilityFunction, bundle_utility, validate_instance
from .oracle import (
    brute_force_best_response,
    enumerate_achievable_bundles,
    refuted_greedy_best_response,
)
from .reduction import build_instance, parse_formula, verify_forward
from .two_agent import lexicographic_best_response


def two_agent_example():
    """Sequence 1221; agent 1 ends with {o1, o4}, agent 2 with {o2, o3}."""
    return validate_instance(
        items=["o1", "o2", "o3", "o4"],
        agents=["1", "2"],
        preferences={"1": ["o1", "o2", "o3", "o4"], "2": ["o1", "o3", "o2", "o4"]},
        sequence=["1", "2", "2", "1"],
    )


def three_agent_counterexample():
    """Sequence 1231; truthful play gives agent 1 {a, d}, misreporting {b, c}.

    With utilities 3.1, 3, 2, 1 the greedy's {a, d} (worth 4.1) loses to
    {b, c} (worth 5); with 4, 3, 2, 1 the two bundles tie, so the optimum
    is not unique.
    """
    return validate_instance(
        items=["a", "b", "c", "d"],
        agents=["1", "2", "3"],
        preferences={
            "1": ["a", "b", "c", "d"],
            "2": ["c", "d", "a", "b"],
            "3": ["a", "b", "c", "d"],
        },
        sequence=["1", "2", "3", "1"],
    )


def counterexample_utilities(tie: bool) -> UtilityFunction:
    row = (4, 3, 2, 1) if tie else (Fraction("3.1"), 3, 2, 1)
    return UtilityFunction({"1": dict(zip(["a", "b", "c", "d"], row))})


def alternating_manipulation_example():
    """Sequence 1212 where agent 1 profits by ranking b first: {a,c} -> {a,b}."""
    return validate_instance(
        items=["a", "b", "c", "d"],
        agents=["1", "2"],
        preferences={"1": ["a", "b", "c", "d"], "2": ["b", "c", "a", "d"]},
        sequence=["1", "2", "1", "2"],
    )


REFERENCE_FORMULA = """\
c reference restricted 3-CNF: every literal occurs exactly twice
p cnf 3 4
1 2 3 0
-1 -2 -3 0
1 -2 3 0
-1 2 -3 0
"""

# Assignment x1=T, x2=F, x3=F satisfies the reference formula.
REFERENCE_ASSIGNMENT = {1: True, 2: False, 3: False}

# Hand-tabulated 64-stage trace of the compiled reference instance when the
# manipulator plays REFERENCE_ASSIGNMENT. Stages 1-48: choice rounds;
# 49-60: clause rounds; 61-64: collection round.
HAND_TRACE_ITEMS = [
    # choice round x1 (set true)
    "o_~x1^1", "o_x1^1", "d_x1^21", "d_~x1^11", "d_~x1^21", "o_~x1^2",
    "d_x1^11", "o_x1^2", "h_~x1^1", "h_~x1^2", "d_x1^12", "d_x1^22",
    "h_~x1^3", "d_~x1^12", "d_~x1^22", "h_x1^1",
    # choice round x2 (set false)
    "o_x2^1", "d_x2^11", "d_x2^21", "o_~x2^1", "d_~x2^21", "o_x2^2",
    "d_x2^12", "d_x2^22", "d_~x2^11", "o_~x2^2", "h_x2^1", "h_x2^2",
    "h_~x2^1", "h_~x2^2", "h_~x2^3", "h_x2^3",
    # choice round x3 (set false)
    "o_x3^1", "d_x3^11", "d_x3^21", "o_~x3^1", "d_~x3^21", "o_x3^2",
    "d_x3^12", "d_x3^22", "d_~x3^11", "o_~x3^2", "h_x3^1", "h_x3^2",
    "h_~x3^1", "h_~x3^2", "h_~x3^3", "h_x3^3",
    # clause rounds c1..c4
    "h_x1^2", "o_c1^3", "o_c1^3",
    "o_c2^3", "d_~x2^12", "d_~x3^12",
    "h_x1^3", "d_~x2^22", "o_c3^2",
    "o_c4^2", "o_c4^2", "d_~x3^22",
    # collection round
    "o_c1^1", "o_c2^1", "o_c3^1", "o_c4^1",
]

# Stages where the hand tabulation is internally inconsistent (it repeats an
# already-taken item or skips a more-preferred available one); the simulator
# value is authoritative at these stages.
HAND_TRACE_ERRATA = {
    51: ("o_c1^3", "o_c1^2"),
    57: ("o_c3^2", "o_c3^3"),
    58: ("o_c4^2", "o_c4^3"),
}


def expected_reference_trace() -> list[str]:
    """The hand trace with errata replaced by the authoritative values."""
    return [
        HAND_TRACE_ERRATA[stage][1] if stage in HAND_TRACE_ERRATA else item
        for stage, item in enumerate(HAND_TRACE_ITEMS, start=1)
    ]


def run_golden_checks() -> list[tuple[str, bool, str]]:
    """Replay every built-in case. Returns (name, passed, detail) triples.

    Each check is a row: its name, the value the package computes and the
    exact value expected. A row passes iff the two are equal; its detail
    shows both.
    """
    two, alt = two_agent_example(), alternating_manipulation_example()
    cx, ad, bc = three_agent_counterexample(), frozenset("ad"), frozenset("bc")
    enc = cx.encoded
    pairs = {"".join(pair) for pair in combinations("abcd", 2)
             if can_achieve(enc, 0, map(enc.item_index.get, pair))}
    strict = brute_force_best_response(cx, counterexample_utilities(tie=False), "1")
    tied = brute_force_best_response(cx, counterexample_utilities(tie=True), "1")
    # sequence 121: truthful play gives {a, c}, worth 6, and ranking b
    # first gives {a, b}, worth 12, so truthful play earns exactly half
    half = validate_instance(
        ["a", "b", "c"], ["1", "2"], {"1": ["a", "b", "c"], "2": ["b", "c", "a"]}, ["1", "2", "1"]
    )
    half_u = UtilityFunction({"1": {"a": 6, "b": 6, "c": 0}})
    best = brute_force_best_response(half, half_u, "1")
    truthful = bundle_utility(half_u, "1", run_sequential_allocation(half).bundles["1"])
    out = build_instance(parse_formula(REFERENCE_FORMULA))
    fwd = verify_forward(out, REFERENCE_ASSIGNMENT)
    trace = zip_longest(expected_reference_trace(), (item for _, _, item in fwd.allocation.trace))
    rows = [
        ("two-agent-example/allocation", dict(run_sequential_allocation(two).bundles),
         {"1": {"o1", "o4"}, "2": {"o2", "o3"}}),
        ("two-agent-example/best-response", lexicographic_best_response(two, "1"),
         (("o1", "o4", "o2", "o3"), {"o1", "o4"})),
        ("alternating-example/truthful", run_sequential_allocation(alt).bundles["1"], {"a", "c"}),
        ("alternating-example/best-response", lexicographic_best_response(alt, "1"),
         (("b", "a", "c", "d"), {"a", "b"})),
        ("counterexample/truthful", run_sequential_allocation(cx).bundles["1"], {"a", "d"}),
        ("counterexample/misreport", run_with_report(cx, "1", "cbad").bundles["1"], {"b", "c"}),
        ("counterexample/achievable-set", enumerate_achievable_bundles(cx, "1"),
         {ad, bc, frozenset("bd")}),
        ("counterexample/achievable-pairs", pairs, {"ad", "bc", "bd"}),
        ("counterexample/oracle-strict",
         (strict.max_utility, strict.optimal_bundles, strict.witness_reports),
         (5, (bc,), {bc: ("c", "b", "a", "d")})),
        ("counterexample/oracle-tied",
         (tied.max_utility, tied.optimal_bundles, tied.witness_reports),
         (5, (ad, bc), {ad: ("a", "d", "b", "c"), bc: ("c", "b", "a", "d")})),
        ("counterexample/refuted-greedy", refuted_greedy_best_response(cx, "1"), {"a", "d"}),
        ("manipulation/truthful-half", (truthful, best.max_utility, best.witness_reports),
         (6, 12, {frozenset("ab"): ("b", "a", "c")})),
        ("reduction/structure",
         (len(out.instance.agents), len(out.instance.items), len(out.instance.sequence)),
         (13, 66, 64)),
        ("reduction/meets-target", (fwd.meets_target, fwd.utility, out.target),
         (True, 214_475_092_841, 214_475_092_837)),
        ("reduction/collects-clause-items",
         {f"o_c{c}^1" for c in (1, 2, 3, 4)} - fwd.manipulator_bundle, set()),
        ("reduction/trace-fidelity",
         [(stage, *pair) for stage, pair in enumerate(trace, 1) if pair[0] != pair[1]], []),
    ]
    return [(name, got == want, f"got {got!r}, expected {want!r}") for name, got, want in rows]
