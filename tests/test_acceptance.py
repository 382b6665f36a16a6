"""Acceptance gate: eleven numbered criteria, one test and one printed
pass/fail line each. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines; each test also asserts, so the suite fails loudly on regression.
"""

import itertools
import random
import time
from fractions import Fraction

from seqalloc.engine import Encoded, can_achieve, run_sequential_allocation, run_with_report
from seqalloc.model import bundle_utility
from seqalloc.oracle import brute_force_best_response, enumerate_achievable_bundles, refuted_greedy_best_response
from seqalloc.reduction import MANIPULATOR, audit_utilities, build_instance, parse_formula, verify_choice_patterns, verify_forward
from seqalloc.two_agent import (
    best_response,
    is_achievable,
    lexicographic_best_response,
)
from seqalloc.golden import (
    HAND_TRACE_ERRATA,
    HAND_TRACE_ITEMS,
    REFERENCE_FORMULA,
    counterexample_utilities,
    three_agent_counterexample,
    two_agent_example,
)

from conftest import random_consistent_utilities, random_instance


def _report(number: int, title: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number:>2}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _timed(fn):
    fn()  # warm up (imports)
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_criterion_01_reference_allocation():
    inst = two_agent_example()
    alloc, elapsed = _timed(lambda: run_sequential_allocation(inst))
    ok = (
        alloc.bundles["1"] == {"o1", "o4"}
        and alloc.bundles["2"] == {"o2", "o3"}
        and alloc.matrix(inst) == [[1, 0, 0, 1], [0, 1, 1, 0]]
        and elapsed < 0.001
    )
    _report(1, "sequence 1221 splits o1,o4 / o2,o3", ok, f"{elapsed * 1e6:.0f} us")


def test_criterion_02_counterexample_reproduction():
    inst = three_agent_counterexample()

    def run():
        truthful = run_sequential_allocation(inst).bundles["1"]
        misreport = run_with_report(inst, "1", ["c", "b", "a", "d"]).bundles["1"]
        strict = brute_force_best_response(inst, counterexample_utilities(tie=False), "1")
        tied = brute_force_best_response(inst, counterexample_utilities(tie=True), "1")
        greedy = refuted_greedy_best_response(inst, "1")
        return truthful, misreport, strict, tied, greedy

    (truthful, misreport, strict, tied, greedy), elapsed = _timed(run)
    ok = (
        truthful == {"a", "d"}
        and misreport == {"b", "c"}
        and strict.max_utility == Fraction(5)
        and strict.optimal_bundles == (frozenset("bc"),)
        and bundle_utility(counterexample_utilities(tie=False), "1", {"a", "d"})
        == Fraction("4.1")
        and tied.max_utility == Fraction(5)
        and set(tied.optimal_bundles) == {frozenset("ad"), frozenset("bc")}
        and greedy == {"a", "d"}
        and elapsed < 0.010
    )
    _report(2, "greedy counterexample fully reproduced", ok, f"{elapsed * 1e3:.2f} ms")


def test_criterion_03_achievability_set():
    inst = three_agent_counterexample()
    achievable, elapsed = _timed(lambda: enumerate_achievable_bundles(inst, "1"))
    ok = (
        {frozenset("ad"), frozenset("bc")} <= achievable
        and frozenset("ab") not in achievable
        and frozenset("ac") not in achievable
        and elapsed < 0.010
    )
    _report(3, "achievable set has ad,bc and lacks ab,ac", ok, f"{elapsed * 1e3:.2f} ms")


def _two_agent_corpus(count: int, seed: int):
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        inst = random_instance(rng, n=2, m=rng.randint(2, 8))
        corpus.append((inst, rng.choice(inst.agents)))
    return rng, corpus


def test_criterion_04_two_agent_optimality():
    rng, corpus = _two_agent_corpus(200, seed=401)
    t0 = time.perf_counter()
    mismatches = 0
    for inst, manip in corpus:
        u = random_consistent_utilities(rng, inst, manip)
        _, bundle = lexicographic_best_response(inst, manip)
        if bundle_utility(u, manip, bundle) != brute_force_best_response(inst, u, manip).max_utility:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30
    _report(
        4,
        "two-agent best response optimal on 200 random instances",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f} s",
    )


def test_criterion_05_best_response_uniqueness():
    rng, corpus = _two_agent_corpus(200, seed=401)
    mismatches = 0
    for inst, manip in corpus:
        draws = [random_consistent_utilities(rng, inst, manip) for _ in range(3)]
        bundles = {best_response(inst, u, manip)[1] for u in draws}
        if len(bundles) != 1:
            mismatches += 1
            continue
        bundle = next(iter(bundles))
        for u in draws:
            res = brute_force_best_response(inst, u, manip)
            if bundle not in res.optimal_bundles:
                mismatches += 1
                break
            if len(res.optimal_bundles) == 1 and res.optimal_bundles != (bundle,):
                mismatches += 1
                break
    ok = mismatches == 0
    _report(
        5,
        "best-response bundle identical across 3 utility draws and in argmax",
        ok,
        f"{mismatches} mismatches",
    )


def test_criterion_06_characterization_equivalence():
    rng = random.Random(601)
    mismatches = 0
    for _ in range(100):
        inst = random_instance(rng, n=2, m=rng.randint(3, 6))
        manip = rng.choice(inst.agents)
        enc = Encoded(inst)
        for size in (2, 3):
            for S in itertools.combinations(inst.items, size):
                certified = can_achieve(enc, enc.agent_index[manip], map(enc.item_index.__getitem__, S))
                if is_achievable(S, inst, manip) != certified:
                    mismatches += 1
    ok = mismatches == 0
    _report(
        6,
        "achievability test equals stage-wise certificate on 100 instances",
        ok,
        f"{mismatches} mismatches",
    )


def test_criterion_07_exchange_property():
    # For achievable A and B with a the manipulator's most preferred item of
    # the symmetric difference and a in A, trading away the opponent's most
    # preferred item b of B - A keeps B | {a} - {b} achievable. Choosing b by
    # the manipulator's preference instead admits counterexamples (e.g. seed
    # 701 below, swap the key), so b is pinned to the opponent's order.
    rng = random.Random(701)
    violations = 0
    for _ in range(50):
        inst = random_instance(rng, n=2, m=rng.randint(3, 7))
        manip = rng.choice(inst.agents)
        opponent = next(x for x in inst.agents if x != manip)
        achievable = enumerate_achievable_bundles(inst, manip)
        own_rank = {o: k for k, o in enumerate(inst.preferences[manip])}
        opp_rank = {o: k for k, o in enumerate(inst.preferences[opponent])}
        for A, B in itertools.permutations(achievable, 2):
            diff = A ^ B
            if not diff:
                continue
            a = min(diff, key=own_rank.__getitem__)
            if a not in A:
                continue  # the symmetric pair covers this case
            b = min(B - A, key=opp_rank.__getitem__)
            if frozenset(B | {a}) - {b} not in achievable:
                violations += 1
    ok = violations == 0
    _report(
        7,
        "exchange property holds over all achievable-bundle pairs",
        ok,
        f"{violations} violations",
    )


def test_criterion_08_reduction_structure():
    t0 = time.perf_counter()
    out = build_instance(parse_formula(REFERENCE_FORMULA))
    audit_utilities(out)  # raises on any broken ledger inequality
    elapsed = time.perf_counter() - t0
    ok = (
        len(out.instance.agents) == 13
        and len(out.instance.items) == 66
        and len(out.instance.sequence) == 64
        and elapsed < 1
    )
    _report(
        8,
        "reference formula compiles to 13 agents / 66 items / 64 stages",
        ok,
        f"{elapsed * 1e3:.0f} ms incl. ledger audit",
    )


def test_criterion_09_reduction_forward_check():
    out = build_instance(parse_formula(REFERENCE_FORMULA))
    t0 = time.perf_counter()
    fwd = verify_forward(out, {1: True, 2: False, 3: False})
    elapsed = time.perf_counter() - t0
    top_items = {f"o_c{c}^1" for c in (1, 2, 3, 4)}
    got = [item for _, _, item in fwd.allocation.trace]
    deviations = {
        stage: (tabulated, engine)
        for stage, (tabulated, engine) in enumerate(zip(HAND_TRACE_ITEMS, got), start=1)
        if tabulated != engine
    }
    for stage, (tabulated, engine) in sorted(deviations.items()):
        print(
            f"  stage {stage}: tabulated {tabulated}, engine {engine}"
            f" (known transcription slip)"
        )
    ok = (
        top_items <= fwd.manipulator_bundle
        and fwd.utility >= out.target
        and fwd.meets_target
        and deviations == HAND_TRACE_ERRATA
        and elapsed < 1
    )
    _report(
        9,
        "assignment T,F,F collects every top clause item and meets the target",
        ok,
        f"utility {fwd.utility} vs target {out.target},"
        f" {len(deviations)} flagged trace deviations, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_10_reduction_pattern_equivalence():
    out = build_instance(parse_formula(REFERENCE_FORMULA))
    t0 = time.perf_counter()
    report = verify_choice_patterns(out)  # raises on any invariant violation
    elapsed = time.perf_counter() - t0
    meeting = {o.kinds for o in report.outcomes if o.meets_target}
    expected = {
        tuple("T" if a[v] else "F" for v in (1, 2, 3))
        for a in out.formula.satisfying_assignments()
    }
    ok = (
        len(report.outcomes) == 4 ** 3
        and meeting == expected
        and report.sat_enumeration_agrees
        and elapsed < 10
    )
    _report(
        10,
        "target met exactly on satisfying consistent patterns (64 checked)",
        ok,
        f"{len(meeting)} patterns meet the target, {elapsed:.2f} s",
    )


def test_criterion_11_tiny_instance_exhaustiveness():
    rng = random.Random(1101)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(20):
        inst = random_instance(rng, n=rng.choice([2, 3]), m=rng.randint(2, 5))
        manip = rng.choice(inst.agents)
        via_reports = {
            run_with_report(inst, manip, perm).bundles[manip]
            for perm in itertools.permutations(inst.items)
        }
        if enumerate_achievable_bundles(inst, manip) != via_reports:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    _report(
        11,
        "DFS enumeration equals all-m!-reports replay on 20 tiny instances",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f} s",
    )
