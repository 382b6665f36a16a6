"""Tiny seeded runs of every workload.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
"""

import json
import os

import pytest

from run import ROOT, measure, render
from tracing import Tracer

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Small enough to be quick, large enough to hold one whole group of each
# workload (a reduction group ends with its 30-variable compile).
OPS = {"two-agent": 3, "oracle": 4, "reduction": 6}

# The workloads on which each traced function must be called.
USED_ON = {
    "instance_io.parse_instance": {"two-agent", "oracle"},
    "model.validate_instance": {"two-agent", "oracle", "reduction"},
    "model.Instance.with_preference": {"two-agent", "reduction"},
    "model.bundle_utility": {"two-agent"},
    "engine.run_sequential_allocation": {"two-agent", "reduction"},
    "kernel.allocate": {"two-agent", "reduction"},
    "two_agent.lexicographic_best_response": {"two-agent"},
    "two_agent.canonical_report": {"two-agent"},
    "two_agent.is_achievable": {"two-agent"},
    "oracle.brute_force_best_response": {"oracle"},
    "oracle.enumerate_achievable_bundles": {"oracle"},
    "reduction.parse_formula": {"reduction"},
    "reduction.build_instance": {"reduction"},
    "reduction.audit_utilities": {"reduction"},
    "reduction.verify_choice_patterns": {"reduction"},
    "reduction.verify_forward": {"reduction"},
    "instance_io.serialize_instance": {"reduction"},
}


def _tiny(workload, trace, seed=3):
    return measure(workload, seed, seconds=0, trace=trace, min_samples=OPS[workload],
                   setup_runs=1)


@pytest.mark.parametrize("workload", sorted(OPS))
def test_end_to_end_run(workload):
    out = _tiny(workload, trace=False)
    result = out["result"]
    assert result["attempted"] == OPS[workload]
    assert result["failed"] == 0 and result["correct"]
    assert "failed_ratio: 0.0" in out["notes"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    lines = render(out)
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert json.loads(lines[-1]) == result
    assert _tiny(workload, trace=False)["digest"] == out["digest"]


@pytest.mark.parametrize("workload", sorted(OPS))
def test_traced_run(workload):
    out = _tiny(workload, trace=True)
    result = out["result"]
    assert result["failed"] == 0 and result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    absent = Tracer().absent
    for fn, users in USED_ON.items():
        if workload in users and fn not in absent:
            assert metrics[f"{fn}.calls"] > 0, fn
        # the oracle never replays through the engine, and only the oracle
        # workload calls the oracle
        if fn.startswith(("engine.", "kernel.")) and workload == "oracle":
            assert metrics[f"{fn}.calls"] == 0, fn
        if fn.startswith("oracle.") and workload != "oracle":
            assert metrics[f"{fn}.calls"] == 0, fn
    if workload == "reduction":
        assert metrics["reduction.patterns_checked"] == 4 ** 3
    assert _tiny(workload, trace=True)["digest"] == out["digest"]
