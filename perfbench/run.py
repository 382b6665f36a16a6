"""Closed-loop benchmark of seqalloc's public operations.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload two-agent --seed 1 --seconds 30 --trace 0

One caller in one process and one thread sends the next operation only
after the previous answer arrived, and every answer is checked outside the
timed region. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs each operation once plain and once with the per-layer tracer installed
and reports the per-layer metrics. Times are scaled to the reference host
speed (see ``hostspeed``). The last line of standard output is one JSON
object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import count

from hostspeed import REFERENCE_S, bracketed
from probe import ROOT, warm_up
from tracing import TRACED, Tracer
from workloads import WORKLOADS

SETUP_RUNS = 9  # fresh processes, each timing import + warm-up once
MIN_SAMPLES = 100  # so that at least ten latencies lie above p90


def _setup_in_fresh_process(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
         name],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


class Loop:
    """Runs a workload's operation stream and checks every answer."""

    def __init__(self, workload, sa, seed: int):
        self.workload, self.sa, self.seed = workload, sa, seed
        self.attempted = self.failed = 0
        self.digest = hashlib.sha256()
        self.first_error: str | None = None

    def ops(self):
        """(operation, its group's facts) for ever, in seeded order."""
        for g in count():
            facts: dict = {}
            for op in self.workload.group(self.seed, g):
                yield op, facts

    def timed(self, op, tracer: Tracer | None = None):
        """(scale, wall seconds, answer or None if the operation raised)."""

        def call():
            if tracer is None:
                return self.workload.run(self.sa, op)
            with tracer.installed():
                return self.workload.run(self.sa, op)

        scale, wall, answer, error = bracketed(call)
        if error is not None:
            self.fail(op, error)
        return scale, wall, answer

    def checked(self, op, facts, answer) -> str | None:
        """The answer's summary line, or None if it failed its check."""
        if answer is None:
            return None
        try:
            self.workload.check(self.sa, op, answer, facts)
            return self.workload.summary(op, answer)
        except Exception as exc:  # a wrong or malformed answer fails the operation
            self.fail(op, exc)
            return None

    def record(self, summary: str | None) -> None:
        self.attempted += 1
        if summary is None:
            self.failed += 1
        else:
            self.digest.update(summary.encode() + b"\n")

    def fail(self, op, exc) -> None:
        if self.first_error is None:
            self.first_error = f"{op.kind}: {type(exc).__name__}: {exc}"


def run_end_to_end(loop: Loop, seconds: float, min_samples: int):
    latencies, wall = [], []
    t_end = time.perf_counter() + seconds
    for op, facts in loop.ops():
        if time.perf_counter() >= t_end and len(latencies) >= min_samples:
            break
        scale, elapsed, answer = loop.timed(op)
        latencies.append(elapsed * scale)
        wall.append(elapsed)
        loop.record(loop.checked(op, facts, answer))
    completed = loop.attempted - loop.failed
    metrics = {
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (_p90(latencies) * 1e3, "ms"),
    }
    notes = [
        f"latency samples: {len(latencies)}",
        f"failed_ratio: {loop.failed / loop.attempted}",
        f"unscaled wall-clock latency: p50 {statistics.median(wall) * 1e3:.3f} ms,"
        f" p90 {_p90(wall) * 1e3:.3f} ms",
    ]
    return metrics, notes


def run_traced(loop: Loop, seconds: float, min_samples: int):
    tracer = Tracer()
    self_s = dict.fromkeys(tracer.self_ns, 0.0)
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    for op, facts in loop.ops():
        if time.perf_counter() >= t_end and len(traced) >= min_samples:
            break
        scale, elapsed, answer = loop.timed(op)
        plain.append(elapsed * scale)
        summary = loop.checked(op, facts, answer)
        before = dict(tracer.self_ns)
        scale, elapsed, answer = loop.timed(op, tracer)
        traced.append(elapsed * scale)
        for name, ns in tracer.self_ns.items():
            self_s[name] += (ns - before[name]) / 1e9 * scale
        if answer is not None and loop.workload.summary(op, answer) != summary:
            loop.fail(op, RuntimeError("traced answer differs from the plain answer"))
            summary = None
        loop.record(summary)

    n = len(traced)
    metrics = {}
    for name in tracer.calls:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "calls/op")
        metrics[f"{name}.self_s"] = (self_s[name] / n, "s/op")
    metrics["untraced.self_s"] = ((sum(traced) - sum(self_s.values())) / n, "s/op")

    for fn, spec in TRACED.items():
        if spec:
            metric, _, unit = spec
            calls = tracer.calls[fn]
            metrics[metric] = (tracer.counters[metric] / calls if calls else 0.0, unit)
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    notes = [f"traced operations: {n}"]
    if tracer.absent:
        notes.append("absent functions: " + ", ".join(tracer.absent))
    return metrics, notes


def measure(name: str, seed: int, seconds: float, trace: bool,
            min_samples: int = MIN_SAMPLES, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload; returns its notes, answer digest and result object."""
    workload = WORKLOADS[name]
    _, sa = warm_up(workload)
    loop = Loop(workload, sa, seed)
    if trace:
        metrics, notes = run_traced(loop, seconds, min_samples)
    else:
        metrics, notes = run_end_to_end(loop, seconds, min_samples)
        setups = [_setup_in_fresh_process(name) for _ in range(setup_runs)]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        notes.append(f"set-up samples: {len(setups)}")
    notes.append(f"answer digest: {loop.digest.hexdigest()} over {loop.attempted} operations")
    if loop.first_error:
        notes.append(f"first failure: {loop.first_error}")
    env = [f"python {platform.python_version()}", f"nproc {os.cpu_count()}"]
    if hasattr(sa, "BACKEND"):
        env.append(f"backend {sa.BACKEND}")
    env.append(f"times scaled to a {REFERENCE_S * 1e3:g} ms reference loop")
    return {
        "notes": [f"workload {name}, seed {seed}, " + ", ".join(env)] + notes,
        "digest": loop.digest.hexdigest(),
        "result": {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def render(out: dict) -> list[str]:
    """The printed lines: notes, one line per metric, then the JSON object."""
    lines = list(out["notes"])
    for name, m in out["result"]["metrics"].items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    lines.append(json.dumps(out["result"]))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import seqalloc: {exc}", file=sys.stderr)
        return 2
    print("\n".join(render(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
