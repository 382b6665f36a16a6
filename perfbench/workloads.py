"""Seeded inputs, operations and answer checks of the three workloads.

Input generation is plain Python and never imports ``seqalloc``: the
program sees only the generated text (instance files and DIMACS formulas),
and set-up time excludes making it. Every operation goes through the
package's public functions, looked up by attribute at call time so that the
tracer's wrappers see the calls.

A workload is a stream of groups. A group is one generated input and the
operations a user would ask about it, in a fixed order; checks may compare
an answer with facts that checks of earlier operations of the same group
left in the group's ``facts`` dict. Checks run outside the timed region.

This module imports none of the modules seqalloc imports (``__future__``
aside), so set-up probes time all of the package's imports.
"""

from __future__ import annotations

import hashlib
import random
from collections import namedtuple

Op = namedtuple("Op", "kind payload")


def _rng(workload: str, seed: int, group: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{group}")


# --- instance text ----------------------------------------------------------


def instance_text(items, prefs: dict, sequence, utils: dict | None = None) -> str:
    """Render the seqalloc instance text format.

    ``utils[a]`` lists agent a's utilities aligned with its preference order.
    """
    lines = [f"agents {len(prefs)} items {len(items)} seq {len(sequence)}"]
    lines += [f"item {o}" for o in items]
    lines += [f"pref {a} : " + " ".join(order) for a, order in prefs.items()]
    lines.append("seq : " + " ".join(sequence))
    for a, row in (utils or {}).items():
        lines.append(f"util {a} : " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def consistent_utilities(rng: random.Random, m: int) -> list[int]:
    """Positive, strictly decreasing integers (best item first)."""
    row, v = [], 0
    for _ in range(m):
        v += rng.randint(1, 50)
        row.append(v)
    return row[::-1]


def _exact_sum(vals: dict, bundle) -> int:
    """Integer bundle value for the integer utilities generated here."""
    return sum(int(vals[o]) for o in bundle)


# --- two-agent --------------------------------------------------------------


class TwoAgent:
    """n = 2, m = 256; per instance: best response of agent 1, of agent 2,
    then the Nash verdict of the truthful profile."""

    name = "two-agent"
    m = 256

    def group(self, seed: int, g: int) -> list[Op]:
        rng = _rng(self.name, seed, g)
        items = [f"o{k}" for k in range(self.m)]
        agents = ["1", "2"]
        if g % 2 == 0:
            sequence = [("1", "2", "2", "1")[k % 4] for k in range(self.m)]
        else:
            sequence = [rng.choice(agents) for _ in range(self.m)]
        prefs = {a: rng.sample(items, self.m) for a in agents}
        utils = {a: consistent_utilities(rng, self.m) for a in agents}
        text = instance_text(items, prefs, sequence, utils)
        return [Op("best_response", (text, "1")), Op("best_response", (text, "2")),
                Op("nash_verify", text)]

    def run(self, sa, op: Op):
        if op.kind == "best_response":
            text, agent = op.payload
            inst, u = sa.instance_io.parse_instance(text)
            return inst, u, sa.best_response(inst, u, agent)
        inst, u = sa.instance_io.parse_instance(op.payload)
        return inst, u, sa.verify_nash_two_agents(inst, u)

    def check(self, sa, op: Op, answer, facts: dict) -> None:
        inst, u, result = answer
        if op.kind == "best_response":
            agent = op.payload[1]
            report, bundle, value = result
            replay = sa.run_with_report(inst, agent, report).bundles[agent]
            _require(replay == bundle, "best-response report replays to another bundle")
            _require(sa.bundle_utility(u, agent, replay) == value,
                     "best-response utility differs from the replayed bundle's")
            truthful = sa.run_sequential_allocation(inst).bundles[agent]
            truthful_value = sa.bundle_utility(u, agent, truthful)
            _require(value >= truthful_value, "best response worse than truthful bundle")
            facts[agent] = value > truthful_value
        else:
            # Utilities are consistent with the reported orders, so the
            # truthful profile is an equilibrium iff neither best response
            # above improved on the truthful bundle.
            _require(set(facts) == {"1", "2"}, "Nash query without both best responses")
            _require(result == (not any(facts.values())),
                     "Nash verdict disagrees with the agents' best responses")

    def summary(self, op: Op, answer) -> str:
        result = answer[2]
        if op.kind == "best_response":
            report, bundle, value = result
            return f"br {op.payload[1]} {' '.join(report)} | {' '.join(sorted(bundle))} | {value}"
        return f"nash {result}"


# --- oracle -----------------------------------------------------------------


class Oracle:
    """n = 3, m = 15, round-robin sequence with 4 manipulator turns; per
    instance: three brute-force best responses under different consistent
    utilities, then the enumeration of achievable bundles."""

    name = "oracle"
    m = 15
    turns = 4
    manipulator = "1"

    def group(self, seed: int, g: int) -> list[Op]:
        rng = _rng(self.name, seed, g)
        items = [f"o{k}" for k in range(self.m)]
        agents = ["1", "2", "3"]
        sequence = [agents[k % 3] for k in range(3 * self.turns)]
        prefs = {a: rng.sample(items, self.m) for a in agents}
        ops = [
            Op("brute_force", instance_text(
                items, prefs, sequence, {self.manipulator: consistent_utilities(rng, self.m)}))
            for _ in range(3)
        ]
        ops.append(Op("enumerate", instance_text(items, prefs, sequence)))
        return ops

    def run(self, sa, op: Op):
        inst, u = sa.instance_io.parse_instance(op.payload)
        if op.kind == "brute_force":
            return inst, u, sa.brute_force_best_response(inst, u, self.manipulator)
        return inst, u, sa.enumerate_achievable_bundles(inst, self.manipulator)

    def check(self, sa, op: Op, answer, facts: dict) -> None:
        inst, u, result = answer
        me = self.manipulator
        truthful = sa.run_sequential_allocation(inst).bundles[me]
        if op.kind == "brute_force":
            vals = u.values[me]
            _require(result.max_utility >= _exact_sum(vals, truthful),
                     "oracle optimum worse than truthful bundle")
            _require(set(result.optimal_bundles) == set(result.witness_reports),
                     "optimal bundles and witnesses differ")
            for report in result.witness_reports.values():
                replay = sa.run_with_report(inst, me, report).bundles[me]
                _require(replay in result.optimal_bundles, "witness replays to a non-optimal bundle")
                _require(_exact_sum(vals, replay) == result.max_utility,
                         "witness bundle not worth max_utility")
            facts.setdefault("optima", []).append(
                (vals, result.max_utility, set(result.optimal_bundles)))
        else:
            _require(truthful in result, "truthful bundle not among achievable bundles")
            for vals, best, optimal in facts.get("optima", []):
                worth = {b: _exact_sum(vals, b) for b in result}
                top = max(worth.values())
                _require(top == best, "enumeration's best bundle disagrees with the oracle")
                _require({b for b, w in worth.items() if w == top} == optimal,
                         "enumeration's optimal bundles disagree with the oracle")

    def summary(self, op: Op, answer) -> str:
        result = answer[2]
        if op.kind == "brute_force":
            bundles = sorted(" ".join(sorted(b)) for b in result.optimal_bundles)
            return f"bf {result.max_utility} | {' / '.join(bundles)}"
        bundles = sorted(" ".join(sorted(b)) for b in result)
        return "enum " + hashlib.sha256("\n".join(bundles).encode()).hexdigest()


# --- reduction --------------------------------------------------------------


def restricted_formula_text(rng: random.Random, num_vars: int) -> str:
    """Random DIMACS 3-CNF in which every literal occurs in exactly two
    clauses. ``num_vars`` must be a multiple of 3."""
    if num_vars % 3:
        raise ValueError("num_vars must be a multiple of 3")
    while True:
        tokens = [s * v for v in range(1, num_vars + 1) for s in (1, -1) for _ in range(2)]
        rng.shuffle(tokens)
        clauses = [tokens[i : i + 3] for i in range(0, len(tokens), 3)]
        if all(len({abs(lit) for lit in c}) == 3 for c in clauses):
            break
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


class Reduction:
    """Per group: five 3-variable formulas, each parsed, compiled, checked
    over all 64 choice patterns and replayed forward on every satisfying
    assignment; then one 30-variable formula compiled and serialized."""

    name = "reduction"
    small_vars = 3
    large_vars = 30
    verifies_per_compile = 5

    def group(self, seed: int, g: int) -> list[Op]:
        rng = _rng(self.name, seed, g)
        ops = [Op("verify", restricted_formula_text(rng, self.small_vars))
               for _ in range(self.verifies_per_compile)]
        ops.append(Op("compile", restricted_formula_text(rng, self.large_vars)))
        return ops

    def run(self, sa, op: Op):
        f = sa.parse_formula(op.payload)
        out = sa.build_instance(f)
        if op.kind == "compile":
            return out, sa.instance_io.serialize_instance(out.instance, out.utility)
        patterns = sa.verify_choice_patterns(out)
        forward = [sa.verify_forward(out, a) for a in f.satisfying_assignments()]
        return out, (patterns, forward)

    def check(self, sa, op: Op, answer, facts: dict) -> None:
        out, result = answer
        f = out.formula
        X, C = f.num_vars, len(f.clauses)
        agents, items, stages = 1 + 4 * X, 18 * X + 3 * C, 16 * X + 4 * C
        inst = out.instance
        _require((len(inst.agents), len(inst.items), len(inst.sequence)) == (agents, items, stages),
                 "compiled instance has the wrong size")
        if op.kind == "compile":
            _require(result.startswith(f"agents {agents} items {items} seq {stages}\n"),
                     "serialized header has the wrong size")
            return
        patterns, forward = result
        satisfying = f.satisfying_assignments()
        _require(len(patterns.outcomes) == 4 ** X, "wrong number of choice patterns")
        _require(patterns.sat_enumeration_agrees, "patterns disagree with SAT enumeration")
        _require(patterns.satisfiable == bool(satisfying), "satisfiable verdict is wrong")
        _require(len(forward) == len(satisfying), "missing forward replays")
        _require(all(r.meets_target for r in forward),
                 "a satisfying assignment misses the target")

    def summary(self, op: Op, answer) -> str:
        out, result = answer
        if op.kind == "compile":
            return "compile " + hashlib.sha256(result.encode()).hexdigest()
        patterns, forward = result
        utilities = ",".join(str(o.utility) for o in patterns.outcomes)
        return (f"verify {patterns.satisfiable} {len(forward)} {out.target} "
                + hashlib.sha256(utilities.encode()).hexdigest())


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


WORKLOADS = {w.name: w for w in (TwoAgent(), Oracle(), Reduction())}
