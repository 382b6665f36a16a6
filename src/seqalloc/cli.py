"""Command-line interface.

Exit codes: 0 success (or verdict true), 1 verdict false, 2 usage/parse
error, 3 search budget exceeded. Every command can emit a machine-readable
JSON document with ``--json``; utilities are always rendered as exact
decimal or rational strings, never binary floats. Each command imports
the modules it uses when it runs, so ``allocate`` and the two-agent
commands never load the search modules, and ``best-response`` with
``--mode oracle`` or ``--mode refuted-greedy`` loads no two-agent code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .engine import run_sequential_allocation
from .instance_io import parse_instance, serialize_instance
from .model import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_PATTERN_BUDGET,
    BudgetExceededError,
    ValidationError,
    bundle_utility,
    make_lexicographic_utilities,
    render_fraction,
)

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_input(path: str) -> tuple[str, str]:
    """The file's text, without a leading byte-order mark, and the SHA-256
    of its bytes, from one read."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError([f"{path}: not UTF-8 text ({exc})"]) from exc
    return text, hashlib.sha256(data).hexdigest()


class Report:
    """One structured document per run; timing excluded from determinism.

    ``text`` is the input file's content, read once with its digest.
    """

    def __init__(self, command: list[str], input_path: str | None):
        self.t0 = time.perf_counter()
        self.doc = {"command": command, "results": {}}
        self.text = ""
        if input_path is not None:
            self.doc["input"] = input_path
            self.text, self.doc["input_sha256"] = _read_input(input_path)

    def emit(self, args, text_lines: list[str]) -> None:
        self.doc["elapsed_seconds"] = round(time.perf_counter() - self.t0, 6)
        if getattr(args, "json", False):
            print(json.dumps(self.doc, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)


def cmd_allocate(args) -> int:
    report = Report(["allocate", args.instance], args.instance)
    inst, _ = parse_instance(report.text)
    alloc = run_sequential_allocation(inst)
    report.doc["results"] = {
        "bundles": {a: sorted(b) for a, b in alloc.bundles.items()},
        "trace": [[stage, agent, item] for stage, agent, item in alloc.trace],
    }
    lines = ["trace:"]
    lines += [f"  stage {s:>3}  {a:>10}  takes {o}" for s, a, o in alloc.trace]
    lines += ["bundles:"]
    lines += [f"  {a}: {{{', '.join(sorted(alloc.bundles[a]))}}}" for a in inst.agents]
    report.emit(args, lines)
    return EXIT_OK


def cmd_best_response(args) -> int:
    report = Report(["best-response", args.instance, args.agent, args.mode], args.instance)
    inst, utility = parse_instance(report.text)
    agent = args.agent
    if agent not in inst.agents:
        raise ValidationError([f"unknown agent {agent}"])
    if utility is None or agent not in utility.rows:
        utility = make_lexicographic_utilities(inst.preferences)
        report.doc["results"]["utilities"] = "lexicographic (none supplied)"

    lines: list[str] = []
    if args.mode == "oracle":
        from . import oracle

        budget = _budget_or(args, DEFAULT_NODE_BUDGET)
        res = oracle.brute_force_best_response(inst, utility, agent, node_budget=budget)
        bundles = [sorted(b) for b in res.optimal_bundles]
        witnesses = {
            ",".join(sorted(b)): list(res.witness_reports[b]) for b in res.optimal_bundles
        }
        report.doc["results"].update(
            max_utility=render_fraction(res.max_utility),
            optimal_bundles=bundles,
            witness_reports=witnesses,
            checks=res.checks,
            budget=budget,
        )
        lines += [f"max utility: {render_fraction(res.max_utility)}"]
        for b in res.optimal_bundles:
            lines += [
                "optimal bundle {" + ", ".join(sorted(b)) + "} via report "
                + " ".join(res.witness_reports[b])
            ]
        lines += [f"achievability checks: {res.checks} of budget {budget}"]
    else:
        if args.mode == "two-agent":
            from . import two_agent

            rep, bundle, value = two_agent.best_response(inst, utility, agent)
            report.doc["results"]["report"] = list(rep)
            lines += ["report : " + " ".join(rep)]
        else:  # refuted-greedy
            from . import oracle

            bundle = oracle.refuted_greedy_best_response(inst, agent)
            value = bundle_utility(utility, agent, bundle)
        report.doc["results"].update(bundle=sorted(bundle), utility=render_fraction(value))
        lines += [
            "bundle : {" + ", ".join(sorted(bundle)) + "}",
            "utility: " + render_fraction(value),
        ]
    report.emit(args, lines)
    return EXIT_OK


def cmd_nash_verify(args) -> int:
    from . import two_agent

    report = Report(["nash-verify", args.instance], args.instance)
    inst, utility = parse_instance(report.text)
    if utility is None or set(utility.agents()) != set(inst.agents):
        raise ValidationError(["nash-verify requires utilities for every agent"])
    evidence = two_agent.nash_evidence(inst, utility)
    verdict = not any(e.can_improve for e in evidence)
    report.doc["results"] = {
        "equilibrium": verdict,
        "agents": {
            e.agent: {
                "current_bundle": sorted(e.current_bundle),
                "current_utility": render_fraction(e.current_utility),
                "best_response_bundle": sorted(e.best_response_bundle),
                "best_response_utility": render_fraction(e.best_response_utility),
                "can_improve": e.can_improve,
            }
            for e in evidence
        },
    }
    lines = [f"equilibrium: {'yes' if verdict else 'no'}"]
    for e in evidence:
        lines.append(
            f"  agent {e.agent}: holds {{{', '.join(sorted(e.current_bundle))}}}"
            f" worth {render_fraction(e.current_utility)}; best response"
            f" {{{', '.join(sorted(e.best_response_bundle))}}}"
            f" worth {render_fraction(e.best_response_utility)}"
            + (" (improves)" if e.can_improve else "")
        )
    report.emit(args, lines)
    return EXIT_OK if verdict else EXIT_VERDICT_FALSE


def cmd_reduce(args) -> int:
    from . import reduction

    report = Report(["reduce", args.formula, args.out], args.formula)
    formula = reduction.parse_formula(report.text)
    out = reduction.build_instance(formula)
    instance_path = Path(args.out + ".instance")
    registry_path = Path(args.out + ".registry.json")
    instance_path.write_text(serialize_instance(out.instance, out.utility))
    registry_doc = json.loads(out.registry.to_json())
    registry_doc["target_utility"] = render_fraction(out.target)
    registry_path.write_text(json.dumps(registry_doc, indent=2, sort_keys=True))
    report.doc["results"] = {
        "agents": len(out.instance.agents),
        "items": len(out.instance.items),
        "stages": len(out.instance.sequence),
        "target_utility": render_fraction(out.target),
        "instance_file": str(instance_path),
        "registry_file": str(registry_path),
    }
    report.emit(
        args,
        [
            f"wrote {instance_path} and {registry_path}",
            f"{len(out.instance.agents)} agents, {len(out.instance.items)} items,"
            f" {len(out.instance.sequence)} stages, target {render_fraction(out.target)}",
        ],
    )
    return EXIT_OK


def _parse_assignment(text: str, num_vars: int) -> dict[int, bool]:
    assignment: dict[int, bool] = {}
    for part in text.split(","):
        name, _, value = part.strip().partition("=")
        digits = name[1:]
        if not (name.startswith("x") and digits.isdecimal()) or value.upper() not in ("T", "F"):
            raise ValidationError([f"bad assignment entry {part!r}, expected e.g. x1=T"])
        try:
            var = int(digits)
        except ValueError:  # more digits than ``int`` converts: past every variable
            var = 0
        if not 1 <= var <= num_vars:
            raise ValidationError([f"variable {name} outside x1..x{num_vars}"])
        if var in assignment:
            raise ValidationError([f"variable {name} assigned twice"])
        assignment[var] = value.upper() == "T"
    missing = [v for v in range(1, num_vars + 1) if v not in assignment]
    if missing:
        raise ValidationError([f"assignment missing variables {missing}"])
    return assignment


def cmd_verify_reduction(args) -> int:
    from . import reduction

    report = Report(["verify-reduction", args.formula], args.formula)
    formula = reduction.parse_formula(report.text)
    if args.patterns:
        max_patterns = _budget_or(args, DEFAULT_PATTERN_BUDGET)
        # checked before the compile, which is quadratic in the variables
        reduction._check_pattern_budget(formula.num_vars, max_patterns)
        pattern_report = reduction.verify_choice_patterns(
            reduction.build_instance(formula), max_patterns=max_patterns
        )
        if not pattern_report.sat_enumeration_agrees:
            raise RuntimeError("pattern verdict disagrees with direct SAT enumeration")
        report.doc["results"] = {
            "satisfiable": pattern_report.satisfiable,
            "patterns_checked": len(pattern_report.outcomes),
            "patterns_meeting_target": [
                "".join(o.kinds) for o in pattern_report.outcomes if o.meets_target
            ],
            "sat_enumeration_agrees": True,
        }
        report.emit(
            args,
            [
                f"checked {len(pattern_report.outcomes)} choice patterns",
                f"satisfiable: {'yes' if pattern_report.satisfiable else 'no'}"
                " (agrees with direct enumeration)",
            ],
        )
        return EXIT_OK if pattern_report.satisfiable else EXIT_VERDICT_FALSE

    out = reduction.build_instance(formula)
    assignment = _parse_assignment(args.assignment, formula.num_vars)
    fwd = reduction.verify_forward(out, assignment)
    report.doc["results"] = {
        "assignment": {f"x{v}": ("T" if b else "F") for v, b in assignment.items()},
        "utility": render_fraction(fwd.utility),
        "target": render_fraction(out.target),
        "meets_target": fwd.meets_target,
        "manipulator_bundle": sorted(fwd.manipulator_bundle),
        "trace": [[s, a, o] for s, a, o in fwd.allocation.trace],
    }
    lines = [
        f"utility {render_fraction(fwd.utility)} vs target {render_fraction(out.target)}",
        f"meets target: {'yes' if fwd.meets_target else 'no'}",
    ]
    report.emit(args, lines)
    return EXIT_OK if fwd.meets_target else EXIT_VERDICT_FALSE


def cmd_examples(args) -> int:
    from . import golden

    report = Report(["examples"], None)
    results = golden.run_golden_checks()
    ok = all(passed for _, passed, _ in results)
    report.doc["results"] = {
        name: {"passed": passed, **({"detail": detail} if not passed else {})}
        for name, passed, detail in results
    }
    lines = [
        f"{'PASS' if passed else 'FAIL'} {name}" + ("" if passed else f"  {detail}")
        for name, passed, detail in results
    ]
    lines.append("all green" if ok else "golden divergence detected")
    report.emit(args, lines)
    return EXIT_OK if ok else EXIT_VERDICT_FALSE


def _budget(text: str) -> int:
    """A search budget: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than ``int`` converts
        limit = sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer of at most {limit} digits, got {len(text)} digits"
        ) from None


def _budget_or(args, default: int) -> int:
    """The ``--budget`` given, or the search's default."""
    return default if args.budget is None else args.budget


def _budget_bounds_nothing(args) -> bool:
    """``--budget`` was given to a run that makes no budgeted search."""
    searches = getattr(args, "mode", None) == "oracle" or getattr(args, "patterns", False)
    return getattr(args, "budget", None) is not None and not searches


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqalloc", description="sequential allocation toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("allocate", help="run sequential allocation on an instance file")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_allocate)

    p = sub.add_parser("best-response", help="compute a best response for one agent")
    p.add_argument("instance")
    p.add_argument("--agent", required=True)
    p.add_argument(
        "--mode", choices=["two-agent", "oracle", "refuted-greedy"], default="two-agent"
    )
    p.add_argument(
        "--budget", type=_budget,
        help=f"most achievability checks that --mode oracle may make"
        f" (default {DEFAULT_NODE_BUDGET})",
    )
    p.set_defaults(fn=cmd_best_response)

    p = sub.add_parser("nash-verify", help="verify a two-agent pure Nash equilibrium")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_nash_verify)

    p = sub.add_parser("reduce", help="compile a restricted 3-CNF formula to an instance")
    p.add_argument("formula")
    p.add_argument("--out", required=True, help="output prefix for .instance and .registry.json")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify-reduction", help="replay assignments through a compiled formula")
    p.add_argument("formula")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--assignment", help="e.g. x1=T,x2=F,x3=F")
    group.add_argument("--patterns", action="store_true", help="enumerate all choice patterns")
    p.add_argument(
        "--budget", type=_budget,
        help=f"most choice patterns that --patterns may check"
        f" (default {DEFAULT_PATTERN_BUDGET})",
    )
    p.set_defaults(fn=cmd_verify_reduction)

    p = sub.add_parser("examples", help="run all built-in golden checks")
    p.set_defaults(fn=cmd_examples)

    for p in sub.choices.values():  # last in each command's help
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if _budget_bounds_nothing(args):
        parser.error(
            "--budget bounds only best-response --mode oracle and verify-reduction --patterns"
        )
    try:
        return args.fn(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
