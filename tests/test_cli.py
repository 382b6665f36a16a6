import hashlib
import json
import subprocess
import sys

import pytest

from seqalloc import cli, golden, oracle, reduction
from seqalloc.golden import REFERENCE_FORMULA

from conftest import package_env

INSTANCE = """\
agents 2 items 4 seq 4
item o1
item o2
item o3
item o4
pref 1 : o1 o2 o3 o4
pref 2 : o1 o3 o2 o4
seq : 1 2 2 1
"""

NASH_PROFILE = """\
agents 2 items 4 seq 4
item a
item b
item c
item d
pref 1 : a b c d
pref 2 : c d a b
seq : 1 2 1 2
util 1 : 8 4 2 1
util 2 : 8 4 2 1
"""

NOT_NASH_PROFILE = """\
agents 2 items 4 seq 4
item a
item b
item c
item d
pref 1 : a b c d
pref 2 : b c a d
seq : 1 2 1 2
util 1 : 8 4 2 1
util 2 : 8 4 2 1
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "case.instance"
    path.write_text(INSTANCE)
    return str(path)


@pytest.fixture
def formula_file(tmp_path):
    path = tmp_path / "formula.cnf"
    path.write_text(REFERENCE_FORMULA)
    return str(path)


def _run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


# 1e4300 is a legal literal, and its 4,301 digits are one more than ``str``
# writes by default
HUGE_PROFILE = """\
agents 2 items 2 seq 2
item a
item b
pref 1 : a b
pref 2 : a b
seq : 1 2
util 1 : 1e4300 1
util 2 : 2 1
"""


@pytest.mark.parametrize(
    "argv, field",
    [
        (["best-response", "huge.instance", "--agent", "1"], "utility"),
        (["best-response", "huge.instance", "--agent", "1", "--mode", "oracle"], "max_utility"),
        (["best-response", "huge.instance", "--agent", "1", "--mode", "refuted-greedy"], "utility"),
        (["nash-verify", "huge.instance"], None),
    ],
    ids=["two-agent", "oracle", "refuted-greedy", "nash-verify"],
)
def test_a_utility_past_the_int_digit_limit_prints_exactly(
    capsys, tmp_path, monkeypatch, default_digit_limit, argv, field
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.instance").write_text(HUGE_PROFILE)
    digits = "1" + "0" * default_digit_limit
    assert cli.main(argv) == cli.EXIT_OK
    assert f" {digits}\n" in capsys.readouterr().out
    code, doc = _run_json(capsys, argv)
    results = doc["results"]
    assert code == cli.EXIT_OK
    if field is None:
        assert results["agents"]["1"]["current_utility"] == digits
        assert results["agents"]["1"]["best_response_utility"] == digits
    else:
        assert results[field] == digits


def test_the_oracle_budget_error_prints_a_utility_past_the_int_digit_limit(
    capsys, tmp_path, monkeypatch, default_digit_limit
):
    """The budget-exceeded message names the best utility held, 10^4300 + 14,
    in full: an exit 3 with one line, not a traceback from ``str``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.instance").write_text(
        "agents 3 items 6 seq 6\n"
        + "".join(f"item o{k}\n" for k in range(6))
        + "pref 1 : o5 o4 o0 o2 o3 o1\n"
        "pref 2 : o2 o4 o0 o5 o3 o1\n"
        "pref 3 : o2 o0 o4 o3 o1 o5\n"
        "seq : 2 1 2 3 1 1\n"
        "util 1 : 1e4300 9 8 7 6 5\n"
    )
    argv = ["best-response", "huge.instance", "--agent", "1", "--mode", "oracle", "--budget", "8"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    captured = capsys.readouterr()
    digits = "1" + "0" * (default_digit_limit - 2) + "14"
    assert captured.out == ""
    assert captured.err == (
        "error: search exceeded node budget 8 after 8 achievability checks,"
        f" best utility so far {digits}, 1 optimal bundles held\n"
    )


def test_allocate(capsys, instance_file):
    code, doc = _run_json(capsys, ["allocate", instance_file])
    assert code == cli.EXIT_OK
    assert doc["results"]["bundles"] == {"1": ["o1", "o4"], "2": ["o2", "o3"]}
    assert doc["results"]["trace"][0] == [1, "1", "o1"]
    assert len(doc["input_sha256"]) == 64


def test_allocate_text_output(capsys, instance_file):
    assert cli.main(["allocate", instance_file]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "stage   1" in out and "bundles:" in out


def test_best_response_two_agent(capsys, instance_file):
    code, doc = _run_json(
        capsys, ["best-response", instance_file, "--agent", "1"]
    )
    assert code == cli.EXIT_OK
    assert doc["results"]["bundle"] == ["o1", "o4"]
    assert doc["results"]["utilities"] == "lexicographic (none supplied)"


def test_best_response_oracle_and_greedy_agree_here(capsys, instance_file):
    code, doc = _run_json(
        capsys,
        ["best-response", instance_file, "--agent", "1", "--mode", "oracle"],
    )
    assert code == cli.EXIT_OK
    assert doc["results"]["optimal_bundles"] == [["o1", "o4"]]
    code, doc = _run_json(
        capsys,
        ["best-response", instance_file, "--agent", "1", "--mode", "refuted-greedy"],
    )
    assert code == cli.EXIT_OK
    assert doc["results"]["bundle"] == ["o1", "o4"]


def test_best_response_unknown_agent_is_usage_error(capsys, instance_file):
    assert cli.main(["best-response", instance_file, "--agent", "9"]) == cli.EXIT_USAGE
    assert "unknown agent" in capsys.readouterr().err


def test_oracle_budget_exhaustion_exit_code(capsys, instance_file):
    code = cli.main(
        ["best-response", instance_file, "--agent", "1", "--mode", "oracle", "--budget", "1"]
    )
    assert code == cli.EXIT_BUDGET


def test_oracle_reports_checks_against_budget(capsys, instance_file):
    argv = ["best-response", instance_file, "--agent", "1", "--mode", "oracle"]
    code, doc = _run_json(capsys, argv)
    assert code == cli.EXIT_OK
    checks = doc["results"]["checks"]
    assert checks > 0
    assert doc["results"]["budget"] == oracle.DEFAULT_NODE_BUDGET
    # the checks counted are the ones the budget bounds
    assert cli.main(argv + ["--budget", str(checks)]) == cli.EXIT_OK
    assert f"achievability checks: {checks} of budget {checks}" in capsys.readouterr().out
    assert cli.main(argv + ["--budget", str(checks - 1)]) == cli.EXIT_BUDGET
    assert f"node budget {checks - 1}" in capsys.readouterr().err


def test_nash_verify_verdicts(capsys, tmp_path):
    good = tmp_path / "good.instance"
    good.write_text(NASH_PROFILE)
    code, doc = _run_json(capsys, ["nash-verify", str(good)])
    assert code == cli.EXIT_OK
    assert doc["results"]["equilibrium"] is True

    bad = tmp_path / "bad.instance"
    bad.write_text(NOT_NASH_PROFILE)
    code, doc = _run_json(capsys, ["nash-verify", str(bad)])
    assert code == cli.EXIT_VERDICT_FALSE
    assert doc["results"]["equilibrium"] is False
    assert doc["results"]["agents"]["1"]["can_improve"] is True


def test_nash_verify_requires_full_utilities(capsys, instance_file):
    assert cli.main(["nash-verify", instance_file]) == cli.EXIT_USAGE


COUNTEREXAMPLE = """\
agents 3 items 4 seq 4
item a
item b
item c
item d
pref 1 : a b c d
pref 2 : c d a b
pref 3 : a b c d
seq : 1 2 3 1
util 1 : 3.1 3 2 1
"""

RATIONAL_PROFILE = """\
agents 2 items 4 seq 4
item a
item b
item c
item d
pref 1 : a b c d
pref 2 : b c a d
seq : 1 2 1 2
util 1 : 7/3 2 1.5 1/7
util 2 : 10/3 3.25 2 1/2
"""


def test_best_response_with_decimal_utilities(capsys, tmp_path):
    """The three-agent counterexample: the oracle's {b, c} is worth 5, the
    refuted greedy's {a, d} 3.1 + 1 = 41/10."""
    path = tmp_path / "counterexample.instance"
    path.write_text(COUNTEREXAMPLE)
    argv = ["best-response", str(path), "--agent", "1", "--mode"]
    code, doc = _run_json(capsys, argv + ["oracle"])
    assert code == cli.EXIT_OK
    assert doc["results"]["max_utility"] == "5"
    assert doc["results"]["optimal_bundles"] == [["b", "c"]]
    assert "utilities" not in doc["results"]
    code, doc = _run_json(capsys, argv + ["refuted-greedy"])
    assert code == cli.EXIT_OK
    assert doc["results"]["bundle"] == ["a", "d"]
    assert doc["results"]["utility"] == "41/10"
    assert cli.main(argv + ["refuted-greedy"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "bundle : {a, d}\nutility: 41/10\n"


def test_rational_utilities_print_exactly(capsys, tmp_path):
    """7/3 + 2 = 13/3 and 7/3 + 3/2 = 10/3 + 1/2 = 23/6, in text and in JSON."""
    path = tmp_path / "rational.instance"
    path.write_text(RATIONAL_PROFILE)
    argv = ["best-response", str(path), "--agent"]
    assert cli.main(argv + ["1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "report : b a c d\nbundle : {a, b}\nutility: 13/3\n"
    code, doc = _run_json(capsys, argv + ["2"])
    assert code == cli.EXIT_OK
    assert doc["results"]["bundle"] == ["b", "d"] and doc["results"]["utility"] == "23/6"

    assert cli.main(["nash-verify", str(path)]) == cli.EXIT_VERDICT_FALSE
    assert capsys.readouterr().out == (
        "equilibrium: no\n"
        "  agent 1: holds {a, c} worth 23/6; best response {a, b} worth 13/3 (improves)\n"
        "  agent 2: holds {b, d} worth 23/6; best response {b, d} worth 23/6\n"
    )
    code, doc = _run_json(capsys, ["nash-verify", str(path)])
    assert code == cli.EXIT_VERDICT_FALSE
    agents = doc["results"]["agents"]
    assert [agents["1"][k] for k in ("current_utility", "best_response_utility")] == ["23/6", "13/3"]
    assert [agents["2"][k] for k in ("current_utility", "best_response_utility")] == ["23/6", "23/6"]


def test_reduce_writes_artifacts(capsys, tmp_path, formula_file):
    prefix = str(tmp_path / "compiled")
    code, doc = _run_json(capsys, ["reduce", formula_file, "--out", prefix])
    assert code == cli.EXIT_OK
    assert doc["results"]["agents"] == 13
    assert doc["results"]["items"] == 66
    assert doc["results"]["stages"] == 64
    instance_text = (tmp_path / "compiled.instance").read_text()
    assert instance_text.startswith("agents 13 items 66 seq 64")
    registry = json.loads((tmp_path / "compiled.registry.json").read_text())
    assert registry["target_utility"] == doc["results"]["target_utility"]

    # the emitted instance is itself consumable by the other commands
    code2, doc2 = _run_json(
        capsys, ["allocate", str(tmp_path / "compiled.instance")]
    )
    assert code2 == cli.EXIT_OK


def test_verify_reduction_assignment(capsys, formula_file):
    code, doc = _run_json(
        capsys,
        ["verify-reduction", formula_file, "--assignment", "x1=T,x2=F,x3=F"],
    )
    assert code == cli.EXIT_OK
    assert doc["results"]["meets_target"] is True
    assert len(doc["results"]["trace"]) == 64

    code, doc = _run_json(
        capsys,
        ["verify-reduction", formula_file, "--assignment", "x1=F,x2=F,x3=F"],
    )
    assert code == cli.EXIT_VERDICT_FALSE
    assert doc["results"]["meets_target"] is False


def test_verify_reduction_rejects_partial_assignment(capsys, formula_file):
    code = cli.main(["verify-reduction", formula_file, "--assignment", "x1=T"])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("xa=T,x1=T,x2=F,x3=F", "bad assignment entry 'xa=T'"),
        ("x1=T,x2=F,x3=F,x9=T", "variable x9 outside x1..x3"),
        ("x0=T,x1=T,x2=F,x3=F", "variable x0 outside x1..x3"),
        ("x1=T,x1=F,x2=F,x3=F", "variable x1 assigned twice"),
    ],
)
def test_verify_reduction_rejects_malformed_assignment(
    capsys, formula_file, assignment, message
):
    argv = ["verify-reduction", formula_file, "--assignment", assignment, "--json"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_verify_reduction_patterns(capsys, formula_file):
    code, doc = _run_json(capsys, ["verify-reduction", formula_file, "--patterns"])
    assert code == cli.EXIT_OK
    assert doc["results"]["satisfiable"] is True
    assert doc["results"]["patterns_checked"] == 64
    assert doc["results"]["sat_enumeration_agrees"] is True


def test_verify_reduction_pattern_budget(capsys, formula_file):
    code = cli.main(
        ["verify-reduction", formula_file, "--patterns", "--budget", "5"]
    )
    assert code == cli.EXIT_BUDGET


def test_verify_reduction_checks_the_pattern_budget_before_compiling(
    capsys, monkeypatch, formula_file
):
    """The compile is quadratic in the variables, so a formula whose
    patterns exceed the budget is refused before it is compiled."""

    def no_compile(formula):
        raise AssertionError("compiled a formula whose patterns exceed the budget")

    monkeypatch.setattr(reduction, "build_instance", no_compile)
    code = cli.main(["verify-reduction", formula_file, "--patterns", "--budget", "5"])
    assert code == cli.EXIT_BUDGET
    assert capsys.readouterr().err == "error: 64 patterns exceed the budget 5\n"


BUDGET_HELP = {
    "best-response": """\
usage: seqalloc best-response [-h] --agent AGENT
                              [--mode {two-agent,oracle,refuted-greedy}]
                              [--budget BUDGET] [--json]
                              instance

positional arguments:
  instance

options:
  -h, --help            show this help message and exit
  --agent AGENT
  --mode {two-agent,oracle,refuted-greedy}
  --budget BUDGET       most achievability checks that --mode oracle may make
                        (default 2000000)
  --json
""",
    "verify-reduction": """\
usage: seqalloc verify-reduction [-h] (--assignment ASSIGNMENT | --patterns)
                                 [--budget BUDGET] [--json]
                                 formula

positional arguments:
  formula

options:
  -h, --help            show this help message and exit
  --assignment ASSIGNMENT
                        e.g. x1=T,x2=F,x3=F
  --patterns            enumerate all choice patterns
  --budget BUDGET       most choice patterns that --patterns may check
                        (default 65536)
  --json
""",
}


@pytest.mark.parametrize("command", sorted(BUDGET_HELP))
def test_budget_help_is_pinned(capsys, monkeypatch, command):
    """The default budgets in the help come from ``model``, unchanged."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == BUDGET_HELP[command]


def test_examples_all_green(capsys):
    code, doc = _run_json(capsys, ["examples"])
    assert code == cli.EXIT_OK
    assert all(entry["passed"] for entry in doc["results"].values())


def test_a_diverging_golden_row_fails_alone(capsys, monkeypatch):
    """A golden row whose computed value differs from its expected one is
    the only row that fails, and every output names both values."""
    wrong = frozenset("bc")
    monkeypatch.setattr(golden, "refuted_greedy_best_response", lambda inst, agent: wrong)
    detail = f"got {wrong!r}, expected {({'a', 'd'})!r}"
    failed = [(name, why) for name, passed, why in golden.run_golden_checks() if not passed]
    assert failed == [("counterexample/refuted-greedy", detail)]

    assert cli.main(["examples"]) == cli.EXIT_VERDICT_FALSE
    out = capsys.readouterr().out
    assert f"FAIL counterexample/refuted-greedy  {detail}\n" in out
    assert out.endswith("golden divergence detected\n")
    code, doc = _run_json(capsys, ["examples"])
    assert code == cli.EXIT_VERDICT_FALSE
    assert doc["results"]["counterexample/refuted-greedy"] == {"passed": False, "detail": detail}


def test_malformed_instance_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.instance"
    path.write_text("agents 1 items 1\n")
    assert cli.main(["allocate", str(path)]) == cli.EXIT_USAGE
    assert "malformed header" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys, tmp_path):
    assert cli.main(["allocate", str(tmp_path / "nope")]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("case.instance", INSTANCE, ["allocate", "case.instance"]),
        ("case.instance", NOT_NASH_PROFILE, ["nash-verify", "case.instance"]),
        ("formula.cnf", REFERENCE_FORMULA, ["reduce", "formula.cnf", "--out", "compiled"]),
    ],
    ids=["allocate", "nash-verify", "reduce"],
)
def test_byte_order_mark_is_skipped(capsys, tmp_path, monkeypatch, name, text, argv):
    """A UTF-8 file that starts with a byte-order mark reads as the same
    text; ``input_sha256`` stays the digest of the bytes as stored."""
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        workdir = tmp_path / f"mark{len(mark)}"
        workdir.mkdir()
        data = mark + text.encode()
        (workdir / name).write_bytes(data)
        monkeypatch.chdir(workdir)
        code = cli.main(argv)
        assert code != cli.EXIT_USAGE, capsys.readouterr().err
        plain = capsys.readouterr().out
        doc = _run_json(capsys, argv)[1]
        assert doc.pop("input_sha256") == hashlib.sha256(data).hexdigest()
        doc.pop("elapsed_seconds")
        written = sorted((p.name, p.read_bytes()) for p in workdir.iterdir() if p.name != name)
        runs.append((code, plain, doc, written))
    assert runs[0] == runs[1]


def test_json_results_are_deterministic(capsys, instance_file):
    _, first = _run_json(capsys, ["allocate", instance_file])
    _, second = _run_json(capsys, ["allocate", instance_file])
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second


def test_module_entry_point_exit_codes(tmp_path):
    """Input errors exit 2 from a real process.

    An uncaught exception also exits 1, the "verdict false" code, which
    only a separate process can tell apart from a verdict.
    """
    formula = tmp_path / "bad_counts.cnf"
    formula.write_text("p cnf a 3\n1 2 3 0\n")
    no_vars = tmp_path / "no_vars.cnf"
    no_vars.write_text("p cnf 0 0\n")
    instance = tmp_path / "bad_header.instance"
    instance.write_text("agents 1 items 1\n")
    not_utf8 = tmp_path / "latin1.instance"
    not_utf8.write_bytes(b"# caf\xe9\nagents 1 items 1 seq 1\n")
    good_instance = tmp_path / "case.instance"
    good_instance.write_text(INSTANCE)
    good_formula = tmp_path / "reference.cnf"
    good_formula.write_text(REFERENCE_FORMULA)
    # 4,301 digits: one more than ``int`` converts by default
    long_count = "1" * 4301
    long_header = tmp_path / "long_header.cnf"
    long_header.write_text(f"p cnf {long_count} 0\n")
    for argv, expected, message in [
        (["examples"], cli.EXIT_OK, ""),
        (["verify-reduction", str(formula), "--patterns"], cli.EXIT_USAGE, "malformed"),
        (["reduce", str(no_vars), "--out", str(tmp_path / "out")], cli.EXIT_USAGE,
         "formula has 0 variables"),
        (["allocate", str(instance)], cli.EXIT_USAGE, "malformed header"),
        # a directory and a file that is not UTF-8 are unreadable input,
        # and the error names the file
        (["allocate", str(tmp_path)], cli.EXIT_USAGE, str(tmp_path)),
        (["verify-reduction", str(tmp_path), "--patterns"], cli.EXIT_USAGE, str(tmp_path)),
        (["allocate", str(not_utf8)], cli.EXIT_USAGE, f"{not_utf8}: not UTF-8"),
        (["verify-reduction", str(not_utf8), "--patterns"], cli.EXIT_USAGE,
         f"{not_utf8}: not UTF-8"),
        # a negative budget is a usage error, not an exhausted budget
        (["best-response", str(good_instance), "--agent", "1", "--mode", "oracle",
          "--budget", "-5"], cli.EXIT_USAGE, "--budget"),
        (["verify-reduction", str(good_formula), "--patterns", "--budget", "-1"],
         cli.EXIT_USAGE, "--budget"),
        # a budget where no search runs is a usage error, not ignored
        (["best-response", str(good_instance), "--agent", "1", "--mode", "two-agent",
          "--budget", "0"], cli.EXIT_USAGE, "--budget"),
        (["best-response", str(good_instance), "--agent", "1", "--mode", "refuted-greedy",
          "--budget", "0"], cli.EXIT_USAGE, "--budget"),
        (["verify-reduction", str(good_formula), "--assignment", "x1=T,x2=T,x3=T",
          "--budget", "0"], cli.EXIT_USAGE, "--budget"),
        # numbers too long for ``int`` are input errors, not tracebacks
        (["verify-reduction", str(long_header), "--patterns"], cli.EXIT_USAGE,
         "error: line 1: malformed problem line"),
        (["verify-reduction", str(good_formula), "--assignment", f"x{long_count}=T"],
         cli.EXIT_USAGE, f"error: variable x{long_count} outside x1..x3"),
        (["best-response", str(good_instance), "--agent", "1", "--mode", "oracle",
          "--budget", long_count], cli.EXIT_USAGE,
         "--budget: expected a non-negative integer of at most 4300 digits, got 4301 digits"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "seqalloc.cli", *argv],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == expected, (argv, proc.stderr)
        assert message in proc.stderr, (argv, proc.stderr)
