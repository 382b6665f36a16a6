"""The import footprint: a call loads only the submodules it uses, and no
standard-library module that only declares types or generates classes.

Footprints are read in fresh interpreters, because this test process has
already imported every submodule.
"""

import json
import subprocess
import sys

import pytest

import seqalloc
from seqalloc import engine, model, oracle, reduction, two_agent

from conftest import package_env

SEARCH = ("two_agent", "oracle", "reduction", "golden")
SUBMODULES = ("engine", "model", "instance_io", "two_agent", "oracle", "reduction", "golden")

# the package's public names and the submodule each comes from
EXPORTS = {
    engine: ("run_sequential_allocation", "run_with_report"),
    model: (
        "Allocation", "BudgetExceededError", "Instance", "UtilityFunction",
        "ValidationError", "bundle_utility", "make_lexicographic_utilities",
        "validate_instance",
    ),
    oracle: (
        "OracleResult", "brute_force_best_response", "count_achievable_bundles",
        "enumerate_achievable_bundles", "refuted_greedy_best_response",
    ),
    reduction: (
        "ReductionOutput", "RestrictedFormula", "assignment_to_report", "build_instance",
        "parse_formula", "verify_choice_patterns", "verify_forward",
    ),
    two_agent: (
        "best_response", "canonical_report", "is_achievable", "lexicographic_best_response",
        "verify_nash_two_agents",
    ),
}

PROFILE = """\
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


def _modules_after(code: str, cwd, flags=()) -> set[str]:
    """Every module a fresh interpreter, started with ``flags``, holds after
    ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        cwd=cwd, env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded_after(code: str, cwd) -> set[str]:
    """The seqalloc submodules a fresh interpreter holds after ``code``."""
    loaded = _modules_after(code, cwd)
    return {name.removeprefix("seqalloc.") for name in loaded if name.startswith("seqalloc.")}


def test_bare_import_loads_no_submodule(tmp_path):
    assert _loaded_after("import seqalloc", tmp_path) == set()


@pytest.mark.parametrize(
    "name, absent",
    [
        ("best_response", {"oracle", "reduction", "golden"}),
        ("brute_force_best_response", {"two_agent", "reduction", "golden"}),
    ],
)
def test_a_name_loads_only_its_submodule_and_imports(tmp_path, name, absent):
    loaded = _loaded_after(f"import seqalloc\nseqalloc.{name}", tmp_path)
    assert not loaded & absent, loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["allocate", "profile.instance"],
        ["nash-verify", "profile.instance"],
        ["best-response", "profile.instance", "--agent", "1", "--mode", "two-agent"],
    ],
)
def test_two_agent_commands_load_no_search_module(tmp_path, argv):
    (tmp_path / "profile.instance").write_text(PROFILE)
    loaded = _loaded_after(f"from seqalloc import cli\ncli.main({argv!r})", tmp_path)
    assert not loaded & {"oracle", "reduction", "golden"}, loaded


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["best-response", "profile.instance", "--agent", "1", "--mode", "oracle"],
         {"two_agent", "reduction", "golden"}),
        (["reduce", "ref.cnf", "--out", "ref"], {"oracle", "two_agent", "golden"}),
        (["verify-reduction", "ref.cnf", "--assignment", "x1=T,x2=F,x3=F"],
         {"oracle", "two_agent", "golden"}),
        (["verify-reduction", "ref.cnf", "--patterns"], {"oracle", "two_agent", "golden"}),
        (["best-response", "profile.instance", "--agent", "1", "--mode", "refuted-greedy"],
         {"two_agent", "reduction", "golden"}),
    ],
)
def test_search_commands_load_no_sibling_search_module(tmp_path, argv, absent):
    _inputs(tmp_path)
    code = f"from seqalloc import cli\nstatus = cli.main({argv!r})\nassert status == 0"
    loaded = _loaded_after(code, tmp_path)
    assert not loaded & absent, loaded


def test_oracle_calls_load_no_two_agent_module(tmp_path):
    """The oracle's refuted greedy is ``engine.ordinal_greedy``, the one that
    ``two_agent`` also runs, so answering loads no two-agent code."""
    _inputs(tmp_path)
    code = _PARSED + (
        "seqalloc.brute_force_best_response(inst, u, '1')\n"
        "seqalloc.enumerate_achievable_bundles(inst, '1')\n"
        "seqalloc.count_achievable_bundles(inst, '1')\n"
        "seqalloc.refuted_greedy_best_response(inst, '1')\n"
    )
    loaded = _loaded_after("import seqalloc\n" + code, tmp_path)
    assert "oracle" in loaded and "two_agent" not in loaded, loaded
    assert two_agent.ordinal_greedy is engine.ordinal_greedy


def test_submodules_resolve_after_a_bare_import(tmp_path):
    code = "import seqalloc\n" + "".join(f"seqalloc.{name}\n" for name in SUBMODULES)
    assert _loaded_after(code, tmp_path) >= set(SUBMODULES)


def test_every_public_name_is_its_submodules_object():
    assert sorted(seqalloc.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(seqalloc, name) is getattr(module, name), name
    namespace: dict = {}
    exec("from seqalloc import *", namespace)
    for name in seqalloc.__all__:
        assert namespace[name] is getattr(seqalloc, name), name


def test_dir_lists_public_names_and_submodules():
    assert set(dir(seqalloc)) >= {*seqalloc.__all__, *SUBMODULES, "__version__"}


def test_unknown_name_is_attribute_error():
    assert not hasattr(seqalloc, "BACKEND")
    with pytest.raises(AttributeError, match="module 'seqalloc' has no attribute 'BACKEND'"):
        seqalloc.BACKEND


def test_a_name_patched_on_its_submodule_is_what_the_package_gives(monkeypatch):
    """Names are never cached on the package, so a patch made after a first
    access (as a tracer makes) is seen."""
    assert seqalloc.brute_force_best_response is oracle.brute_force_best_response

    def patched(*args, **kwargs):
        raise AssertionError("unreachable")

    monkeypatch.setattr(seqalloc.oracle, "brute_force_best_response", patched)
    assert seqalloc.brute_force_best_response is patched


# ``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis``,
# ``tokenize`` and ``linecache``: together about 10 ms of every fresh process
CLASS_MACHINERY = {"dataclasses", "inspect"}

_PARSED = (
    "from seqalloc.instance_io import parse_instance\n"
    "inst, u = parse_instance(open('profile.instance').read())\n"
)

ENTRY_POINTS = {
    "best_response": _PARSED + "seqalloc.best_response(inst, u, '1')",
    "brute_force_best_response": _PARSED + "seqalloc.brute_force_best_response(inst, u, '1')",
    "build_instance": (
        "from seqalloc.golden import REFERENCE_FORMULA\n"
        "seqalloc.build_instance(seqalloc.parse_formula(REFERENCE_FORMULA))"
    ),
}

COMMANDS = {
    "allocate": ["allocate", "profile.instance"],
    "nash-verify": ["nash-verify", "profile.instance"],
    "best-response-two-agent": [
        "best-response", "profile.instance", "--agent", "1", "--mode", "two-agent",
    ],
    "best-response-oracle": [
        "best-response", "profile.instance", "--agent", "1", "--mode", "oracle",
    ],
    "reduce": ["reduce", "ref.cnf", "--out", "ref"],
    "verify-reduction-patterns": ["verify-reduction", "ref.cnf", "--patterns"],
    "examples": ["examples"],
}


def _inputs(tmp_path):
    from seqalloc.golden import REFERENCE_FORMULA

    (tmp_path / "profile.instance").write_text(PROFILE)
    (tmp_path / "ref.cnf").write_text(REFERENCE_FORMULA)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_call_loads_no_class_machinery(tmp_path, name):
    _inputs(tmp_path)
    loaded = _modules_after("import seqalloc\n" + ENTRY_POINTS[name], tmp_path)
    assert not loaded & CLASS_MACHINERY, name


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_loads_no_class_machinery(tmp_path, command):
    _inputs(tmp_path)
    code = f"from seqalloc import cli\nstatus = cli.main({COMMANDS[command]!r})\nassert status == 0"
    assert not _modules_after(code, tmp_path) & CLASS_MACHINERY, command


def test_compiling_and_verifying_load_no_json(tmp_path):
    """Only ``GadgetRegistry.to_json`` needs ``json``; the check reads
    ``sys.modules`` before the ``import json`` that ``_modules_after`` adds."""
    code = (
        "import sys\n"
        "import seqalloc\n"
        "from seqalloc.golden import REFERENCE_FORMULA\n"
        "out = seqalloc.build_instance(seqalloc.parse_formula(REFERENCE_FORMULA))\n"
        "seqalloc.verify_choice_patterns(out)\n"
        "seqalloc.verify_forward(out, {1: True, 2: False, 3: False})\n"
        "assert 'json' not in sys.modules, 'json loaded'\n"
    )
    assert "seqalloc.reduction" in _modules_after(code, tmp_path)


def test_a_two_agent_query_loads_no_typing(tmp_path):
    """Under ``-S`` no site hook imports ``typing`` first, so this sees the
    package's own imports: every annotation is a string, and the names it
    uses come from ``collections.abc``."""
    _inputs(tmp_path)
    code = "import seqalloc\n" + ENTRY_POINTS["best_response"]
    assert "typing" not in _modules_after(code, tmp_path, flags=["-S"])
