"""Sequential allocation toolkit.

Picking-sequence simulation, exact best-response computation (polynomial
for two agents, branch and bound over target sets for any number), and a
compiler from restricted 3-CNF formulas to best-response instances.

Every public name loads its submodule on first use, so a two-agent query
never imports the search modules. A name is looked up in its submodule on
each access, never cached here, so a function patched on its submodule is
what the package hands out.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "engine": ("run_sequential_allocation", "run_with_report"),
    "model": (
        "Allocation",
        "BudgetExceededError",
        "Instance",
        "UtilityFunction",
        "ValidationError",
        "bundle_utility",
        "make_lexicographic_utilities",
        "validate_instance",
    ),
    "oracle": (
        "OracleResult",
        "brute_force_best_response",
        "count_achievable_bundles",
        "enumerate_achievable_bundles",
        "refuted_greedy_best_response",
    ),
    "reduction": (
        "ReductionOutput",
        "RestrictedFormula",
        "assignment_to_report",
        "build_instance",
        "parse_formula",
        "verify_choice_patterns",
        "verify_forward",
    ),
    "two_agent": (
        "best_response",
        "canonical_report",
        "is_achievable",
        "lexicographic_best_response",
        "verify_nash_two_agents",
    ),
}
_SUBMODULES = (*_EXPORTS, "instance_io", "golden")
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        home = _HOME[name]
        return getattr(sys.modules.get(home) or import_module(home), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({"__version__", *__all__, *_SUBMODULES})
