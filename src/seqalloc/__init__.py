"""Sequential allocation toolkit.

Picking-sequence simulation, exact best-response computation (polynomial
for two agents, branch and bound over target sets for any number), and a
compiler from restricted 3-CNF formulas to best-response instances.
"""

from .engine import run_sequential_allocation, run_with_report
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    UtilityFunction,
    ValidationError,
    bundle_utility,
    make_lexicographic_utilities,
    validate_instance,
)
from .oracle import (
    OracleResult,
    brute_force_best_response,
    enumerate_achievable_bundles,
    refuted_greedy_best_response,
)
from .reduction import (
    ReductionOutput,
    RestrictedFormula,
    assignment_to_report,
    build_instance,
    parse_formula,
    verify_choice_patterns,
    verify_forward,
)
from .two_agent import (
    achievability_certificate,
    best_response,
    canonical_report,
    is_achievable,
    lexicographic_best_response,
    verify_nash_two_agents,
)

__version__ = "0.1.0"
