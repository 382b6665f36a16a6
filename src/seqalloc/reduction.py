"""Compiler from restricted 3-CNF formulas to best-response instances.

Input formulas are 3-CNF where every literal (each variable in each
polarity) occurs in exactly two clauses. The compiler emits an allocation
setting with one designated manipulator (agent "1") and a target utility T.
What is checked is one direction: every satisfying assignment's report
meets T (``verify_forward``), and of the 4^|X| choice patterns exactly the
consistent, satisfying ones do (``verify_choice_patterns``). The converse
is open: on the reference compile a report that encodes no assignment
yields 228,252,147,873 > T = 214,475,092,837, so reaching T does not yet
certify satisfiability.

Structure of the generated picking sequence: one choice round per variable
(the manipulator commits to a polarity by picking both choice items of one
literal), one 3-stage clause round per clause (agents opposed to the
clause's literals grab clause items unless kept busy), and a final
collection round of |C| manipulator turns for the top clause items.

A choice round is defined once, by the table of slots below: its items'
names and layout, its four literal agents and their heads, its stages, the
weights of its ten valued items, and the four picks of each kind of round.
The compiler, the ledger, the audit, the forward report and the pattern
sweep read positions from it, and the round's sizes are the table's
lengths.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import accumulate
from operator import gt, itemgetter

from .engine import PickState, run_with_report, stages_of
from .model import (
    DEFAULT_PATTERN_BUDGET,
    Allocation,
    BudgetExceededError,
    Instance,
    Record,
    UtilityFunction,
    ValidationError,
    bundle_utility,
    check_budget,
    integer_values,
    validate_instance,
)

MANIPULATOR = "1"


class FormulaError(ValidationError):
    """A formula that is not restricted 3-CNF, or malformed DIMACS text."""


class RestrictedFormula(Record):
    """3-CNF with every literal occurring exactly twice.

    Clauses are ordered triples of nonzero DIMACS-style integers; variable
    v appears as v (positive) or -v (negative).
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def variables(self) -> range:
        return range(1, self.num_vars + 1)

    def is_satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        return all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in self.clauses
        )

    def satisfying_assignments(self) -> list[dict[int, bool]]:
        """All satisfying assignments, by direct enumeration over 2^|X|."""
        out = []
        for bits in itertools.product([True, False], repeat=self.num_vars):
            assignment = {v: bits[v - 1] for v in self.variables()}
            if self.is_satisfied_by(assignment):
                out.append(assignment)
        return out


def _occurrences(clauses: Sequence[Sequence[int]]) -> dict[int, tuple[int, ...]]:
    occ: dict[int, list[int]] = {}
    for c, clause in enumerate(clauses, start=1):
        for lit in clause:
            occ.setdefault(lit, []).append(c)
    return {lit: tuple(rounds) for lit, rounds in occ.items()}


def validate_formula(num_vars: int, clauses: Sequence[Sequence[int]]) -> RestrictedFormula:
    problems = []
    if num_vars < 1:
        problems.append(f"formula has {num_vars} variables, expected at least 1")
    for idx, clause in enumerate(clauses, start=1):
        if len(clause) != 3:
            problems.append(f"clause {idx} has {len(clause)} literals, expected 3")
            continue
        if len({abs(l) for l in clause}) != 3:
            problems.append(f"clause {idx} repeats a variable")
        for lit in clause:
            if lit == 0 or abs(lit) > num_vars:
                problems.append(f"clause {idx} references unknown variable {lit}")
    if not problems and 3 * len(clauses) != 4 * num_vars:
        # 2|X| literals, twice each, fill the 3|C| places; one problem here
        # rather than a listing as long as the variables
        problems.append(
            f"formula has {len(clauses)} clauses for {num_vars} variables,"
            " expected 3|C| = 4|X| (each literal exactly twice)"
        )
    if not problems:
        occ = _occurrences(clauses)
        for v in range(1, num_vars + 1):
            for lit in (v, -v):
                c = len(occ.get(lit, ()))
                if c != 2:
                    problems.append(f"literal {lit} occurs {c} times, expected exactly 2")
    if problems:
        raise FormulaError(problems)
    return RestrictedFormula(num_vars, tuple(tuple(c) for c in clauses))


def parse_formula(text: str) -> RestrictedFormula:
    """Parse DIMACS CNF, then validate the exactly-twice restriction."""
    num_vars = None
    declared_clauses = None
    tokens: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise FormulaError([f"line {line_no}: duplicate problem line"])
            fields = line.split()
            malformed = FormulaError([f"line {line_no}: malformed problem line"])
            if len(fields) != 4 or fields[1] != "cnf" or not all(map(str.isdecimal, fields[2:])):
                raise malformed
            try:
                num_vars, declared_clauses = int(fields[2]), int(fields[3])
            except ValueError:  # a count of more digits than ``int`` converts
                raise malformed from None
            continue
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError:
            raise FormulaError([f"line {line_no}: unknown token"]) from None
        if num_vars is None:
            raise FormulaError([f"line {line_no}: clause before the problem line"])
    if num_vars is None:
        raise FormulaError(["missing 'p cnf' problem line"])
    clauses: list[list[int]] = []
    current: list[int] = []
    for t in tokens:
        if t == 0:
            clauses.append(current)
            current = []
        else:
            current.append(t)
    if current:
        clauses.append(current)
    if len(clauses) != declared_clauses:
        raise FormulaError(
            [f"problem line declares {declared_clauses} clauses, found {len(clauses)}"]
        )
    return validate_formula(num_vars, clauses)


# --- the choice round --------------------------------------------------------
#
# One table defines a variable's choice round; ``build_instance``, the ledger,
# the audit, the reports and the pattern sweep all read it. A round's items
# are laid out in slot order: the ten valued slots in the manipulator's order,
# then eight dummies. In a name, {p} stands for x_v and {n} for ~x_v.
_ROUND_ITEMS = (
    "o_{p}^1", "o_{n}^1", "o_{p}^2", "o_{n}^2",
    "h_{n}^1", "h_{n}^2", "h_{n}^3", "h_{p}^1", "h_{p}^2", "h_{p}^3",
    "d_{p}^11", "d_{p}^12", "d_{p}^21", "d_{p}^22",
    "d_{n}^11", "d_{n}^12", "d_{n}^21", "d_{n}^22",
)
# the valued slots' worths (a, e) = a * B + e for the round's scale B; the
# +1 separates each positive-literal choice item from its negative twin
_ROUND_WEIGHTS = (
    (100, 1), (100, 0), (90, 1), (90, 0),
    (60, 0), (45, 0), (31, 0), (30, 0), (15, 0), (1, 0),
)
# the four literal agents in agent order: name -> (literal sign, copy, head as
# slots); agent a_l^j chases the items of ~l and plays the j-th clause of ~l
_ROUND_AGENTS = {
    "a_{n}^1": (-1, 1, (0, 10, 11, 2, 7, 8, 9)),
    "a_{n}^2": (-1, 2, (12, 0, 2, 13, 7, 8, 9)),
    "a_{p}^1": (1, 1, (1, 14, 4, 3, 5, 6, 15)),
    "a_{p}^2": (1, 2, (16, 1, 3, 4, 5, 6, 17)),
}
_ROUND_STAGES = (
    MANIPULATOR, "a_{n}^1", "a_{n}^2", "a_{p}^1", "a_{p}^2",
    MANIPULATOR, "a_{n}^1", "a_{n}^2", "a_{p}^1", "a_{p}^2",
    "a_{n}^1", "a_{n}^2", MANIPULATOR, "a_{p}^1", "a_{p}^2", MANIPULATOR,
)
# the manipulator's four picks of each kind of round, in pick order: T and F
# are consistent (x_v true, false), I1 and I2 inconsistent; the pattern sweep
# tries the kinds in this order
_QUADRUPLES = {
    "T": (1, 3, 6, 7),
    "F": (0, 2, 4, 9),
    "I1": (0, 3, 5, 8),
    "I2": (1, 2, 5, 8),
}


def _named(templates: Sequence[str], v: int) -> list[str]:
    """The table's names filled in for variable v, by one ``format`` call
    (no name holds a NUL)."""
    return "\0".join(templates).format(p=f"x{v}", n=f"~x{v}").split("\0")


class RoundSpan(Record):
    kind: str  # "choice" | "clause" | "collection"
    label: str  # variable or clause name, "" for collection
    start: int  # 1-based stage, inclusive
    end: int


class GadgetRegistry(Record):
    """Names of every generated agent and item, keyed by formula element."""

    literal_agents: Mapping[tuple[int, int], str]  # (literal, copy) -> agent
    choice_items: Mapping[int, tuple[str, str]]  # literal -> (o^1, o^2)
    consistency_items: Mapping[int, tuple[str, str, str]]
    dummy_items: Mapping[int, tuple[str, str, str, str]]  # (d^11, d^12, d^21, d^22)
    clause_items: Mapping[int, tuple[str, str, str]]  # clause index -> (o^1, o^2, o^3)
    clause_agents: Mapping[int, tuple[str, str, str]]  # scheduled order per clause round
    occurrences: Mapping[int, tuple[int, int]]  # literal -> its two clause indices
    rounds: tuple[RoundSpan, ...]

    def to_json(self) -> str:
        import json  # only the registry file needs it; compiling and verifying do not

        doc = {
            "literal_agents": {f"{lit},{copy}": a for (lit, copy), a in self.literal_agents.items()},
            "choice_items": {str(k): v for k, v in self.choice_items.items()},
            "consistency_items": {str(k): v for k, v in self.consistency_items.items()},
            "dummy_items": {str(k): v for k, v in self.dummy_items.items()},
            "clause_items": {str(k): v for k, v in self.clause_items.items()},
            "clause_agents": {str(k): v for k, v in self.clause_agents.items()},
            "occurrences": {str(k): v for k, v in self.occurrences.items()},
            "rounds": [[r.kind, r.label, r.start, r.end] for r in self.rounds],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


class ReductionOutput(Record):
    formula: RestrictedFormula
    instance: Instance
    utility: UtilityFunction  # covers the manipulator only
    target: Fraction
    registry: GadgetRegistry


def build_instance(f: RestrictedFormula) -> ReductionOutput:
    """Compile the formula on item indices; the instance is validated and the
    utility ledger audited before returning.

    Items are laid out by position and each is named once: per variable its
    round's items in slot order, then three items per clause. That layout is
    the canonical item order. Every agent's preference is a head of item
    indices (each a table slot plus its round's first position) completed
    with the canonical order; the manipulator's head is the valued slots of
    every round, then the top clause items, and their worth row is built by
    index and becomes the utilities' integer row (scale 1).
    ``validate_instance`` still checks the named instance and
    ``audit_utilities`` the ledger.
    """
    occ = _occurrences(f.clauses)
    n_vars, n_clauses = f.num_vars, len(f.clauses)
    size, valued = len(_ROUND_ITEMS), len(_ROUND_WEIGHTS)
    first_clause = size * n_vars  # position of the first clause item
    m = first_clause + 3 * n_clauses
    explicit = valued * n_vars + n_clauses  # the manipulator's head
    round_worths, tops, target = _ledger(n_vars, n_clauses, m - explicit)
    bases = range(0, first_clause, size)  # each round's first position

    items: list[str] = []
    agents = [MANIPULATOR]
    sequence: list[str] = []
    rounds: list[RoundSpan] = []
    heads: dict[str, tuple[list[int], int]] = {}  # agent -> (head, its clause)
    literal_agents: dict[tuple[int, int], str] = {}
    choice: dict[int, tuple[str, str]] = {}
    consistency: dict[int, tuple[str, str, str]] = {}
    dummies: dict[int, tuple[str, str, str, str]] = {}

    for v, base in zip(f.variables(), bases):
        block = _named(_ROUND_ITEMS, v)
        items += block
        for a, (sign, copy, head) in zip(_named(_ROUND_AGENTS, v), _ROUND_AGENTS.values()):
            agents.append(a)
            literal_agents[(sign * v, copy)] = a
            heads[a] = [base + k for k in head], occ[-sign * v][copy - 1]
        start = len(sequence) + 1
        sequence += _named(_ROUND_STAGES, v)
        rounds.append(RoundSpan("choice", f"x{v}", start, len(sequence)))
        choice[-v], choice[v] = (block[1], block[3]), (block[0], block[2])
        consistency[-v], consistency[v] = tuple(block[4:7]), tuple(block[7:valued])
        dummies[v], dummies[-v] = tuple(block[valued : valued + 4]), tuple(block[valued + 4 :])

    clause_items: dict[int, tuple[str, str, str]] = {}
    clause_agents: dict[int, tuple[str, str, str]] = {}
    for c, clause in enumerate(f.clauses, start=1):
        clause_items[c] = (f"o_c{c}^1", f"o_c{c}^2", f"o_c{c}^3")
        items += clause_items[c]
        # copy 1 of a literal's opponents plays its first clause, copy 2 its second
        clause_agents[c] = tuple(
            literal_agents[(-lit, 1 if occ[lit][0] == c else 2)] for lit in clause
        )
        start = len(sequence) + 1
        sequence += clause_agents[c]
        rounds.append(RoundSpan("clause", f"c{c}", start, len(sequence)))
    start = len(sequence) + 1
    sequence += [MANIPULATOR] * n_clauses
    rounds.append(RoundSpan("collection", "", start, len(sequence)))

    # a literal agent's head ends with its clause block o_c^3, o_c^2, o_c^1
    manip_head = [base + k for base in bases for k in range(valued)]
    manip_head += range(first_clause, m, 3)
    prefs = {MANIPULATOR: _complete(manip_head, items)}
    for a, (head, c) in heads.items():
        top = first_clause + 3 * (c - 1)
        prefs[a] = _complete(head + [top + 2, top + 1, top], items)
    instance = validate_instance(items, agents, prefs, sequence)

    # the manipulator's worth by index: the tail t..1 along their order, each
    # round's valued slots their ledger worths, then the top clause items
    worth = [0] * m
    tail = _complete(manip_head, range(m))[explicit:]
    for k, pos in enumerate(tail):
        worth[pos] = len(tail) - k
    for base, values in zip(bases, round_worths):
        worth[base : base + valued] = values
    worth[first_clause::3] = tops
    utility = UtilityFunction({MANIPULATOR: dict(zip(items, worth))})
    registry = GadgetRegistry(
        literal_agents=literal_agents, choice_items=choice, consistency_items=consistency,
        dummy_items=dummies, clause_items=clause_items, clause_agents=clause_agents,
        occurrences=occ, rounds=tuple(rounds),
    )
    out = ReductionOutput(f, instance, utility, Fraction(target), registry)
    audit_utilities(out)  # every build re-checks the utility ledger
    return out


def _complete(head: list[int], order: Sequence) -> tuple:
    """``order`` at the positions of ``head``, then the rest of ``order`` in
    order: the gaps between the sorted head positions, taken as slices."""
    row = [order[k] for k in head]
    start = 0
    for k in sorted(head):
        row += order[start:k]
        start = k + 1
    row += order[start:]
    return tuple(row)


# --- manipulator utility ---------------------------------------------------


def _ledger(n_vars: int, n_clauses: int, t: int) -> tuple[list[list[int]], list[int], int]:
    """The construction's integer ledger: each round's valued-slot worths in
    variable order, the top clause items' values in clause order, and T.

    Scales are built bottom-up: the ``t`` tail items are worth t..1 along
    the manipulator's preference (the caller assigns them), clause items sit
    just above the whole tail, and each choice round's scale exceeds the
    total value of everything below it (with margin 2|X| for the epsilon
    bonuses), so a lost round or clause item can never be compensated later.
    """
    tail_sum = t * (t + 1) // 2
    W = tail_sum + 2 * n_vars + 3
    tops = [W + (n_clauses - c) for c in range(1, n_clauses + 1)]
    below = tail_sum + sum(tops)
    target = sum(tops)
    rounds = []
    for _ in range(n_vars):
        B = below + 2 * n_vars + 3
        values = [a * B + e for a, e in _ROUND_WEIGHTS]
        below += sum(values)
        # each round guarantees the value of its cheaper consistent branch
        target += sum(values[k] for k in _QUADRUPLES["T"])
        rounds.append(values)
    return rounds[::-1], tops, target


def _check(ok: bool, message: str) -> None:
    """An audit check that, unlike ``assert``, also runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def audit_utilities(out: ReductionOutput) -> None:
    """Re-check every inequality the construction relies on.

    Works on the manipulator's values scaled to integers over their common
    denominator ``scale``, so every constant compared with a value is scaled
    too. Raises AssertionError with a named inequality on any failure, and
    ValidationError if the utilities miss an item.
    """
    f = out.formula
    pref = out.instance.preferences[MANIPULATOR]
    row, scale = integer_values(out.utility, MANIPULATOR, pref)

    # strict decrease along the manipulator's full preference order; the
    # first pair that breaks it is named
    if not all(map(gt, row, row[1:])):
        k = next(k for k, (a, b) in enumerate(zip(row, row[1:])) if a <= b)
        raise AssertionError(f"order violated at {pref[k]} vs {pref[k + 1]}")
    _check(row[-1] > 0, "non-positive utility")  # the last value is the least

    size, valued = len(_ROUND_ITEMS), len(_ROUND_WEIGHTS)
    first_clause = size * f.num_vars
    explicit = valued * f.num_vars + len(f.clauses)
    tail = row[explicit:]
    eps_total = 2 * f.num_vars * scale
    ascending = row[::-1]  # sorted, since the row strictly decreases
    ascending_sum = list(accumulate(ascending, initial=0))  # [j]: total of the j smallest
    # the gadget's values by item layout, which need not follow the preference
    worth = integer_values(out.utility, MANIPULATOR, out.instance.items)[0]

    for v, base in zip(f.variables(), range(0, first_clause, size)):
        # the valued slots: x's and ~x's o^1, o^2, then h_~x^1..3 and h_x^1..3
        round_worths = worth[base : base + valued]
        o1p, o1n, o2p, o2n, hn1, hn2, hn3, hp1, hp2, hp3 = round_worths
        B = hp3
        # near-ties between a literal's items and its negation's
        _check(0 < o1p - o1n <= eps_total, f"x{v}: o^1 twins not nearly tied")
        _check(0 < o2p - o2n <= eps_total, f"x{v}: o^2 twins not nearly tied")
        _check(o1n - o2p >= B, f"x{v}: o^1 items do not dominate o^2 items")
        # consistency ordering h_~x^1 > h_~x^2 > h_~x^3 > h_x^1 > h_x^2 > h_x^3
        ordered = [hn1, hn2, hn3, hp1, hp2, hp3]
        _check(all(a > b for a, b in zip(ordered, ordered[1:])), f"x{v}: h order violated")
        # the two consistent pairs tie and beat the inconsistent pair
        pairs_ok = hp2 + hn2 < hn1 + hp3 == hp1 + hn3
        _check(pairs_ok, f"x{v}: consistency pair inequality violated")
        # inter-round dominance: one unit of this round's scale exceeds the
        # total value of everything below it, epsilon bonuses included
        round_min = min(round_worths)
        below = ascending_sum[bisect_left(ascending, round_min)]
        _check(round_min - eps_total > below, f"x{v}: round scale does not dominate later items")

    # top clause items dominate everything the collection round could scrape up
    tops = worth[first_clause::3]
    for c, top in enumerate(tops, 1):
        _check(top - eps_total > tail[0], f"c{c}: top clause item does not dominate leftovers")
    _check(min(tops) > sum(tail), "clause scale does not dominate the tail")


# --- report construction and verification ----------------------------------


def _quadruple_indices(num_vars: int) -> list[dict[str, list[int]]]:
    """Per choice round, each kind's four picks as item indices, in pick
    order (see ``_QUADRUPLES``)."""
    size = len(_ROUND_ITEMS)
    return [
        {kind: [base + k for k in quad] for kind, quad in _QUADRUPLES.items()}
        for base in range(0, size * num_vars, size)
    ]


def _pattern_report(out: ReductionOutput, kinds: Sequence[str]) -> tuple[str, ...]:
    n_vars, items = out.formula.num_vars, out.instance.items
    head = [o for quad, kind in zip(_quadruple_indices(n_vars), kinds) for o in quad[kind]]
    head += range(len(_ROUND_ITEMS) * n_vars, len(items), 3)  # the top clause items
    return _complete(head, items)


def assignment_to_report(
    out: ReductionOutput, assignment: Mapping[int, bool]
) -> tuple[str, ...]:
    """Manipulator report realizing a truth assignment.

    Per choice round the report leads with the four items of the matching
    consistent branch, then all top clause items in clause order, then the
    remaining items canonically.
    """
    variables = out.formula.variables()
    missing = [v for v in variables if v not in assignment]
    extra = [v for v in assignment if v not in variables]
    problems = [f"assignment is not total, missing variables {missing}"] if missing else []
    if extra:
        problems.append(f"assignment is not over x1..x{len(variables)}, extra variables {extra}")
    if problems:
        raise ValidationError(problems)
    kinds = ["T" if assignment[v] else "F" for v in variables]
    return _pattern_report(out, kinds)


class ForwardResult(Record):
    utility: Fraction
    meets_target: bool
    allocation: Allocation
    manipulator_bundle: frozenset[str]


def verify_forward(out: ReductionOutput, assignment: Mapping[int, bool]) -> ForwardResult:
    """Replay an assignment's report and compare the utility against T."""
    alloc = run_with_report(out.instance, MANIPULATOR, assignment_to_report(out, assignment))
    bundle = alloc.bundles[MANIPULATOR]
    utility = bundle_utility(out.utility, MANIPULATOR, bundle)
    return ForwardResult(utility, utility >= out.target, alloc, bundle)


class PatternOutcome(Record):
    kinds: tuple[str, ...]
    utility: Fraction
    meets_target: bool
    consistent: bool
    assignment: dict[int, bool] | None  # only for consistent patterns
    satisfies: bool | None


class PatternReport(Record):
    outcomes: tuple[PatternOutcome, ...]
    satisfiable: bool  # via the structured patterns
    sat_enumeration_agrees: bool  # cross-check against direct 2^|X| enumeration


def _check_pattern_budget(num_vars: int, max_patterns: int) -> None:
    """ValidationError for a negative budget; BudgetExceededError if the
    4^|X| choice patterns of a formula over ``num_vars`` variables exceed it.
    The CLI calls this before compiling the formula, so that the quadratic
    compile of a formula too large to sweep is never made."""
    check_budget("max_patterns", max_patterns)
    total = 4 ** num_vars
    if total > max_patterns:
        try:
            count = str(total)
        except ValueError:  # more digits than the interpreter converts
            count = f"4^{num_vars}"
        raise BudgetExceededError(
            f"{count} patterns exceed the budget {max_patterns}",
            limit=max_patterns, used=total, unit="patterns",
        )


def verify_choice_patterns(
    out: ReductionOutput, max_patterns: int = DEFAULT_PATTERN_BUDGET
) -> PatternReport:
    """Replay every combination of per-round choices and audit the outcomes.

    Checks that (a) inconsistent rounds leave the manipulator with exactly
    the middle consistency pair of that variable and (b) the target is met
    exactly by consistent patterns whose induced assignment satisfies the
    formula. Raises RuntimeError on any violation. The sweep runs on item
    indices: the rounds' quadruples, the top clause items and the consistency
    sets are built once per call, and names only for an error message.

    Each pattern resumes from a saved ``PickState`` instead of stage 0. The
    choice rounds are the first blocks of ``len(_ROUND_STAGES)`` stages, and
    the sweep keeps the state at each one's start. The manipulator's row is
    the rounds' quadruples in order, then the top clause items, then every
    item. The sweep replays a private copy of the instance's held encoding
    whose manipulator row it rewrites in place: patterns come in base-4
    order, round 1 the most significant digit, so the first round whose kind
    changed from the previous pattern is fixed by the pattern's index (its
    count of trailing zero digits), and only the quadruples from that round
    r on are rewritten. The row below position 4r is the previous pattern's.
    ``advance`` reads the row only below the cursor, and every item there is
    already taken. So a saved state whose manipulator cursor is at most 4r
    is the state that a replay from stage 0 reaches, and the pattern
    resumes from the latest such state, stepping r down otherwise. On the
    gadget the cursor at round r's start is exactly 4r; it is greater only
    if one of the manipulator's picks was taken before its turn. The rounds
    from there on are replayed once, each saving the next round's start
    state. Only the inconsistent rounds' consistency checks are visited.
    """
    f = out.formula
    _check_pattern_budget(f.num_vars, max_patterns)
    items = out.instance.items
    worth, scale = integer_values(out.utility, MANIPULATOR, items)
    need = math.ceil(out.target * scale)  # an integer worth meets T iff it reaches this
    shared = out.instance.encoded
    manip = shared.agent_index[MANIPULATOR]
    mine_of = itemgetter(*stages_of(shared.seq, manip))
    size, span, width = len(_ROUND_ITEMS), len(_ROUND_STAGES), len(_QUADRUPLES["T"])
    quads = _quadruple_indices(f.num_vars)
    # the quadruples (rewritten for each pattern), the top clause items, then
    # every item; an item listed twice is taken before the scan reaches its
    # second place
    row = [o for quad in quads for o in quad["T"]]
    row += range(size * f.num_vars, len(items), 3)
    row += range(len(items))
    enc = shared.with_row(manip, row)
    # per round: its six consistency items and the middle pair that an
    # inconsistent choice must leave the manipulator with
    six = [k for k, name in enumerate(_ROUND_ITEMS) if name.startswith("h_")]
    pair = [_ROUND_ITEMS.index(name) for name in ("h_{n}^2", "h_{p}^2")]
    checks = [
        (v, frozenset(base + k for k in six), {base + k for k in pair})
        for v, base in zip(f.variables(), range(0, size * f.num_vars, size))
    ]
    last = f.num_vars - 1
    # the state at each choice round's start; the first pattern sets rounds 1 on
    snaps = [PickState(enc)] * f.num_vars
    picks = [0] * len(enc.seq)  # the item taken at each stage
    outcomes = []
    pattern_sat = False
    # each round's kinds in table order, the last round's digit changing fastest
    for index, kinds in enumerate(itertools.product(_QUADRUPLES, repeat=f.num_vars)):
        # the first round whose kind changed (0 for the first pattern)
        r = last - ((index & -index).bit_length() - 1) // 2 if index else 0
        for k in range(r, f.num_vars):
            row[width * k : width * (k + 1)] = quads[k][kinds[k]]
        while snaps[r].cursor[manip] > width * r:
            r -= 1
        state = snaps[r]
        for k in range(r, last):
            state = state.copy()
            picks[span * k : span * (k + 1)] = state.advance(span * (k + 1))
            snaps[k + 1] = state
        state = state.copy()
        picks[span * last :] = state.advance(len(picks))
        mine = mine_of(picks)
        worth_sum = sum(map(worth.__getitem__, mine))
        utility, meets = Fraction(worth_sum, scale), worth_sum >= need
        inconsistent = [check for check, k in zip(checks, kinds) if k not in ("T", "F")]
        assignment = satisfies = None
        if not inconsistent:
            assignment = {v: k == "T" for v, k in zip(f.variables(), kinds)}
            satisfies = f.is_satisfied_by(assignment)
            if meets != satisfies:
                raise RuntimeError(
                    f"pattern {kinds}: meets_target={meets} but satisfies={satisfies}"
                )
            pattern_sat = pattern_sat or meets
        else:
            for v, six, pair in inconsistent:
                got = six.intersection(mine)
                if got != pair:
                    got, pair = (sorted(items[o] for o in s) for s in (got, pair))
                    raise RuntimeError(
                        f"pattern {kinds}: round x{v} consistency items {got},"
                        f" expected exactly {pair}"
                    )
            if meets:
                raise RuntimeError(f"inconsistent pattern {kinds} meets the target")
        outcomes.append(
            PatternOutcome(kinds, utility, meets, not inconsistent, assignment, satisfies)
        )
    direct_sat = bool(f.satisfying_assignments())
    return PatternReport(tuple(outcomes), pattern_sat, pattern_sat == direct_sat)
