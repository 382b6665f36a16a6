import copy
import pickle
import random
from collections.abc import Mapping
from fractions import Fraction
from math import lcm

import pytest

from seqalloc.engine import run_sequential_allocation, run_with_report
from seqalloc.golden import REFERENCE_FORMULA
from seqalloc.instance_io import parse_instance, serialize_instance
from seqalloc.model import (
    Allocation,
    Encoded,
    Instance,
    Record,
    UtilityFunction,
    ValidationError,
    bundle_utility,
    make_lexicographic_utilities,
    order_from_utilities,
    validate_instance,
    validate_utilities,
)
from seqalloc.oracle import OracleResult, brute_force_best_response
from seqalloc.reduction import (
    ForwardResult,
    GadgetRegistry,
    PatternOutcome,
    PatternReport,
    ReductionOutput,
    RestrictedFormula,
    RoundSpan,
    build_instance,
    parse_formula,
    verify_choice_patterns,
    verify_forward,
)
from seqalloc.two_agent import NashEvidence

from conftest import encoded_view, random_consistent_utilities, random_instance


def small():
    return validate_instance(
        items=["a", "b", "c"],
        agents=["1", "2"],
        preferences={"1": ["a", "b", "c"], "2": ["c", "b", "a"]},
        sequence=["1", "2", "1"],
    )


def test_validate_accepts_well_formed():
    inst = small()
    assert inst.items == ("a", "b", "c")
    assert inst.turns("1") == 2 and inst.turns("2") == 1


def test_validate_collects_all_problems():
    with pytest.raises(ValidationError) as exc:
        validate_instance(
            items=["a", "a", "b"],
            agents=["1", "2"],
            preferences={"1": ["a", "b"]},
            sequence=["1", "3", "1", "1"],
        )
    problems = exc.value.problems
    assert any("duplicate item" in p for p in problems)
    assert any("agent 2 has no preference" in p for p in problems)
    assert any("unknown agent 3" in p for p in problems)
    assert any("sequence exceeds item count" in p for p in problems)
    with pytest.raises(ValidationError) as exc:
        validate_instance([], [], {}, [])
    assert exc.value.problems == ["no agents", "no items"]


def test_validate_flags_incomplete_preference():
    with pytest.raises(ValidationError, match="incomplete preference for agent 2"):
        validate_instance(
            items=["a", "b"],
            agents=["1", "2"],
            preferences={"1": ["a", "b"], "2": ["a"]},
            sequence=["1"],
        )


def test_validate_flags_non_permutation():
    with pytest.raises(ValidationError, match="not a permutation"):
        validate_instance(
            items=["a", "b"],
            agents=["1"],
            preferences={"1": ["a", "a"]},
            sequence=["1"],
        )


def test_sequence_may_be_shorter_than_item_count():
    inst = validate_instance(
        items=["a", "b", "c"],
        agents=["1"],
        preferences={"1": ["a", "b", "c"]},
        sequence=["1"],
    )
    assert len(inst.sequence) == 1


def test_with_preference_replaces_one_agent():
    inst = small()
    swapped = inst.with_preference("1", ["c", "b", "a"])
    assert swapped.preferences["1"] == ("c", "b", "a")
    assert swapped.preferences["2"] == inst.preferences["2"]
    with pytest.raises(ValidationError):
        inst.with_preference("1", ["a", "b"])
    # the current order replaces nothing, so nothing is copied
    assert inst.with_preference("1", list(inst.preferences["1"])) is inst


def test_a_report_re_encodes_one_row():
    """Once an instance holds its encoding, each ``with_preference`` copy
    holds the encoding that a fresh ``Encoded`` of the copy gives, for every
    agent, and the instance's own stays as it was."""
    rng = random.Random(36)
    for _ in range(60):
        inst = random_instance(rng, n=rng.randint(1, 4), m=rng.randint(1, 9))
        held = inst.encoded
        before = copy.deepcopy(encoded_view(held))
        for agent in inst.agents:
            twin = inst.with_preference(agent, rng.sample(inst.items, len(inst.items)))
            assert encoded_view(twin.encoded) == encoded_view(Encoded(twin))
        assert inst.encoded is held and encoded_view(held) == before


@pytest.fixture
def encodings(monkeypatch):
    """The instances that an ``Encoded`` is built from, in order."""
    built = []
    init = Encoded.__init__

    def counted(self, inst):
        built.append(inst)
        init(self, inst)

    monkeypatch.setattr(Encoded, "__init__", counted)
    return built


def test_only_a_replay_encodes(encodings):
    """Parsing, validating, compiling and copying build no encoding; the
    first replay builds the one the instance then holds, and a report on it
    builds no second one."""
    inst = small()
    text = serialize_instance(inst, make_lexicographic_utilities(inst.preferences))
    parse_instance(text)
    out = build_instance(parse_formula(REFERENCE_FORMULA))
    twin = inst.with_preference("1", ["c", "a", "b"])
    assert encodings == []
    first = run_sequential_allocation(inst)
    assert run_sequential_allocation(inst) == first and encodings == [inst]
    run_with_report(inst, "2", ["a", "b", "c"])
    verify_choice_patterns(out)
    verify_forward(out, {1: True, 2: False, 3: False})
    run_sequential_allocation(twin)
    assert encodings == [inst, out.instance, twin]
    assert encoded_view(inst.encoded) == encoded_view(Encoded(inst))


def test_a_report_encodes_its_source(encodings):
    """A report on a never-replayed instance builds the source's encoding,
    which the copy derives its own from, and a later replay of the source
    builds none."""
    inst = small()
    run_with_report(inst, "2", ["a", "b", "c"])
    run_sequential_allocation(inst)
    assert encodings == [inst]


def test_a_replayed_instance_is_like_one_never_replayed(encodings):
    """The held encoding is no field: equality, repr, copy, deepcopy and
    pickle see only the fields."""
    replayed, fresh = small(), small()
    run_sequential_allocation(replayed)
    assert replayed == fresh and fresh == replayed
    assert repr(replayed) == repr(fresh)
    for make_copy in (copy.copy, copy.deepcopy):
        twin = make_copy(replayed)
        assert twin == fresh and twin.encoded is not replayed.encoded
    assert pickle.dumps(replayed) == pickle.dumps(fresh)
    swept, compiled = (build_instance(parse_formula(REFERENCE_FORMULA)) for _ in range(2))
    verify_choice_patterns(swept)
    assert encodings[-1] is swept.instance
    assert swept == compiled and repr(swept) == repr(compiled)
    assert pickle.dumps(swept.instance) == pickle.dumps(compiled.instance)


def test_forward_checks_encode_the_compile_once(encodings):
    """On a compile that no sweep has encoded, the first forward check
    builds the compile's own encoding, and every report re-encodes only the
    manipulator's row from it."""
    out = build_instance(parse_formula(REFERENCE_FORMULA))
    first = verify_forward(out, {1: True, 2: False, 3: False})
    second = verify_forward(out, {1: False, 2: False, 3: True})
    assert encodings == [out.instance]
    assert first.meets_target and second.meets_target


def test_a_checked_utility_function_is_like_an_unchecked_one():
    """The orders a utility function's rows were checked against are no
    field: equality, hash, repr, copy, deepcopy and pickle see only the
    rows, and a copy checks its rows afresh."""
    inst = small()
    rows = {a: {o: 3 - k for k, o in enumerate(inst.preferences[a])} for a in inst.agents}
    _, checked = parse_instance(serialize_instance(inst, UtilityFunction(rows)))
    validate_utilities(checked, inst)
    unchecked = UtilityFunction(rows)
    assert checked == unchecked and unchecked == checked
    assert repr(checked) == repr(unchecked)
    for u in (checked, unchecked):  # a row is a dict, so neither hashes
        with pytest.raises(TypeError, match="unhashable"):
            hash(u)
    for make_copy in (copy.copy, copy.deepcopy, lambda u: pickle.loads(pickle.dumps(u))):
        twin = make_copy(checked)
        assert twin == unchecked and vars(twin) == vars(unchecked)
    assert pickle.dumps(checked) == pickle.dumps(unchecked)


def test_lexicographic_utilities_dominate_suffixes():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(rng, n=2, m=6)
        u = make_lexicographic_utilities(inst.preferences)
        validate_utilities(u, inst)
        for agent in inst.agents:
            order = inst.preferences[agent]
            for k in range(len(order)):
                suffix = bundle_utility(u, agent, order[k + 1 :])
                assert u.of(agent, order[k]) > suffix


def test_validate_utilities_rejects_inconsistent_order():
    inst = small()
    u = UtilityFunction({"1": {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3)}})
    with pytest.raises(ValidationError, match="not strictly decreasing"):
        validate_utilities(u, inst)


def test_validate_utilities_rejects_nonpositive():
    inst = small()
    u = UtilityFunction({"1": {"a": Fraction(2), "b": Fraction(1), "c": Fraction(0)}})
    with pytest.raises(ValidationError, match="non-positive"):
        validate_utilities(u, inst)


def test_random_consistent_utilities_pass_validation():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_instance(rng, n=3, m=7)
        agent = rng.choice(inst.agents)
        validate_utilities(random_consistent_utilities(rng, inst, agent), inst)


def test_order_from_utilities_roundtrip():
    rng = random.Random(13)
    for _ in range(25):
        inst = random_instance(rng, n=2, m=6)
        agent = rng.choice(inst.agents)
        u = random_consistent_utilities(rng, inst, agent)
        assert order_from_utilities(u, agent, inst.items) == inst.preferences[agent]


def test_order_from_utilities_rejects_ties():
    u = UtilityFunction({"1": {"a": Fraction(1), "b": Fraction(1)}})
    with pytest.raises(ValidationError, match="equally"):
        order_from_utilities(u, "1", ("a", "b"))


def test_bundle_utility_is_additive():
    inst = small()
    u = random_consistent_utilities(random.Random(3), inst, "1")
    total = bundle_utility(u, "1", ["a", "b", "c"])
    assert total == sum(u.of("1", o) for o in "abc")
    assert bundle_utility(u, "1", []) == 0


def test_allocation_helpers():
    alloc = Allocation(
        bundles={"1": frozenset({"a"}), "2": frozenset({"c"})},
        trace=((1, "1", "a"), (2, "2", "c")),
    )
    inst = small()
    assert alloc.holder_of("a") == "1"
    assert alloc.holder_of("b") is None
    assert alloc.matrix(inst) == [[1, 0, 0], [0, 0, 1]]


def _utilities_of_1(values):
    """Agent 1's utilities on ``small()``'s items a, b, c (its order a > b > c)."""
    return UtilityFunction({"1": {o: Fraction(v) for o, v in zip("abc", values)}})


def test_validate_utilities_compares_mixed_denominators_exactly():
    inst = small()
    validate_utilities(_utilities_of_1(["5/6", "1/2", "1/3"]), inst)
    with pytest.raises(ValidationError) as exc:
        validate_utilities(_utilities_of_1(["1/2", "5/6", "1/3"]), inst)
    assert exc.value.problems == ["utilities of agent 1 not strictly decreasing at a vs b"]


def test_validate_utilities_sees_a_tie_in_any_spelling():
    inst = small()
    u = _utilities_of_1(["5/6", "2/4", "1/2"])
    with pytest.raises(ValidationError) as exc:
        validate_utilities(u, inst)
    assert exc.value.problems == ["utilities of agent 1 not strictly decreasing at b vs c"]
    with pytest.raises(ValidationError) as exc:
        order_from_utilities(u, "1", inst.items)
    assert exc.value.problems == ["agent 1 values b and c equally; induced order is not strict"]


def test_validate_utilities_lists_problems_in_order():
    inst = small()
    u = UtilityFunction(
        {
            "1": {"a": Fraction(-1, 3), "b": Fraction(1, 2), "c": Fraction(2, 4)},
            "2": {"c": Fraction(5, 6), "b": Fraction(1, 3), "a": Fraction(0)},
            "3": {"a": Fraction(1)},
        }
    )
    with pytest.raises(ValidationError) as exc:
        validate_utilities(u, inst)
    assert exc.value.problems == [
        "non-positive utility for agent 1, item a",
        "utilities of agent 1 not strictly decreasing at a vs b",
        "utilities of agent 1 not strictly decreasing at b vs c",
        "non-positive utility for agent 2, item a",
        "utilities given for unknown agent 3",
    ]


def _fraction_sorted_order(u, agent, items):
    """The reference induced order: sort by negated ``Fraction`` values."""
    vals = u.values[agent]
    ranked = sorted(items, key=lambda o: -vals[o])
    for a, b in zip(ranked, ranked[1:]):
        if vals[a] == vals[b]:
            return f"agent {agent} values {a} and {b} equally; induced order is not strict"
    return tuple(ranked)


def test_order_from_utilities_matches_fraction_sort():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        items = tuple(f"o{k}" for k in range(rng.randint(1, 8)))
        vals = {o: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for o in items}
        u = UtilityFunction({"1": vals})
        expected = _fraction_sorted_order(u, "1", items)
        try:
            got = order_from_utilities(u, "1", items)
        except ValidationError as exc:
            (got,) = exc.problems
        assert got == expected, vals
        outcomes.add(type(expected))
    assert outcomes == {tuple, str}


def test_bundle_utility_sums_mixed_denominators():
    total = bundle_utility(_utilities_of_1(["1/3", "1/6", "2"]), "1", ["a", "b", "c"])
    assert total == Fraction(5, 2) and type(total) is Fraction
    assert (total.numerator, total.denominator) == (5, 2)


def test_bundle_utility_of_the_empty_bundle_is_fraction_zero():
    total = bundle_utility(_utilities_of_1(["1/3", "1/6", "2"]), "1", [])
    assert total == Fraction(0) and type(total) is Fraction


def test_bundle_utility_rejects_unknown_items():
    with pytest.raises(KeyError):
        bundle_utility(_utilities_of_1(["1/3", "1/6", "2"]), "1", ["a", "zz"])


def test_bundle_utility_matches_fraction_sum():
    rng = random.Random(29)
    for _ in range(300):
        items = [f"o{k}" for k in range(rng.randint(1, 10))]
        vals = {o: Fraction(rng.randint(1, 40), rng.randint(1, 40)) for o in items}
        bundle = rng.sample(items, rng.randint(0, len(items)))
        total = bundle_utility(UtilityFunction({"1": vals}), "1", bundle)
        assert total == sum((vals[o] for o in bundle), Fraction(0)), (vals, bundle)
        assert type(total) is Fraction


def test_with_preference_rejects_unknown_agent():
    inst = small()
    with pytest.raises(ValidationError) as exc:
        inst.with_preference("9", ["a", "b", "c"])
    assert exc.value.problems == ["unknown agent 9"]
    # the agent is checked first, so a bad order for an unknown agent says so
    with pytest.raises(ValidationError, match="^unknown agent 9$"):
        inst.with_preference("9", ["a"])


def _sorted_problems(items, agents, prefs, sequence):
    """Reference problem list of ``validate_instance``: every preference
    compared with the item list as sorted lists, and every agent looked up
    by a scan of the ``agents`` list."""
    problems = []
    if len(set(items)) != len(items):
        problems.append("duplicate item ids")
    if len(set(agents)) != len(agents):
        problems.append("duplicate agent ids")
    if set(items) & set(agents):
        problems.append("item and agent ids overlap")
    for a in agents:
        if a not in prefs:
            problems.append(f"agent {a} has no preference list")
        elif sorted(prefs[a]) != sorted(items):
            if set(prefs[a]) <= set(items) and len(set(prefs[a])) == len(prefs[a]):
                problems.append(f"incomplete preference for agent {a}")
            else:
                problems.append(f"preference of agent {a} is not a permutation of the item set")
    problems += [f"preference given for unknown agent {a}" for a in prefs if a not in agents]
    problems += [f"sequence references unknown agent {a}" for a in sequence if a not in agents]
    if len(sequence) > len(items):
        problems.append("sequence exceeds item count")
    if not agents:
        problems.append("no agents")
    if not items:
        problems.append("no items")
    return problems


def test_agent_checks_match_tuple_scan_reference():
    """Unknown agents in the sequence, preferences for unknown agents, and
    duplicate or overlapping ids: the same problems, in the same order, as
    the reference that scans the agents list for every lookup."""
    rng = random.Random(72)
    seen = dict.fromkeys(
        ["sequence references unknown", "preference given for unknown", "duplicate agent", "overlap"], 0
    )
    for _ in range(400):
        m = rng.randint(1, 5)
        items = [f"o{k}" for k in range(m)]
        agents = [str(i) for i in range(1, rng.randint(1, 4) + 1)]
        pool = agents + ["7", "8", "o0"]  # known agents, unknown agents, an item id
        if rng.random() < 0.4:  # a duplicate, a new or an overlapping agent id
            agents.append(rng.choice(pool))
            rng.shuffle(agents)
        prefs = {a: rng.sample(items, m) for a in agents}
        for a in rng.sample(pool, rng.randint(0, 2)):
            prefs.setdefault(a, rng.sample(items, m))
        sequence = [rng.choice(pool) for _ in range(rng.randint(0, m))]
        expected = _sorted_problems(items, agents, prefs, sequence)
        try:
            validate_instance(items, agents, prefs, sequence)
            problems = []
        except ValidationError as err:
            problems = err.problems
        assert problems == expected, (agents, prefs, sequence)
        for key in seen:
            seen[key] += any(key in p for p in expected)
    assert min(seen.values()) >= 30, seen


def _mangled_order(rng, items, case=None):
    """A shuffled copy of ``items``, then maybe one item missing, unknown or
    repeated; ``case`` names the mangling, or one is drawn."""
    order = rng.sample(items, len(items))
    case = case or rng.choice(["valid", "valid", "missing", "unknown", "repeated", "extra"])
    if case == "missing" and order:
        order.pop(rng.randrange(len(order)))
    elif case == "unknown":
        order[rng.randrange(len(order))] = "zz"
    elif case == "repeated" and len(order) > 1:
        order[0] = order[1]
    elif case == "extra":
        order.append(rng.choice(order + ["zz"]))
    return order


def _check_permutation_case(rng, items, cases, pref_case=None, replacement_case=None):
    """``validate_instance`` on mangled preferences against
    ``_sorted_problems``, then ``with_preference`` on a valid instance (or
    one with duplicate item ids) against a sorted comparison."""
    agents = ["1", "2", "3"][: rng.randint(1, 3)]
    prefs = {a: _mangled_order(rng, items, pref_case) for a in agents}
    sequence = [rng.choice(agents) for _ in range(rng.randint(1, len(items)))]
    expected = _sorted_problems(items, agents, prefs, sequence)
    try:
        inst = validate_instance(items, agents, prefs, sequence)
        problems = []
    except ValidationError as err:
        problems = err.problems
    assert problems == expected, (items, prefs)
    if "duplicate item ids" in expected:
        cases["duplicate ids"] += 1
        inst = Instance(tuple(items), tuple(agents), prefs, tuple(sequence))
    elif expected:
        cases["invalid"] += 1
        return
    else:
        cases["valid"] += 1
    order = _mangled_order(rng, items, replacement_case)
    agent = rng.choice(agents)
    if sorted(order) == sorted(items):
        assert inst.with_preference(agent, order).preferences[agent] == tuple(order)
    else:
        with pytest.raises(ValidationError) as exc:
            inst.with_preference(agent, order)
        assert exc.value.problems == [
            f"replacement preference for agent {agent} is not a permutation of the item set"
        ]


def test_permutation_check_matches_sorted_comparison():
    """Seeded small cases with drawn manglings; then m = 256 and m = 660
    (the two-agent and 30-variable compile sizes) with every mangling, in
    the preferences and in the replacement order, among them "repeated":
    the right length, one id twice and so another missing."""
    rng = random.Random(71)
    cases = {"valid": 0, "invalid": 0, "duplicate ids": 0}
    for _ in range(600):
        m = rng.randint(1, 6)
        items = [f"o{k}" for k in range(m)]
        if rng.random() < 0.2:  # duplicate item ids
            items.append(rng.choice(items))
            rng.shuffle(items)
        _check_permutation_case(rng, items, cases)
    for m in (256, 660):
        for case in ("valid", "missing", "unknown", "repeated", "extra"):
            for duplicate in (False, True):
                items = [f"o{k}" for k in range(m)]
                if duplicate:
                    j, k = rng.sample(range(m), 2)
                    items[j] = items[k]
                _check_permutation_case(rng, items, cases, pref_case=case)
                _check_permutation_case(rng, items, cases, "valid", replacement_case=case)
    assert min(cases.values()) >= 50, cases


# --- UtilityFunction: an integer row is its own worth ------------------------


def _general_rows(rows):
    """Reference conversion: every value as a ``Fraction``, over the lcm of
    the row's denominators."""
    out = {}
    for agent, row in rows.items():
        values = {o: Fraction(v) for o, v in row.items()}
        scale = lcm(*(v.denominator for v in values.values()))
        out[agent] = ({o: int(v * scale) for o, v in values.items()}, scale)
    return out


@pytest.mark.parametrize(
    "row",
    [
        {"a": 7, "b": 3, "c": -2},
        {},
        {"a": True, "b": 1},
        {"a": Fraction(7, 3), "b": Fraction(1, 2)},
        {"a": 5, "b": Fraction(1, 2), "c": 2},
        {"a": Fraction(12, 6), "b": Fraction(3)},
    ],
    ids=["all-int", "empty", "bool", "all-fraction", "mixed", "integral-fractions"],
)
def test_rows_match_the_general_conversion(row):
    u = UtilityFunction({"1": row})
    assert u.rows == _general_rows({"1": row})
    assert all(type(w) is int for w in u.rows["1"][0].values())


@pytest.mark.parametrize("row", [{"a": 2, "b": 0.5}, {"a": 0.5, "b": 2}], ids=["last", "first"])
def test_float_in_an_integer_row_is_the_same_type_error(row):
    (bad,) = [o for o, v in row.items() if type(v) is float]
    message = f"utility of agent 1 for item {bad} is 0.5, not an int or a Fraction"
    with pytest.raises(TypeError) as exc:
        UtilityFunction({"1": row})
    assert str(exc.value) == message


def test_integer_row_is_copied():
    row = {"a": 3, "b": 2}
    u = UtilityFunction({"1": row})
    row["a"] = 100
    row["c"] = 1
    assert u.rows == {"1": ({"a": 3, "b": 2}, 1)}


# One record of every result type, with the repr a frozen dataclass gave it.
_SPAN = RoundSpan("choice", "x1", 1, 16)
_FORMULA = RestrictedFormula(3, ((1, 2, 3), (-1, -2, -3)))
_INSTANCE = Instance(("a", "b"), ("1", "2"), {"1": ("a", "b"), "2": ("b", "a")}, ("1", "2"))
_UTILITY = UtilityFunction({"1": {"a": 2, "b": Fraction(1, 2)}})
_ALLOCATION = Allocation({"1": frozenset({"a"})})
_REGISTRY = GadgetRegistry(
    {(1, 1): "a_x1^1"}, {1: ("o_x1^1", "o_x1^2")}, {}, {}, {}, {}, {1: (1, 2)}, (_SPAN,)
)
_OUTCOME = PatternOutcome(("I1",), Fraction(1), False, False, None, None)
RECORDS = {
    "Instance": (
        _INSTANCE,
        "Instance(items=('a', 'b'), agents=('1', '2'), "
        "preferences={'1': ('a', 'b'), '2': ('b', 'a')}, sequence=('1', '2'))",
    ),
    "UtilityFunction": (_UTILITY, "UtilityFunction(rows={'1': ({'a': 4, 'b': 1}, 2)})"),
    "Allocation": (_ALLOCATION, "Allocation(bundles={'1': frozenset({'a'})}, trace=())"),
    "NashEvidence": (
        NashEvidence("1", frozenset({"a"}), Fraction(2), frozenset({"b"}), Fraction(1, 2)),
        "NashEvidence(agent='1', current_bundle=frozenset({'a'}), "
        "current_utility=Fraction(2, 1), best_response_bundle=frozenset({'b'}), "
        "best_response_utility=Fraction(1, 2))",
    ),
    "OracleResult": (
        OracleResult(Fraction(5, 2), (frozenset({"a"}),), {frozenset({"a"}): ("a", "b")}, 3),
        "OracleResult(max_utility=Fraction(5, 2), optimal_bundles=(frozenset({'a'}),), "
        "witness_reports={frozenset({'a'}): ('a', 'b')}, checks=3)",
    ),
    "RestrictedFormula": (
        _FORMULA, "RestrictedFormula(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))"
    ),
    "RoundSpan": (_SPAN, "RoundSpan(kind='choice', label='x1', start=1, end=16)"),
    "GadgetRegistry": (
        _REGISTRY,
        "GadgetRegistry(literal_agents={(1, 1): 'a_x1^1'}, "
        "choice_items={1: ('o_x1^1', 'o_x1^2')}, consistency_items={}, dummy_items={}, "
        "clause_items={}, clause_agents={}, occurrences={1: (1, 2)}, "
        "rounds=(RoundSpan(kind='choice', label='x1', start=1, end=16),))",
    ),
    "ReductionOutput": (
        ReductionOutput(_FORMULA, _INSTANCE, _UTILITY, Fraction(7), _REGISTRY),
        f"ReductionOutput(formula={_FORMULA!r}, instance={_INSTANCE!r}, utility={_UTILITY!r}, "
        f"target=Fraction(7, 1), registry={_REGISTRY!r})",
    ),
    "ForwardResult": (
        ForwardResult(Fraction(3), True, _ALLOCATION, frozenset({"a"})),
        "ForwardResult(utility=Fraction(3, 1), meets_target=True, "
        "allocation=Allocation(bundles={'1': frozenset({'a'})}, trace=()), "
        "manipulator_bundle=frozenset({'a'}))",
    ),
    "PatternOutcome": (
        PatternOutcome(("T", "F"), Fraction(1), False, True, {1: True, 2: False}, False),
        "PatternOutcome(kinds=('T', 'F'), utility=Fraction(1, 1), meets_target=False, "
        "consistent=True, assignment={1: True, 2: False}, satisfies=False)",
    ),
    "PatternReport": (
        PatternReport((_OUTCOME,), True, True),
        "PatternReport(outcomes=(PatternOutcome(kinds=('I1',), utility=Fraction(1, 1), "
        "meets_target=False, consistent=False, assignment=None, satisfies=None),), "
        "satisfiable=True, sat_enumeration_agrees=True)",
    ),
}


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def _rebuilt(record):
    """An equal record made afresh from the field values, by keyword."""
    cls = type(record)
    if cls is UtilityFunction:  # its constructor takes values, not converted rows
        return UtilityFunction(record.values)
    return cls(**dict(zip(record._fields, _values(record))))


def _hashable(record):
    try:
        hash(_values(record))
    except TypeError:
        return False
    return True


def test_every_result_type_is_a_record():
    assert {type(r).__name__ for r, _ in RECORDS.values()} == set(RECORDS)
    assert all(isinstance(r, Record) for r, _ in RECORDS.values())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_is_pinned(name):
    record, text = RECORDS[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_by_class_and_values(name):
    record, _ = RECORDS[name]
    twin = _rebuilt(record)
    assert twin is not record and twin == record and not twin != record
    assert record != _values(record)
    assert record != object()
    if _hashable(record):
        assert hash(twin) == hash(record)
    else:  # a dict field makes the record unhashable, as its dict is
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_records_of_other_classes_or_values_differ():
    class Span(Record):
        kind: str
        label: str
        start: int
        end: int

    assert Span(*_values(_SPAN)) != _SPAN
    assert RoundSpan("choice", "x1", 1, 17) != _SPAN
    assert len({_SPAN, RoundSpan("choice", "x1", 1, 16), RoundSpan("clause", "x1", 1, 16)}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen(name):
    record, text = RECORDS[name]
    field = record._fields[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert repr(record) == text


def _canonical(value):
    """``value`` with each set as a sorted list and each record as its class
    name and fields, so that its repr keeps every type but not the order in
    which a copied or unpickled set iterates."""
    if isinstance(value, (set, frozenset)):
        return type(value).__name__, sorted(map(_canonical, value), key=repr)
    if isinstance(value, Record):
        return type(value).__name__, [_canonical(getattr(value, f)) for f in value._fields]
    if isinstance(value, Mapping):
        return type(value).__name__, [(_canonical(k), _canonical(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value).__name__, list(map(_canonical, value))
    return value


def _round_trips(record):
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record
        assert repr(_canonical(copied)) == repr(_canonical(record))
        with pytest.raises(AttributeError):
            setattr(copied, record._fields[0], None)


def test_reference_compile_copies_and_pickles():
    _round_trips(build_instance(parse_formula(REFERENCE_FORMULA)))


def test_oracle_result_copies_and_pickles():
    inst = small()
    u = make_lexicographic_utilities(inst.preferences)
    result = brute_force_best_response(inst, u, "1")
    assert isinstance(result, OracleResult)
    _round_trips(result)


def test_records_take_fields_by_keyword_or_position():
    assert RoundSpan(kind="choice", label="x1", start=1, end=16) == _SPAN
    assert RoundSpan("choice", "x1", end=16, start=1) == _SPAN
    assert Allocation(bundles=_ALLOCATION.bundles).trace == ()
    trace = ((1, "1", "a"),)
    assert Allocation(_ALLOCATION.bundles, trace=trace).trace is trace


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("choice", "x1", 1), {}, "missing field 'end'"),
        (("choice", "x1", 1, 16), {"width": 2}, "got an unknown or repeated field 'width'"),
        (("choice", "x1", 1), {"kind": "clause"}, "got an unknown or repeated field 'kind'"),
        (("choice", "x1", 1, 16, 0), {}, "takes 4 fields, got 5"),
    ],
    ids=["missing", "unknown", "repeated", "too-many"],
)
def test_a_wrong_field_is_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as exc:
        RoundSpan(*args, **kwargs)
    assert str(exc.value) == f"RoundSpan() {message}"


def test_an_allocation_needs_its_bundles():
    with pytest.raises(TypeError, match="^Allocation\\(\\) missing field 'bundles'$"):
        Allocation(trace=())
