"""The fast forms of the two-agent path and the oracle against the forms
they replaced.

Each reference below is the loop, comprehension or replay that a fast path
replaced, kept here so the two can be compared on seeded inputs: the same
answers, and the same errors with the same messages.
"""

import inspect
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import le

import pytest

from seqalloc import engine, model, oracle, two_agent
from seqalloc.engine import Encoded, run_sequential_allocation, secures, stages_of
from seqalloc.instance_io import InstanceParseError, parse_instance, serialize_instance
from seqalloc.model import (
    Allocation,
    UtilityFunction,
    ValidationError,
    bundle_utility,
    complete_order,
    integer_values,
    order_from_utilities,
)
from seqalloc.two_agent import (
    NashEvidence,
    best_response,
    canonical_report,
    is_achievable,
    nash_evidence,
)

from conftest import random_instance, take


def _outcome(f, *args):
    """``f(*args)``, or the error it raised: its type, problems and line number."""
    try:
        return f(*args)
    except ValidationError as exc:
        return type(exc), exc.problems, getattr(exc, "line_no", None)


# --- references ---------------------------------------------------------------


def _order_by_sort(u, agent, items):
    """``order_from_utilities`` as a sort of indices with a tie scan per pair."""
    items = tuple(items)
    worth, _ = integer_values(u, agent, items)
    ranked = sorted(range(len(items)), key=lambda k: -worth[k])
    for j, k in zip(ranked, ranked[1:]):
        if worth[j] == worth[k]:
            a, b = items[j], items[k]
            raise ValidationError(
                [f"agent {agent} values {a} and {b} equally; induced order is not strict"]
            )
    return tuple(items[k] for k in ranked)


def _nash_by_ranking(inst, u):
    """``nash_evidence`` ranking every agent's row afresh, without the shortcut."""
    true_orders = {a: _order_by_sort(u, a, inst.items) for a in inst.agents}
    current = run_sequential_allocation(inst)
    out = []
    for agent in inst.agents:
        _, bundle, utility = best_response(inst.with_preference(agent, true_orders[agent]), u, agent)
        out.append(
            NashEvidence(
                agent=agent,
                current_bundle=current.bundles[agent],
                current_utility=bundle_utility(u, agent, current.bundles[agent]),
                best_response_bundle=bundle,
                best_response_utility=utility,
            )
        )
    return out


def _achievable_by_sort(S, inst, manipulator):
    """``is_achievable`` with an opponent rank dict and a sort of S's ranks."""
    two_agent._require_two_agents(inst)
    opp_pref = inst.preferences[two_agent._opponent(inst, manipulator)]
    rank = dict(zip(opp_pref, range(len(opp_pref))))
    ranks = sorted(map(rank.__getitem__, two_agent._known_items(S, rank)))
    stages = stages_of(inst.sequence, manipulator)
    return len(ranks) <= len(stages) and all(map(le, stages, ranks))


def _report_by_sort(S, opponent_pref, all_items):
    """``canonical_report`` sorting S by an opponent rank dict."""
    S = two_agent._known_items(S, all_items)
    rank = dict(zip(opponent_pref, range(len(opponent_pref))))
    return complete_order(sorted(S, key=rank.__getitem__), all_items)


def _head_lines(text):
    """The text as the per-line loop reads it: each line up to its first
    '#', stripped, one line per line so that line numbers stay."""
    return "\n".join(raw.split("#", 1)[0].strip() for raw in text.splitlines())


def _run_by_generator(inst):
    """``run_sequential_allocation``'s trace and bundles from the stage loop."""
    enc = Encoded(inst)
    taken, picks = set(), []
    for agent in enc.seq:
        item = next(k for k in enc.prefs[agent] if k not in taken)
        taken.add(item)
        picks.append(item)
    trace = tuple(
        (stage + 1, inst.sequence[stage], inst.items[item]) for stage, item in enumerate(picks)
    )
    bundles = {a: set() for a in inst.agents}
    for _, agent, item in trace:
        bundles[agent].add(item)
    return Allocation({a: frozenset(b) for a, b in bundles.items()}, trace)


# --- Nash shortcut --------------------------------------------------------------

_ROW_KINDS = ("consistent", "reordered", "tied", "non-positive", "partial", "missing")


def _row(rng, inst, agent, kind):
    """A utility row of the given kind for ``agent``, or None for no row."""
    if kind == "missing":
        return None
    order = list(inst.preferences[agent])
    if kind == "reordered":
        while len(order) > 1 and tuple(order) == inst.preferences[agent]:
            rng.shuffle(order)
    steps = [Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3))) for _ in order]
    row = dict(zip(reversed(order), accumulate(steps)))
    if kind == "tied" and len(order) > 1:
        a, b = rng.sample(order, 2)
        row[a] = row[b]
    elif kind == "non-positive":
        row = {o: v - row[order[-1]] for o, v in row.items()}
    elif kind == "partial":
        del row[rng.choice(order)]
    return row


def test_nash_shortcut_matches_ranking_every_row():
    rng = random.Random(2501)
    seen = Counter()
    for _ in range(600):
        inst = random_instance(rng, 2, rng.randint(1, 9))
        kinds = {a: rng.choice(_ROW_KINDS) for a in inst.agents}
        rows = {a: _row(rng, inst, a, k) for a, k in kinds.items()}
        u = UtilityFunction({a: r for a, r in rows.items() if r is not None})
        got = _outcome(nash_evidence, inst, u)
        assert got == _outcome(_nash_by_ranking, inst, u), (inst, kinds)
        seen[kinds[inst.agents[0]], isinstance(got, list)] += 1
    # every kind of row, and both answers and errors, came up
    assert {k for k, _ in seen} == set(_ROW_KINDS)
    assert seen["consistent", True] and seen["reordered", True] and seen["tied", False]


def test_nash_shortcut_skips_ranking_only_for_consistent_rows(monkeypatch):
    rng = random.Random(2502)
    ranked = []
    real = two_agent.order_from_utilities
    monkeypatch.setattr(
        two_agent, "order_from_utilities", lambda u, a, items: ranked.append(a) or real(u, a, items)
    )
    for kinds in (("consistent", "consistent"), ("consistent", "reordered")):
        inst = random_instance(rng, 2, 8)
        rows = {a: _row(rng, inst, a, k) for a, k in zip(inst.agents, kinds)}
        ranked.clear()
        nash_evidence(inst, UtilityFunction(rows))
        assert ranked == [a for a, k in zip(inst.agents, kinds) if k != "consistent"]


def test_nash_checks_each_consistent_row_once(monkeypatch):
    rng = random.Random(2508)
    checked = []
    real = two_agent.row_problems
    monkeypatch.setattr(
        two_agent, "row_problems", lambda u, inst, a: checked.append(a) or real(u, inst, a)
    )
    for _ in range(20):
        inst = random_instance(rng, 2, rng.randint(1, 9))
        u = UtilityFunction({a: _row(rng, inst, a, "consistent") for a in inst.agents})
        checked.clear()
        nash_evidence(inst, u)
        assert sorted(checked) == sorted(inst.agents)


def test_nash_with_consistent_rows_builds_no_report_and_copies_no_instance(monkeypatch):
    """Each consistent row's best response is a greedy bundle on the reported
    instance itself, so the check's only replay is the truthful allocation."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [
        (two_agent, "canonical_report"),
        (two_agent, "run_sequential_allocation"),
        (engine, "run_sequential_allocation"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    with_preference = model.Instance.with_preference

    def copy_counted(inst, agent, order):
        setting = with_preference(inst, agent, order)
        calls["instance copies"] += setting is not inst
        return setting

    monkeypatch.setattr(model.Instance, "with_preference", copy_counted)
    rng = random.Random(2509)
    for _ in range(20):
        inst = random_instance(rng, 2, rng.randint(1, 9))
        u = UtilityFunction({a: _row(rng, inst, a, "consistent") for a in inst.agents})
        calls.clear()
        nash_evidence(inst, u)
        assert +calls == {"run_sequential_allocation": 1}, calls


# --- one pass over the opponent's order -------------------------------------------


def _targets(rng, inst, manipulator):
    """Target sets of every kind: empty, up to all items (so above the
    turns), a list with repeats, and sets naming unknown items."""
    items = list(inst.items)
    yield set()
    for _ in range(4):
        yield set(rng.sample(items, rng.randint(1, len(items))))
    yield set(rng.sample(items, min(len(items), inst.turns(manipulator) + 1)))
    yield [rng.choice(items) for _ in range(rng.randint(2, len(items) + 2))]
    yield {"zz", *rng.sample(items, rng.randint(0, len(items)))}
    yield ["zz", "zz"]


def test_opponent_order_pass_matches_the_rank_sort():
    rng = random.Random(2509)
    seen = Counter()
    for k in range(400):
        m = 256 if k % 100 == 0 else rng.randint(1, 12)
        inst = random_instance(rng, 2, m, L=rng.randint(0, m))
        manipulator = rng.choice((*inst.agents, "nobody"))
        opponent_pref = inst.preferences[next(a for a in inst.agents if a != manipulator)]
        for S in _targets(rng, inst, manipulator):
            got = _outcome(is_achievable, S, inst, manipulator)
            assert got == _outcome(_achievable_by_sort, S, inst, manipulator), (inst, S)
            report = _outcome(canonical_report, S, opponent_pref, inst.items)
            assert report == _outcome(_report_by_sort, S, opponent_pref, inst.items), (inst, S)
            seen[m == 256, got if type(got) is bool else got[1][0].split(":")[0]] += 1
    # both verdicts and both errors came up, also at m = 256
    assert {v for _, v in seen} == {True, False, "unknown agent nobody", "unknown items in target set"}
    assert seen[True, True] and seen[True, False]


# --- parse pre-pass ---------------------------------------------------------------

_BREAKS = ("\n", "\n", "\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028")
_SPACES = (" ", " ", "  ", "\t", " \t", "\xa0", "\u3000")
_MALFORMED = (
    "gizmo o1", "item", "item a b", "pref 1 o1", "seq 1 2", "util 1 : x", ":",
    "agents 2 items 3", "agents 2 items 3 seq x", "agents 1 items 1 seq 1",
)


def _noisy_text(rng, comments: bool):
    """A serialized instance with comments, blank lines, odd whitespace and
    line endings, and now and then a malformed line."""
    inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 6))
    rows = {a: {o: len(inst.items) - k for k, o in enumerate(inst.preferences[a])}
            for a in inst.agents if rng.random() < 0.6}
    lines = serialize_instance(inst, UtilityFunction(rows) if rows else None).splitlines()
    out = []
    for line in lines:
        if comments and rng.random() < 0.15:
            out.append("#" + rng.choice(("", " ", " note ")) + rng.choice(lines))
        if rng.random() < 0.15:
            out.append(rng.choice(("", " ", "\t", " \t ", "\xa0")))
        if rng.random() < 0.05:
            out.append(rng.choice(_MALFORMED))
        fields = line.split()
        line = "".join(f + rng.choice(_SPACES) for f in fields[:-1]) + fields[-1]
        line = rng.choice(("", "", " ", "\t")) + line + rng.choice(("", "", " ", "\t"))
        if comments and rng.random() < 0.2:
            # after the line or anywhere in it, also inside a value
            cut = rng.choice((len(line), rng.randint(0, len(line))))
            line = line[:cut] + "#" + rng.choice(("", " x", "#", " item o1"))
        out.append(line)
    return "".join(line + rng.choice(_BREAKS) for line in out)


def test_parse_pre_pass_matches_the_per_line_loop():
    rng = random.Random(2503)
    seen = Counter()
    for k in range(1500):
        text = _noisy_text(rng, comments=k % 3 != 0)
        got = _outcome(parse_instance, text)
        assert got == _outcome(parse_instance, _head_lines(text)), repr(text)
        seen["#" in text, isinstance(got, tuple) and got[0] is InstanceParseError] += 1
    # texts with and without '#', parsed and rejected with a line number
    assert seen[True, True] and seen[True, False] and seen[False, True] and seen[False, False]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_parse_keeps_line_numbers_across_comments_and_endings(newline):
    text = newline.join([
        "# header next", "agents 1 items 2 seq 1", "\t", "item a # first", "item b",
        "pref 1 : a b  #", "seq : 1", "util 1 : 2 # 1", "",
    ])
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == 8
    assert str(exc.value) == "line 8: agent 1: 1 utilities for 2 items"


# --- helpers against their comprehension forms ----------------------------------


def test_turns_stages_and_encoding_match_comprehensions():
    rng = random.Random(2504)
    for _ in range(300):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 12))
        enc = Encoded(inst)
        assert enc.prefs == [[inst.items.index(o) for o in inst.preferences[a]] for a in inst.agents]
        assert enc.seq == [inst.agents.index(a) for a in inst.sequence]
        assert enc.item_index == {o: k for k, o in enumerate(inst.items)}
        assert enc.agent_index == {a: i for i, a in enumerate(inst.agents)}
        for i, a in enumerate((*inst.agents, "nobody")):  # "nobody" has no turn
            stages = [t for t, b in enumerate(inst.sequence) if b == a]
            assert inst.turns(a) == sum(1 for b in inst.sequence if b == a) == len(stages)
            assert stages_of(inst.sequence, a) == stages
            assert stages_of(enc.seq, i) == [t for t, j in enumerate(enc.seq) if j == i]


def test_run_matches_the_stage_loop():
    rng = random.Random(2505)
    for n in range(2, 6):
        for _ in range(80):
            m = rng.randint(1, 10)
            inst = random_instance(rng, n, m, L=rng.randint(0, min(m, 4)))
            got = run_sequential_allocation(inst)
            assert got == _run_by_generator(inst)
            assert all(type(s) is int for s, _, _ in got.trace)


def test_deadlines_match_the_running_turn_count():
    rng = random.Random(2506)
    seen = Counter()
    for _ in range(300):
        m = rng.randint(1, 12)
        inst = random_instance(rng, 2, m, L=rng.randint(0, m))
        manip = rng.choice(inst.agents)
        opp = next(a for a in inst.agents if a != manip)
        turns = inst.turns(manip)
        due = list(accumulate(int(a == manip) for a in inst.sequence))
        due += [turns] * (m - len(due))
        test = two_agent._deadline_test(inst, manip)
        deadline = inspect.getclosurevars(test).nonlocals["deadline"]
        assert deadline == dict(zip(inst.preferences[opp], due))
        assert all(type(d) is int for d in deadline.values())
        seen[turns == 0, len(inst.sequence) < m] += 1
    assert seen[True, True] and seen[False, True] and seen[False, False]


def test_order_from_utilities_matches_the_index_sort():
    rng = random.Random(2507)
    seen = Counter()
    for _ in range(500):
        m = rng.randint(1, 10)
        items = [f"o{k}" for k in range(m)]
        row = {o: Fraction(rng.randint(1, 6), rng.choice((1, 2))) for o in items}
        if rng.random() < 0.1:
            del row[rng.choice(items)]
        u = UtilityFunction({"1": row})
        order = rng.sample(items, m)
        got = _outcome(order_from_utilities, u, "1", order)
        assert got == _outcome(_order_by_sort, u, "1", order)
        seen[isinstance(got, tuple) and type(got[0]) is type] += 1
    assert seen[True] and seen[False]


# --- oracle: witnesses without replays, enumeration moves per taken set -----------


def _first_pick_order_by_replay(start, turns, bundle):
    """``oracle.first_pick_order`` as a trial per candidate: at each turn, copy
    the state, take the smallest candidate not yet tried and ask ``secures``
    whether the rest stays achievable; the last candidate needs no trial."""
    state = start.copy()
    needed = set(bundle)
    picks = []
    for c, t in enumerate(turns):
        state.advance(t)
        for item in sorted(needed)[:-1]:
            trial = state.copy()
            take(trial, item)
            if secures(trial, turns[c + 1 :], needed - {item}) is not None:
                break
        else:  # the last candidate: some item must work
            item = max(needed)
        take(state, item)
        needed.remove(item)
        picks.append(item)
    return picks


def test_witness_from_due_turns_matches_the_per_candidate_replay():
    rng = random.Random(2801)
    seen = Counter()
    for _ in range(400):
        m = rng.randint(1, 9)
        inst = random_instance(rng, n=rng.randint(2, 4), m=m, L=m)
        manip = rng.choice(inst.agents)
        enc, turns, start = oracle._setup(inst, manip)
        # every optimum under tied utilities, as the search reports it
        u = UtilityFunction({manip: {o: Fraction(rng.randint(0, 2)) for o in inst.items}})
        res = oracle.brute_force_best_response(inst, u, manip)
        for bundle in res.optimal_bundles:
            picks = _first_pick_order_by_replay(start, turns, [enc.item_index[o] for o in bundle])
            assert res.witness_reports[bundle] == complete_order(
                [inst.items[k] for k in picks], inst.items
            ), (inst, manip, bundle)
        seen["optima", len(res.optimal_bundles) > 1] += 1
        # and the bundle of a random pick order, from its due turns alone
        state = start.copy()
        bundle = []
        for t in turns:
            state.advance(t)
            bundle.append(rng.choice([k for k in range(m) if not state.taken[k]]))
            take(state, bundle[-1])
        due = secures(start, turns, bundle)
        expected = _first_pick_order_by_replay(start, turns, bundle)
        assert oracle.first_pick_order(bundle, due) == expected, (inst, manip, bundle)
        seen["reordered", expected != sorted(bundle)] += 1
    # tied optima came up, and witnesses that do not take the bundle in index order
    assert seen["optima", True] and seen["reordered", True], seen


# --- util rows checked once per order -------------------------------------------

_DEFECTS = ("none", "tie", "zero", "negative", "inversion")


def _literal(rng, v: Fraction) -> str:
    """One spelling of ``v``: an integer as such now and then, else a
    fraction over a random multiple of its denominator."""
    if v.denominator == 1 and rng.random() < 0.5:
        return str(v.numerator)
    k = rng.randint(1, 3)
    return f"{v.numerator * k}/{v.denominator * k}"


def _util_line(rng, inst, agent, style, defect):
    """A ``util`` line for ``agent`` along their order: integer literals or
    fractions over mixed denominators, with one seeded defect, and the
    values it holds."""
    m = len(inst.items)
    if style == "int":
        values = [Fraction(v) for v in sorted(rng.sample(range(1, 10 * m + 1), m), reverse=True)]
    else:
        steps = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5))) for _ in range(m)]
        values = list(accumulate(steps))[::-1]
    k = rng.randrange(m)
    if defect == "tie" and m > 1:
        k = min(k, m - 2)
        values[k] = values[k + 1]  # as fractions, often spelled two ways below
    elif defect == "zero":
        values[-1] = Fraction(0)
    elif defect == "negative":
        values[k] = -values[k]
    elif defect == "inversion" and m > 1:
        k = min(k, m - 2)
        values[k], values[k + 1] = values[k + 1], values[k]
    if style == "int":
        literals = [str(v.numerator) for v in values]
    else:
        literals = [_literal(rng, v) for v in values]
    return f"util {agent} : {' '.join(literals)}\n", values


@pytest.fixture
def scans(monkeypatch):
    """The orders that a utility row is scanned along, in order."""
    scanned = []
    real = model._row_fits

    def counted(row, order):
        scanned.append(order)
        return real(row, order)

    monkeypatch.setattr(model, "_row_fits", counted)
    return scanned


def test_parse_checks_util_rows_as_row_problems_does(scans):
    """Parse's check on the values it read gives each seeded row the verdict,
    problem list and line number that ``validate_utilities`` gives the
    same rows built afresh, and every row it passes is held: no later
    ``row_problems`` scans it."""
    rng = random.Random(3701)
    seen = Counter()
    for _ in range(500):
        inst = random_instance(rng, 2, rng.randint(1, 9))
        text = serialize_instance(inst)
        rows = {}
        for agent in rng.sample(inst.agents, rng.randint(1, 2)):
            style, defect = rng.choice(("int", "fraction")), rng.choice(_DEFECTS)
            line, values = _util_line(rng, inst, agent, style, defect)
            text += line
            rows[agent] = dict(zip(inst.preferences[agent], values))
            seen[style, defect] += 1
        fresh = UtilityFunction(rows)
        got = _outcome(parse_instance, text)
        expected = _outcome(model.validate_utilities, fresh, inst)
        if expected is None:
            parsed, u = got
            assert parsed == inst and u == fresh
            scans.clear()
            assert all(model.row_problems(u, parsed, a) == [] for a in rows)
            assert scans == []
            seen["passed"] += 1
        else:
            assert got == expected, text
            seen["rejected"] += 1
    assert seen["passed"] and seen["rejected"]
    assert all(seen[s, d] for s in ("int", "fraction") for d in _DEFECTS), seen


def test_parse_sees_a_tie_in_any_spelling():
    text = serialize_instance(random_instance(random.Random(3702), 1, 3))
    _, b, c = parse_instance(text)[0].preferences["1"]
    for row in ("5/6 1/2 2/4", "5/6 0.5 2/4", "1 1/2 0.50"):
        with pytest.raises(ValidationError) as exc:
            parse_instance(text + f"util 1 : {row}\n")
        assert exc.value.problems == [f"utilities of agent 1 not strictly decreasing at {b} vs {c}"]


def _consistent_text(rng, m):
    """An instance text whose two agents have rows consistent with their
    orders."""
    inst = random_instance(rng, 2, m)
    rows = {a: {o: 2 * m - k for k, o in enumerate(inst.preferences[a])} for a in inst.agents}
    return serialize_instance(inst, UtilityFunction(rows))


def test_queries_on_a_parsed_instance_scan_no_row_again(scans):
    """A best response or Nash check on what parse returned scans no row; on
    a copy with one agent's order changed, a best response scans that
    agent's row once, and no other row."""
    rng = random.Random(3703)
    for _ in range(30):
        inst, u = parse_instance(_consistent_text(rng, rng.randint(2, 9)))
        scans.clear()
        for agent in inst.agents:
            best_response(inst, u, agent)
        nash_evidence(inst, u)
        assert scans == []
        changed = rng.choice(inst.agents)
        order = list(inst.preferences[changed])
        order.reverse()
        twin = inst.with_preference(changed, order)
        for agent in inst.agents:
            scans.clear()
            _outcome(best_response, twin, u, agent)
            assert scans == ([twin.preferences[changed]] if agent == changed else [])


def test_nash_scans_a_row_that_misfits_its_order_once(scans, monkeypatch):
    """Agent 1's row no longer fits their reversed order: the Nash check
    scans it once, along that order, and the order its ranking induces is
    not scanned again; no canonical report is built."""
    inst, u = parse_instance(
        "agents 2 items 4 seq 4\nitem a\nitem b\nitem c\nitem d\n"
        "pref 1 : a b c d\npref 2 : c d a b\nseq : 1 2 1 2\n"
        "util 1 : 4 3 2 1\nutil 2 : 4 3 2 1\n"
    )
    twin = inst.with_preference("1", "dcba")
    reports = []
    real = two_agent.canonical_report
    monkeypatch.setattr(
        two_agent, "canonical_report", lambda *args: reports.append(args) or real(*args)
    )
    scans.clear()
    evidence = nash_evidence(twin, u)
    assert scans == [("d", "c", "b", "a")]
    assert reports == []
    assert evidence == nash_evidence(twin, UtilityFunction(u.values))


def test_a_reordered_copy_is_checked_again():
    """A ``with_preference`` copy that reorders an agent's order gets, from a
    utility function that holds the old order, the answers or problems
    that a fresh utility function gives; and the original instance still
    passes afterwards."""
    rng = random.Random(3704)
    seen = Counter()
    for _ in range(200):
        inst, u = parse_instance(_consistent_text(rng, rng.randint(1, 9)))
        agent = rng.choice(inst.agents)
        twin = inst.with_preference(agent, rng.sample(inst.items, len(inst.items)))
        for query, args in ((best_response, (agent,)), (nash_evidence, ())):
            got = _outcome(query, twin, u, *args)
            assert got == _outcome(query, twin, UtilityFunction(u.values), *args)
            seen[query.__name__, isinstance(got, tuple) and got[0] is ValidationError] += 1
        assert best_response(inst, u, agent) == best_response(inst, UtilityFunction(u.values), agent)
    # a reordered row was rejected, and a row in the same order passed again
    assert seen["best_response", True] and seen["best_response", False], seen
