"""Every small two-agent instance, checked against the exhaustive references.

The family: m = 1..5 items i0 .. i(m-1); the manipulator (agent 1) ranks
them i0 first, which loses nothing, since any instance is this one with its
items relabelled; the opponent (agent 2) has every order; the sequence is
every word over {1, 2} of length 0..m. That is 8,411 instances and 254,606
target sets, so agreement on them is complete rather than sampled.
"""

from collections import Counter
from itertools import compress, permutations, product

from seqalloc.engine import Encoded, can_achieve, run_with_report
from seqalloc.model import make_lexicographic_utilities, validate_instance
from seqalloc.oracle import brute_force_best_response
from seqalloc.two_agent import is_achievable, lexicographic_best_response, lexicographic_bundle

MANIPULATOR, OPPONENT = "1", "2"


def _family():
    """(instance, its subsets of items as tuples) for every member of the family."""
    for m in range(1, 6):
        items = [f"i{k}" for k in range(m)]
        subsets = [tuple(compress(items, bits)) for bits in product((0, 1), repeat=m)]
        for opponent_order in permutations(items):
            prefs = {MANIPULATOR: items, OPPONENT: list(opponent_order)}
            for length in range(m + 1):
                for sequence in product((MANIPULATOR, OPPONENT), repeat=length):
                    yield validate_instance(items, [MANIPULATOR, OPPONENT], prefs, sequence), subsets


def test_every_small_two_agent_instance():
    seen = Counter()
    for inst, subsets in _family():
        report, bundle = lexicographic_best_response(inst, MANIPULATOR)
        assert lexicographic_bundle(inst, MANIPULATOR) == bundle, inst
        u = make_lexicographic_utilities(inst.preferences)
        # lexicographic utilities give every bundle its own value
        assert brute_force_best_response(inst, u, MANIPULATOR).optimal_bundles == (bundle,), inst
        assert run_with_report(inst, MANIPULATOR, report).bundles[MANIPULATOR] == bundle, inst
        enc = Encoded(inst)
        agent, index = enc.agent_index[MANIPULATOR], enc.item_index
        for S in subsets:
            verdict = is_achievable(S, inst, MANIPULATOR)
            assert verdict == can_achieve(enc, agent, [index[o] for o in S]), (inst, S)
            seen[verdict] += 1
        seen["instances"] += 1
    assert seen["instances"] == 8411 and seen[True] + seen[False] == 254606
    assert seen[True] and seen[False]
