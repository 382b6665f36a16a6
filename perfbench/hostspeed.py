"""Host-speed reference loop, for timings that compare across runs.

On a shared host the same Python code runs at a speed that drifts by up to
1.7x within seconds, as other tenants come and go. Every timed span is
therefore bracketed by two runs of a fixed reference loop, and reported
scaled to a host on which one run of the loop takes ``REFERENCE_S``. The
loop does the kinds of work seqalloc does (building dicts and tuples,
sorting by key, a picking loop over a bytearray, set and integer
arithmetic) and never calls the package, so no change to the package can
move it. It imports only ``time``, so set-up probes can run it before
importing seqalloc without importing the package's dependencies early.
"""

import time

REFERENCE_S = 0.45e-3  # about one loop on the uncontended 2-CPU host the bounds were set on

_M = 64
_ITEMS = tuple(f"o{k}" for k in range(_M))
_OPPONENT = tuple(_ITEMS[(k * 37) % _M] for k in range(_M))
_SEQ = tuple((k * k + k // 3) % 2 for k in range(_M))
_VALUES = {o: 3 * k + 1 for k, o in enumerate(_ITEMS)}


def reference_loop() -> int:
    total = 0
    for r in range(5):
        rank = {o: k for k, o in enumerate(_OPPONENT)}
        report = tuple(sorted(_ITEMS[r : r + 20], key=rank.__getitem__))
        report += tuple(o for o in _ITEMS if o not in set(report))
        index = {o: k for k, o in enumerate(_ITEMS)}
        prefs = [[index[o] for o in report], [index[o] for o in _OPPONENT]]
        taken, cursor, picks = bytearray(_M), [0, 0], []
        for agent in _SEQ:
            row, p = prefs[agent], cursor[agent]
            while taken[row[p]]:
                p += 1
            taken[row[p]] = 1
            cursor[agent] = p + 1
            picks.append(row[p])
        trace = tuple((stage + 1, _SEQ[stage], _ITEMS[i]) for stage, i in enumerate(picks))
        bundle = frozenset(o for _, agent, o in trace if agent == 0)
        total += sum(_VALUES[o] for o in bundle)
    return total


def reference_time() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def bracketed(fn):
    """Call ``fn()`` between two reference runs.

    Returns (scale, wall seconds, result, exception); multiply a span by
    ``scale`` to express it at the reference host speed.
    """
    before = reference_time()
    t0 = time.perf_counter_ns()
    result = error = None
    try:
        result = fn()
    except Exception as exc:  # the caller counts it as a failed operation
        error = exc
    wall = (time.perf_counter_ns() - t0) / 1e9
    after = reference_time()
    return 2 * REFERENCE_S / (before + after), wall, result, error
