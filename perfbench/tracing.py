"""Per-layer call counts and self times, recorded from outside the package.

Each traced function is named by its dotted path below the ``seqalloc``
package and resolved when a run starts. Its wrapper is installed in every
``seqalloc`` module namespace that binds the function (a method is patched
on its class), so calls made through ``from .engine import ...`` bindings
are seen too. A function the package no longer has is reported as absent
and counts zero calls.

Self time is a call's span minus the spans of traced calls it made.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable

# function -> optional (metric, result -> amount, unit); the metric is the
# amount summed over calls, divided by the number of calls
TRACED: dict[str, tuple[str, Callable, str] | None] = {
    "instance_io.parse_instance": None,
    "model.validate_instance": None,
    "model.Instance.with_preference": None,
    "model.bundle_utility": None,
    "engine.run_sequential_allocation": None,
    "kernel.allocate": None,
    "two_agent.lexicographic_best_response": None,
    "two_agent.canonical_report": None,
    "two_agent.is_achievable": ("two_agent.is_achievable.accept_ratio", bool, "ratio"),
    "oracle.brute_force_best_response": (
        "oracle.optimal_bundles", lambda r: len(r.optimal_bundles), "bundles/call"),
    "oracle.enumerate_achievable_bundles": ("oracle.bundles_enumerated", len, "bundles/call"),
    "reduction.parse_formula": None,
    "reduction.build_instance": None,
    "reduction.audit_utilities": None,
    "reduction.verify_choice_patterns": (
        "reduction.patterns_checked", lambda r: len(r.outcomes), "patterns/call"),
    "reduction.verify_forward": None,
    "instance_io.serialize_instance": None,
}


def _resolve(dotted: str):
    """(owner, attribute, function) for a dotted name, or None if absent."""
    module_name, *path = dotted.split(".")
    try:
        owner = importlib.import_module(f"seqalloc.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    fn = getattr(owner, path[-1], None)
    return None if fn is None else (owner, path[-1], fn)


class Tracer:
    """Wraps the traced functions while ``installed()`` is active."""

    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_ns = dict.fromkeys(TRACED, 0)
        self.counters = {spec[0]: 0 for spec in TRACED.values() if spec}
        self.absent: list[str] = []
        self._stack: list[int] = []  # traced-child time of each open span
        self._patches: list[tuple[object, str, object, object]] = []
        for name, spec in TRACED.items():
            found = _resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn, spec)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "seqalloc" and not mod_name.startswith("seqalloc."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn, wrapper))

    def _wrap(self, name: str, fn, spec):
        stack, calls, self_ns, counters = self._stack, self.calls, self.self_ns, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                calls[name] += 1
                self_ns[name] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if spec:
                counters[spec[0]] += spec[1](result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, fn, _ in self._patches:
                setattr(owner, attr, fn)
