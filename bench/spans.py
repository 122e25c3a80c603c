"""Span tracing of mesd's public functions, installed from outside the package.

A `Tracer` wraps each target function in every `mesd` module namespace that
binds it (``mesd.oracle`` imports ``born_probability`` by name, so wrapping
``mesd.qcore`` alone would miss the oracle's calls), and wraps ``__init__`` of
the target classes so every construction is seen.  Each span is aggregated
under ``(parent span name, span name)`` with its call count, total time, self
time (total minus the direct child spans) and number of descendant spans.
Spans are kept in memory; per-call samples are kept only for the names listed
in ``SAMPLED``.  ``uninstall`` puts every original object back and
``leftover_wrappers`` proves it did.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, attribute, span name).  The layer prefix is the module's short name.
FUNCTIONS = [
    ("mesd.cli", "cmd_map", "cli.cmd_map"),
    ("mesd.cli", "cmd_ontic_check", "cli.cmd_ontic_check"),
    ("mesd.cli", "_emit", "cli._emit"),
    ("mesd.analytic", "advantage_three", "analytic.advantage_three"),
    ("mesd.analytic", "quantum_three", "analytic.quantum_three"),
    ("mesd.analytic", "nc_three_bound", "analytic.nc_three_bound"),
    ("mesd.analytic", "helstrom_two", "analytic.helstrom_two"),
    ("mesd.qcore", "born_probability", "qcore.born_probability"),
    ("mesd.qcore", "validate_povm", "qcore.validate_povm"),
    ("mesd.oracle", "optimize_three", "oracle.optimize_three"),
    ("mesd.oracle", "success_three", "oracle.success_three"),
    ("mesd.oracle", "optimize_two", "oracle.optimize_two"),
    ("mesd.oracle", "success_two", "oracle.success_two"),
    ("mesd.ontic", "random_model", "ontic.random_model"),
    ("mesd.ontic", "check_two_state_bound", "ontic.check_two_state_bound"),
    ("mesd.ontic", "check_three_state_bound", "ontic.check_three_state_bound"),
]
# Classes whose construction (``__init__``, which runs the validation in
# ``__post_init__``) is a span.
CLASSES = [
    ("mesd.qcore", "Effect", "qcore.Effect"),
    ("mesd.qcore", "PriorDistribution", "qcore.PriorDistribution"),
]
SAMPLED = {"oracle.optimize_three", "oracle.optimize_two"}
# Span whose first argument is the text written; its length is counted.
BYTES_SPAN = "cli._emit"

_MARK = "__bench_span__"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mesd" or name.startswith("mesd."))]


class Tracer:
    """In-memory span aggregation; one per traced batch."""

    def __init__(self) -> None:
        self._local = threading.local()
        # (parent, name) -> [count, total_s, self_s, direct_children, descendants]
        self.stats: dict[tuple[str, str], list] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.bytes_out: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            # root frame: [name, child time, direct children, descendants]
            stack = self._local.stack = [["", 0.0, 0, 0]]
            return stack

    def wrap(self, name: str, fn):
        """Return `fn` wrapped in a span called `name`."""
        stats = self.stats
        samples = self.samples.get(name)
        count_bytes = name == BYTES_SPAN
        clock = time.perf_counter
        local = self._local
        get_stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = get_stack()
            parent = stack[-1]
            frame = [name, 0.0, 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (parent[0], name)
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0.0, 0.0, 0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                agg[3] += frame[2]
                agg[4] += frame[3]
                parent[1] += dt
                parent[2] += 1
                parent[3] += frame[3] + 1
                if samples is not None:
                    samples.append(dt)
                if count_bytes and args:
                    self.bytes_out[parent[0]] = self.bytes_out.get(parent[0], 0) + len(args[0])

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every mesd namespace that binds it.  A target
        the package no longer has is skipped, and its metrics read 0."""
        modules = _package_modules()
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, attr, name in CLASSES:
            cls = getattr(sys.modules[module_name], attr, None)
            original = getattr(cls, "__dict__", {}).get("__init__")
            if original is None:
                continue
            self._installed.append((cls, "__init__", original))
            cls.__init__ = self.wrap(name, original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def span_cost(self, calls: int = 50_000) -> tuple[float, float]:
        """Calibrated cost of one child span as seen by its parent, in seconds:
        (added to the parent's total time, added to the parent's self time).

        Measured by timing a traced parent that calls a no-op `calls` times,
        once through a traced no-op and once directly; the scratch spans are
        dropped afterwards.
        """
        def noop():
            return None

        traced_noop = self.wrap("~calibrate.child", noop)

        def loop(fn):
            for _ in range(calls):
                fn()

        parent = self.wrap("~calibrate.parent", loop)
        best_total = best_self = float("inf")
        for _ in range(3):
            parent(noop)
            raw = self.stats.pop(("", "~calibrate.parent"))
            parent(traced_noop)
            traced = self.stats.pop(("", "~calibrate.parent"))
            self.stats.pop(("~calibrate.parent", "~calibrate.child"))
            best_total = min(best_total, (traced[1] - raw[1]) / calls)
            best_self = min(best_self, (traced[2] - raw[2]) / calls)
        self._stack()[0][1:] = [0.0, 0, 0]
        return max(0.0, best_total), max(0.0, best_self)


def leftover_wrappers() -> list[str]:
    """Names of mesd bindings that are still span wrappers (empty when clean)."""
    found = []
    for module in _package_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and hasattr(value.__dict__.get("__init__"), _MARK):
                found.append(f"{module.__name__}.{key}.__init__")
    return sorted(set(found))
