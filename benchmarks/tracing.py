"""Spans around calls into rankreg's public functions, installed from outside the package.

``cli`` and ``harness`` import functions by name, so each wrapper replaces the
function in the module that defines it *and* in every rankreg module that
holds the same object (``rankreg.cli.read_samples_csv``,
``rankreg.harness.solve_alpha_for_pe``, the package namespace).  Without that
the spans would miss those calls.  Uninstalling restores every original, so
untraced operations run the unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("randomness", "calibration", "comparisons", "estimator", "harness", "cli")


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent index, measured value].

    ``measures`` maps a span name to ``fn(args, kwargs, result)`` whose value
    is stored with the span, e.g. bytes written.  Spans stay in memory until
    :meth:`take` hands them out.  Single-threaded use only.
    """

    def __init__(self, measures=None):
        self.measures = measures or {}
        self._spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        measure = self.measures.get(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "rankreg" or n.startswith("rankreg.")]
        for layer in LAYERS:
            module = sys.modules[f"rankreg.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for held_as, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, held_as, fn))
                            setattr(holder, held_as, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, held_as, fn in reversed(self._patches):
            setattr(holder, held_as, fn)
        self._patches.clear()
        return False

    def take(self) -> list:
        """The spans recorded since the last call, in start order."""
        spans = list(self._spans)
        self._spans.clear()
        return spans


class LayerStats:
    """Per-name call counts, self time and measured values, summed over operations."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.values = defaultdict(list)
        self.operations = 0

    def add(self, spans: list) -> None:
        """Fold in the spans of one operation.

        Self time is a span's duration minus its children's durations; calls
        are sequential, so children never overlap.
        """
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, value), children in zip(spans, child_s):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - children
            if value is not None:
                self.values[name].append(value)
        self.operations += 1

    def per_op(self, table: dict) -> dict:
        return {name: value / self.operations for name, value in table.items()}
