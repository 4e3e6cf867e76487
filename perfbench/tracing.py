"""Traced run: spans around dualheap's public functions, from outside.

Each traced function is replaced, in every loaded ``dualheap`` module, at
every name bound to it, so callers that imported it into their own
namespace (``from .core import build_min_heap``) call the wrapper too. A
wrapper records one span per call: its function, start, end and parent span.
Spans stay in memory, in compact arrays, until ``summary`` derives each
function's self time (its duration minus the durations of its direct
children) once the run is over. A function that no longer exists is
reported as absent instead of being wrapped.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (layer, defining module, function). The layer is the metric prefix.
FUNCTIONS = (
    ("core", "dualheap.core", "build_min_heap"),
    ("core", "dualheap.core", "build_max_heap"),
    ("swaps", "dualheap.swaps", "run_swapping_phase"),
    ("select", "dualheap.select", "dh_select"),
    ("select", "dualheap.select", "dh_sort"),
    ("select", "dualheap.select", "prepare_buffer"),
    ("select", "dualheap.select", "verify_partition"),
    ("baselines", "dualheap.baselines", "quickselect"),
    ("baselines", "dualheap.baselines", "oracle_select"),
    ("bench", "dualheap.bench", "generate"),
    ("bench", "dualheap.bench", "run_benchmark"),
    ("bench", "dualheap.bench", "emit_csv"),
    ("cli", "dualheap.cli", "main"),
)

# The root span of every operation; its self time is the benchmark's own
# share of the operation.
OP_SPAN = "perfbench.op"


def _call(body, *args):
    return body(*args)


class Tracer:
    """Span recorder for one traced run. ``install`` wraps the functions,
    ``uninstall`` puts the originals back."""

    def __init__(self):
        self.names = [f"{layer}.{name}" for layer, _, name in FUNCTIONS] + [OP_SPAN]
        self.func_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # run_op(body, *args) calls body(*args) inside an operation's root span.
        self.run_op = self._wrap(len(FUNCTIONS), _call)

    def _wrap(self, func_id: int, original):
        func_ids, parents, starts, ends, stack = self.func_ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(func_ids)
            func_ids.append(func_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(span)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = start
                stack.pop()

        return traced

    def install(self) -> None:
        self.absent = []
        originals = {}
        for func_id, (layer, module_name, name) in enumerate(FUNCTIONS):
            try:
                originals[func_id] = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                self.absent.append(f"{layer}.{name}")
        modules = [m for name, m in list(sys.modules.items()) if name == "dualheap" or name.startswith("dualheap.")]
        for func_id, original in originals.items():
            wrapper = self._wrap(func_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self, ops: int) -> dict[str, tuple[float, float]]:
        """Per span name: (self seconds per operation, calls per operation)."""
        count = len(self.func_ids)
        child_ns = [0] * count
        for span in range(count):
            parent = self.parents[span]
            if parent >= 0:
                child_ns[parent] += self.ends[span] - self.starts[span]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for span in range(count):
            func_id = self.func_ids[span]
            self_ns[func_id] += self.ends[span] - self.starts[span] - child_ns[span]
            calls[func_id] += 1
        return {name: (self_ns[i] / 1e9 / ops, calls[i] / ops) for i, name in enumerate(self.names)}
