"""Spans around the functions ``qmarkov.cli`` calls into, installed from outside.

``Tracer.install`` replaces ``qmarkov.cli``'s own module-level names with
timing wrappers, so spans cover exactly the code a user runs.  A name the
module no longer has is recorded as a missing span instead of failing, so a
later refactor of the CLI's imports leaves the benchmark running.
"""

import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

WRAPPED = (
    "load_chain",
    "compile_to_circuit",
    "enumerate_paths",
    "execute",
    "probabilities",
    "sample_counts",
    "compare_runs",
    "to_json_text",
)


class Tracer:
    """In-memory spans of one pass; ``take`` summarises and clears them."""

    def __init__(self):
        self.missing = []
        self._spans = []  # [name, start_ns, end_ns, parent index or None]
        self._stack = []
        self._reset_counters()

    def _reset_counters(self):
        self._gate_ops = Counter()
        self._amp_ops = 0
        self._peak_bytes = 0

    @contextmanager
    def span(self, name: str):
        index = len(self._spans)
        record = [name, time.perf_counter_ns(), None, self._stack[-1] if self._stack else None]
        self._spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def install(self, module) -> None:
        for name in WRAPPED:
            fn = getattr(module, name, None)
            if fn is None:
                self.missing.append(name)
            else:
                setattr(module, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        if name == "execute":
            return self._wrap_execute(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "compile_to_circuit":
                self._gate_ops = Counter(op.name for op in result.ops)
            return result

        return traced

    def _wrap_execute(self, fn):
        # tracemalloc runs around execute only; numpy reports its buffers to it.
        def traced(circuit, *args, **kwargs):
            tracemalloc.start()
            try:
                with self.span("execute"):
                    result = fn(circuit, *args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self._peak_bytes = max(self._peak_bytes, peak)
            self._amp_ops += len(circuit.ops) << circuit.num_qubits
            return result

        return traced

    def take(self) -> dict:
        """Self time per span name (seconds) and the layer counters of the pass.

        A span's self time is its duration minus the durations of its children.
        """
        duration = [end - start for _, start, end, _ in self._spans]
        child = [0] * len(self._spans)
        for i, (_, _, _, parent) in enumerate(self._spans):
            if parent is not None:
                child[parent] += duration[i]
        self_s = Counter()
        for i, (name, _, _, _) in enumerate(self._spans):
            self_s[name] += (duration[i] - child[i]) / 1e9
        summary = {
            "self_s": dict(self_s),
            "gate_ops": dict(self._gate_ops),
            "amp_ops": self._amp_ops,
            "peak_bytes": self._peak_bytes,
        }
        self._spans.clear()
        self._reset_counters()
        return summary
