"""Spans and counters recorded from outside qkflow.

The tracer replaces public functions at the module attribute their caller
looks up (qkflow uses ``from .x import y``, so ``qkernel.apply_circuit`` is
what the Gram code calls, not ``statevector.apply_circuit``). Each wrapper
records one span ``(name, start_ns, end_ns, parent)`` and per-layer counts.
Spans stay in memory until ``write_spans`` is called at the end of a run.

A hook point that a later version of qkflow no longer has is skipped, so
its counters read 0 instead of the benchmark failing.
"""

from __future__ import annotations

import gzip
import importlib
import time
import warnings
from collections import Counter

# (layer span name, module, attribute, counting hook name or None)
HOOKS = (
    ("statevector.apply_circuit", "qkflow.qkernel", "apply_circuit", "_count_gates"),
    ("statevector.sample_measurements", "qkflow.qkernel", "sample_measurements", None),
    ("featuremap.build_encoding_circuit", "qkflow.qkernel", "build_encoding_circuit", None),
    ("qkernel.gram_matrix", "qkflow.training", "gram_matrix", "_count_gram"),
    ("qkernel.gram_matrix", "qkflow.model_io", "gram_matrix", "_count_gram"),
    ("qkernel.cross_gram", "qkflow.model_io", "cross_gram", "_count_cross"),
    ("kernel_methods.svc_fit", "qkflow.training", "svc_fit", "_count_svc"),
    ("kernel_methods.svc_fit", "qkflow.cli", "svc_fit", "_count_svc"),
    ("kernel_methods.svr_fit", "qkflow.cli", "svr_fit", None),
    ("kernel_methods.krr_fit", "qkflow.cli", "krr_fit", None),
    ("kernel_methods.predict", "qkflow.cli", "svc_predict", None),
    ("kernel_methods.predict", "qkflow.cli", "krr_predict", None),
    ("kernel_methods.predict", "qkflow.cli", "svr_predict", None),
    ("training.qka_align", "qkflow.cli", "qka_align", "_count_align"),
    ("datasets.io", "qkflow.cli", "load_csv", None),
    ("datasets.io", "qkflow.cli", "save_dataset", None),
    ("model_io.io", "qkflow.cli", "load_model", None),
    ("model_io.io", "qkflow.cli", "save_model", None),
)

# solvers whose iteration-cap warning is counted as "<layer>.capped"
CAP_WARNINGS = {
    "kernel_methods.svc_fit": "svc_fit hit the iteration cap",
    "kernel_methods.svr_fit": "svr_fit hit the iteration cap",
}

AMPLITUDE_BYTES = 16  # complex128


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, child_ns]
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        record = [name, 0, 0, parent]
        self.spans.append(record)
        frame = [index, 0]
        self._stack.append(frame)
        capped = CAP_WARNINGS.get(name)
        start = time.perf_counter_ns()
        try:
            if capped is None:
                return fn(*args, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if capped in str(w.message):
                    self.counts[name + ".capped"] += 1
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            record[1], record[2] = start, end
            self.busy_ns[name] += duration
            self.self_ns[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def install(self) -> None:
        for name, module_name, attr, hook in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook and getattr(self, hook)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counting hooks: (positional args, keyword args, result) of the wrapped call

    def _count_gates(self, args, kwargs, result) -> None:
        circuit = args[1] if len(args) > 1 else kwargs["circuit"]
        gates = len(circuit.gates)
        self.counts["statevector.gates_applied"] += gates
        self.counts["statevector.bytes_computed"] += gates * (1 << circuit.n_qubits) * AMPLITUDE_BYTES

    def _count_entries(self, args, kwargs, entries: int) -> None:
        cfg = args[0] if args else kwargs.get("cfg")
        self.counts["qkernel.entries"] += entries
        if getattr(cfg, "mode", "exact") == "shots":
            self.counts["qkernel.shots_drawn"] += entries * cfg.shots

    def _count_gram(self, args, kwargs, result) -> None:
        self._count_entries(args, kwargs, result.values.size)

    def _count_cross(self, args, kwargs, result) -> None:
        self._count_entries(args, kwargs, result.size)

    def _count_svc(self, args, kwargs, result) -> None:
        self.counts["kernel_methods.svc_fit.support_vectors"] += len(result.support_indices)

    def _count_align(self, args, kwargs, result) -> None:
        self.counts["training.objective_evals"] += len(result.sv_counts)

    def write_spans(self, path) -> None:
        """Write every span as gzip CSV: index,name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start},{end},{parent}\n")
