"""Spans around the calls into each hybridtn layer, installed from outside.

The package has no tracing of its own, so the tracer swaps module and
class attributes for timing wrappers and puts the originals back on exit.
A function imported by name into another module is a separate attribute
there (``ite`` and ``tree`` bind ``_apply_1q`` at import), so every such
binding is wrapped.  A target that does not exist is skipped, and its
metrics read 0.

Each wrapped call is a span.  A span's self time is its duration minus the
time its child spans cover.  Gate-kernel calls are only aggregated, as they
run by the million on small trees; every other span is kept in memory with
its parent and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

KERNEL = "statevector.kernel"

# (span name, module, attribute path)
TARGETS = (
    (KERNEL, "hybridtn.statevector", "apply_op_array"),
    (KERNEL, "hybridtn.statevector", "_apply_1q"),
    (KERNEL, "hybridtn.ite", "apply_op_array"),
    (KERNEL, "hybridtn.ite", "_apply_1q"),
    (KERNEL, "hybridtn.tree", "_apply_1q"),
    ("ite.stack", "hybridtn.ite", "_perturbed_stack"),
    ("ite.gram", "hybridtn.ite", "_FdWorkspace.__init__"),
    ("ite.overlap_fd", "hybridtn.ite", "TreeProblem._overlap_fd_matrix"),
    ("ite.energies_fd", "hybridtn.ite", "TreeProblem._energies_fd"),
    ("ite.energy", "hybridtn.ite", "TreeProblem.energy"),
    ("ite.flow_solve", "hybridtn.ite", "flow_direction"),
    ("ite.metric", "hybridtn.ite", "metric_a"),
    ("ite.gradient", "hybridtn.ite", "gradient_c"),
    ("ite.step", "hybridtn.ite", "ite_step"),
    ("tree.energy", "hybridtn.tree", "tree_energy"),
    ("tree.energy", "hybridtn.ite", "tree_energy"),
    ("tree.overlap", "hybridtn.tree", "tree_overlap"),
    ("tree.overlap", "hybridtn.ite", "tree_overlap"),
    ("tensors.family_states", "hybridtn.tensors", "QuantumTensor.family_states"),
    ("tensors.mps", "hybridtn.tensors", "mps_general_expectation"),
    ("tensors.mps", "hybridtn.tensors", "mps_open_site_matrix"),
    ("tensors.mps", "hybridtn.tree", "mps_general_expectation"),
    ("tensors.mps", "hybridtn.tree", "mps_open_site_matrix"),
    ("pauli.decompose", "hybridtn.pauli", "decompose_for_layout"),
    ("pauli.decompose", "hybridtn.tree", "decompose_for_layout"),
    ("pauli.decompose", "hybridtn.ite", "decompose_for_layout"),
    ("oracles.exact", "hybridtn.oracles", "exact_ground_energy"),
    ("oracles.assemble", "hybridtn.oracles", "hamiltonian_matrix"),
    ("oracles.eigh", "scipy.linalg", "eigh"),
    ("oracles.lanczos", "hybridtn.oracles", "_lanczos_ground"),
    ("oracles.matvec", "hybridtn.oracles", "apply_hamiltonian"),
)


class Tracer:
    """Context manager that wraps :data:`TARGETS` while it is active."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.top_kernel_calls = 0
        self.spans: list[tuple] = []  # (id, parent id, name, start_ns, end_ns)
        self.skipped: list[str] = []
        self._stack: list[list] = []  # frames: [child_ns, span id, is kernel]
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        is_kernel = name == KERNEL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_kernel:
                if not stack or not stack[-1][2]:
                    self.top_kernel_calls += 1
                frame = [0, -1, True]
            else:
                frame = [0, self._next_id, False]
                self._next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[0]
                if not is_kernel:
                    spans.append((frame[1], parent, name, start, end))

        return traced

    def __enter__(self) -> "Tracer":
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}.{path}")
                self.stats.setdefault(name, [0, 0, 0])
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- read-out -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] * 1e-9

    def spans_named(self, name: str) -> list[tuple]:
        return [span for span in self.spans if span[2] == name]

    def write(self, path) -> None:
        """Spans as columns (name index, parent id, start, duration in ns)."""
        names = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = min((span[3] for span in self.spans), default=0)
        doc = {
            "names": names,
            "columns": ["id", "parent", "name", "start_ns", "duration_ns"],
            "spans": [
                [sid, parent, index[name], start - origin, end - start]
                for sid, parent, name, start, end in self.spans
            ],
            "stats": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "top_kernel_calls": self.top_kernel_calls,
            "skipped": self.skipped,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
