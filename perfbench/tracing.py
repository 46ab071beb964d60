"""Span tracing installed around graphnvp's public calls from outside the library.

Each boundary is a library function or method replaced by a timing wrapper.
Modules that did ``from .x import name`` hold their own reference, so a
function wrapper is installed in every loaded ``graphnvp`` namespace that
bound the original object; methods are wrapped once, on their class.

A span is ``(name, parent span index, op id, start, end)``; the span's index
in :attr:`Tracer.spans` is its id.  Spans stay in memory until
:meth:`Tracer.write` is called at the end of a run.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# The 16 primitives of graphnvp.tensor; ``log`` is defined but unused by the
# model, so 15 of them appear on a training tape.
TENSOR_OPS = (
    "add", "sub", "mul", "matmul", "exp", "log", "tanh", "relu", "power",
    "sum_axis", "mean_axis", "concat", "slice_axis", "index_axis",
    "masked_assign", "reshape",
)

# (module, attribute, span name)
FUNCTIONS = [
    ("graphnvp.train", "nll_loss", "train.nll_loss"),
    ("graphnvp.train", "adam_step", "train.adam_step"),
    ("graphnvp.flow", "load_checkpoint", "flow.load_checkpoint"),
    ("graphnvp.graphs", "argmax_adjacency", "graphs.argmax_adjacency"),
    ("graphnvp.graphs", "discretize_argmax", "graphs.discretize_argmax"),
    ("graphnvp.chem", "load_dataset", "chem.load_dataset"),
    ("graphnvp.chem", "from_graph", "chem.from_graph"),
    ("graphnvp.chem", "check_validity", "chem.check_validity"),
    ("graphnvp.chem", "write_smiles_canonical", "chem.canonical"),
    ("graphnvp.sampling", "generate", "sampling.generate"),
    ("graphnvp.sampling", "compute_metrics", "sampling.compute_metrics"),
    ("graphnvp.sampling", "reconstruction_rate", "sampling.reconstruction_rate"),
    ("graphnvp.latent", "encode_dataset", "latent.encode_dataset"),
    ("graphnvp.latent", "fit_regressor", "latent.fit_regressor"),
    ("graphnvp.latent", "optimize_along", "latent.optimize_along"),
] + [("graphnvp.tensor", op, f"tensor.forward.{op}") for op in TENSOR_OPS]

# (module, class, method, span name)
METHODS = [
    ("graphnvp.tensor", "GradientTape", "gradients", "tensor.backward"),
    ("graphnvp.nets", "RelationalGraphConvNet", "__call__", "nets.rgcn"),
    ("graphnvp.nets", "MlpNet", "__call__", "nets.mlp"),
    ("graphnvp.nets", "BatchNorm", "__call__", "nets.batchnorm"),
    ("graphnvp.nets", "Module", "load_parameters", "nets.load_parameters"),
    ("graphnvp.flow", "NodeFeatureCouplingLayer", "forward", "flow.node_forward"),
    ("graphnvp.flow", "NodeFeatureCouplingLayer", "inverse", "flow.node_inverse"),
    ("graphnvp.flow", "AdjacencyCouplingLayer", "forward", "flow.adj_forward"),
    ("graphnvp.flow", "AdjacencyCouplingLayer", "inverse", "flow.adj_inverse"),
    ("graphnvp.flow", "FlowModel", "forward_batch", "flow.forward_batch"),
    ("graphnvp.flow", "FlowModel", "inverse_batch", "flow.inverse_batch"),
]

# Backward spans are named after the primitive whose vjp ran; they are not a
# wrapped boundary of their own.
BOUNDARIES = tuple(name for *_, name in FUNCTIONS + METHODS)


class Tracer:
    """Records spans at every boundary while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_id = 0
        self.tape_records = 0
        self.generated = 0
        self.generated_valid = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, self.op_id, start, end)

        return traced

    def _gradients(self, fn):
        """Times each recorded vjp, keyed by the primitive that defined it."""

        def gradients(tape, loss):
            self.tape_records += len(tape.records)
            for rec in tape.records:
                op = rec.vjp.__qualname__.split(".", 1)[0]
                rec.vjp = self._wrap(f"tensor.backward.{op}", rec.vjp)
            return fn(tape, loss)

        return self._wrap("tensor.backward", gradients)

    def _generate(self, fn):
        def generate(model, config):
            samples = fn(model, config)
            self.generated += len(samples)
            self.generated_valid += sum(1 for s in samples if s.valid)
            return samples

        return self._wrap("sampling.generate", generate)

    def install(self) -> None:
        import graphnvp  # noqa: F401  (loads every submodule)

        namespaces = [m for n, m in sys.modules.items() if n == "graphnvp" or n.startswith("graphnvp.")]
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._generate(original) if name == "sampling.generate" else self._wrap(name, original)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is original]:
                    self._undo.append((ns, key, original))
                    setattr(ns, key, wrapped)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            wrapped = self._gradients(original) if name == "tensor.backward" else self._wrap(name, original)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds over spans[first:last]."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for name, parent, _, start, end in spans:
            if parent >= first:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, _, _, start, end) in enumerate(spans, start=first):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, parent, op_id, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, op_id, name, start, end]) + "\n")
