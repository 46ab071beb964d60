"""Conditioner networks: linear layers, batch norm, MLPs, relational graph conv.

Networks live inside coupling layers and compute scale/translation values from
the masked part of the input, so they never need to be inverted themselves.
Every output head is zero-initialized, which makes a freshly built model the
exact identity map.

Training runs on :class:`~graphnvp.tensor.Tensor` ops, with batch norm over
the batch statistics.  Eval runs on plain arrays, in each net's
``eval_array``, with the kernels of :mod:`~graphnvp.kernels` that the Tensor
ops also call; there batch norm is a fixed per-feature affine map ``y * s +
b'`` from the running statistics.  :class:`MlpNet`, which holds most of the
weights, applies that map without a copy of any weight: per hidden layer one
GEMM with the parameter's own weight, its output scaled by ``s`` and shifted
by ``b'`` in place, one finiteness check, then relu in place.
:class:`RelationalGraphConvNet` does the same in its last round, which
computes the target row alone, [batch, H].  Its all-node rounds fold ``s``
into copies of their weights instead (Jacob et al. 2018, §3.2): those copies
are small (13 KiB a round on qm9lite), while those rounds have one output row
per node of every sample, and an extra scaling pass over them measured
slower.  Per all-node round it runs one R-GCN round with the folded weights,
the bias added in place, a finiteness check, then tanh in place, one block
of samples at a time, into the pass's :class:`Conditioning` scratch.
When an output is non-finite, the layer's output is recomputed unscaled to
name the op that the unfolded eval would: the layer's own, or
``batch_norm``.  The arrays eval runs on are cached on their net, tagged with
a module-level version counter that every parameter or buffer change bumps.

A module built with ``rng=None`` draws nothing: each randomly initialized
weight is a placeholder that holds no memory, for a checkpoint load to
fill through :class:`~graphnvp.flow.FlowModel`'s vector.
"""
from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from . import kernels as K
from . import tensor as T
from .errors import NumericError, ShapeError
from .tensor import Tensor

_versions = itertools.count(1)
_version = 0

# Samples per block in :meth:`RelationalGraphConvNet.eval_array`: every block
# holds SAMPLE_BLOCK to 2 * SAMPLE_BLOCK - 1 samples, which bounds the
# all-node rounds' scratch arrays whatever the batch.
SAMPLE_BLOCK = 128


def parameters_changed() -> None:
    """Invalidate every cached batch-norm fold.  The :class:`Module` setters
    call it; code that updates parameter values in place must call it too.
    Each call publishes a value never used before, so a bump racing another
    thread's is not lost the way ``_version += 1`` could be."""
    global _version
    _version = next(_versions)


class Module:
    """Tree of named parameters (trainable) and buffers (running state)."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, "Module"] = {}

    def register_parameter(self, name: str, value: Tensor) -> Tensor:
        self._params[name] = value
        parameters_changed()
        return value

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        parameters_changed()
        return self._buffers[name]

    def register_child(self, name: str, child: "Module") -> "Module":
        self._children[name] = child
        return child

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in self._params.items():
            yield prefix + name, value
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, value in self._buffers.items():
            yield prefix + name, value
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def get_parameter(self, name: str) -> Tensor:
        module, leaf = self._resolve(name)
        return module._params[leaf]

    def set_parameter(self, name: str, value: Tensor) -> None:
        """Write ``value`` into the parameter's storage, in place: in a model, its vector."""
        module, leaf = self._resolve(name)
        arr = module._params[leaf].data
        if arr.shape != value.shape:
            raise ShapeError(f"parameter {name}: shape {value.shape} != {arr.shape}")
        arr.flags.writeable = True  # allowed: it owns its memory, or views a writable array
        arr[...] = value.data
        arr.flags.writeable = False
        parameters_changed()

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        module, leaf = self._resolve(name)
        old = module._buffers[leaf]
        value = np.asarray(value, dtype=np.float64)
        if old.shape != value.shape:
            raise ShapeError(f"buffer {name}: shape {value.shape} != {old.shape}")
        module._buffers[leaf] = value
        parameters_changed()

    def _resolve(self, name: str) -> tuple["Module", str]:
        module = self
        parts = name.split(".")
        for part in parts[:-1]:
            if part not in module._children:
                raise KeyError(f"no submodule {part!r} while resolving {name!r}")
            module = module._children[part]
        leaf = parts[-1]
        if leaf not in module._params and leaf not in module._buffers:
            raise KeyError(f"no parameter or buffer named {name!r}")
        return module, leaf

    def load_parameters(self, values: dict[str, Tensor]) -> None:
        for name, value in values.items():
            self.set_parameter(name, value)


def _drawn(rng: np.random.Generator | None, n_in: int, n_out: int, *lead: int) -> Tensor:
    """A Glorot-uniform weight [*lead, n_in, n_out], whose bound depends on
    ``n_in`` and ``n_out`` alone; or with ``rng`` None a zero placeholder of
    its shape broadcast from one scalar, so it holds no memory."""
    if rng is None:  # a read-only scalar, so a write through the view raises
        return T._frozen(np.broadcast_to(T._frozen(np.zeros(())).data, (*lead, n_in, n_out)))
    bound = np.sqrt(6.0 / (n_in + n_out))
    return Tensor(rng.uniform(-bound, bound, size=(*lead, n_in, n_out)))


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None, zero_init: bool = False):
        super().__init__()
        weight = Tensor(np.zeros((n_in, n_out))) if zero_init else _drawn(rng, n_in, n_out)
        self.register_parameter("weight", weight)
        self.register_parameter("bias", Tensor(np.zeros(n_out)))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self._params["weight"], self._params["bias"])


class BatchNorm(Module):
    """Normalize over all axes except the last (features).

    Called, it normalizes with the batch statistics and updates the running
    estimates; :meth:`eval_affine` gives the fixed affine map that eval
    applies with the running statistics.
    """

    momentum = 0.1  # weight of the batch statistics in each running update
    eps = 1e-5

    def __init__(self, num_features: int):
        super().__init__()
        self.register_parameter("gamma", Tensor(np.ones(num_features)))
        self.register_parameter("beta", Tensor(np.zeros(num_features)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def __call__(self, x: Tensor, activation: str | None = None, row: int | None = None) -> Tensor:
        """``activation`` ("tanh" or "relu") is fused into the same record.
        Given ``row``, only ``x[:, row]`` is normalized and returned (see
        :func:`~graphnvp.tensor.batch_norm`)."""
        p, m = self._params, self.momentum
        out, mean, var = T.batch_norm(x, p["gamma"], p["beta"], self.eps, activation=activation, row=row)
        self._buffers["running_mean"] = (1 - m) * self._buffers["running_mean"] + m * mean
        self._buffers["running_var"] = (1 - m) * self._buffers["running_var"] + m * var
        parameters_changed()
        return out

    def eval_affine(self, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """This module's eval map after a layer with ``bias``, as ``y * s +
        b'`` on the layer's product ``y`` without its bias: the scale ``s =
        gamma * (running_var + eps) ** -0.5`` and the bias ``b' = (bias -
        running_mean) * s + beta``.  Either may be non-finite."""
        mean, var = self._buffers["running_mean"], self._buffers["running_var"]
        if not np.isfinite(var).all():
            raise NumericError("batch_norm produced a non-finite variance")
        s = self._params["gamma"].data * np.power(var + self.eps, -0.5)
        return s, (bias - mean) * s + self._params["beta"].data

    def fold(self, layer: Module) -> tuple[np.ndarray, ...]:
        """``layer``'s parameter arrays, in registration order, with this
        module's eval map folded in: each weight is scaled by ``s`` along its
        output (last) axis and the bias becomes ``b'`` (see
        :meth:`eval_affine`).  A non-finite result raises as batch norm."""
        s, bias = self.eval_affine(layer._params["bias"].data)
        folded = [bias if name == "bias" else p.data * s for name, p in layer._params.items()]
        return tuple(K.check_finite(arr, "batch_norm") for arr in folded)


class _ConditionerNet(Module):
    """``depth`` hidden layers ``{layer}{k}``, each followed by batch norm
    ``bn{k}``, then a linear ``head``; caches the arrays eval runs on (see
    the module docstring)."""

    def __init__(self, layer: str, depth: int):
        super().__init__()
        self._layer, self.depth = layer, depth
        self._cache: tuple[int, list[tuple[np.ndarray, ...]]] = (-1, [])

    def _eval_layers(self) -> list[tuple[np.ndarray, ...]]:
        """Per layer, the arrays eval runs it with: each hidden layer's from
        :meth:`_eval_layer`, then the head's weight and bias.  Rebuilt after
        any parameter or buffer change."""
        version = _version
        if self._cache[0] != version:
            layers = [self._eval_layer(k) for k in range(self.depth)]
            head = self._children["head"]._params
            self._cache = (version, layers + [(head["weight"].data, head["bias"].data)])
        return self._cache[1]

    def _eval_layer(self, k: int) -> tuple[np.ndarray, ...]:
        """The arrays eval runs hidden layer ``k`` and its batch norm with:
        where :meth:`_folds` says so, the layer's arrays with batch norm
        folded in (:meth:`BatchNorm.fold`); else the layer's own weights,
        not copies, then the scale ``s`` and the bias ``b'`` of
        :meth:`BatchNorm.eval_affine` for their product."""
        layer, norm = self._children[f"{self._layer}{k}"], self._children[f"bn{k}"]
        if self._folds(k):
            return norm.fold(layer)
        p = layer._params
        return (*(v.data for name, v in p.items() if name != "bias"), *norm.eval_affine(p["bias"].data))

    def _folds(self, k: int) -> bool:
        """Whether eval runs hidden layer ``k`` on folded copies."""
        return False

    def _checked(self, k: int, y: np.ndarray, *inputs) -> np.ndarray:
        """``y``, hidden layer ``k``'s output on ``inputs`` with batch norm
        applied, once checked.  A non-finite value raises what the unfolded
        eval would: the layer's own error, if its output recomputed by
        :meth:`_layer_output` is already non-finite, else batch norm's."""
        if not np.isfinite(y).all():
            self._layer_output(self._children[f"{self._layer}{k}"], *inputs)
            raise NumericError("batch_norm produced a non-finite value")
        return y

    def _normed(self, k: int, y: np.ndarray, s: np.ndarray, b: np.ndarray, *inputs) -> np.ndarray:
        """Hidden layer ``k``'s product ``y`` on ``inputs``, without its
        bias, scaled by ``s`` and shifted by ``b`` in place, then checked."""
        y *= s
        y += b
        return self._checked(k, y, *inputs)

    @staticmethod
    def _layer_output(layer: Module, *inputs) -> np.ndarray:
        """Hidden ``layer``'s output on ``inputs``, its bias added, checked
        under its op's name."""
        raise NotImplementedError


class MlpNet(_ConditionerNet):
    """Fully connected net; hidden relu layers, zero-initialized output head."""

    def __init__(self, n_in: int, hidden: tuple[int, ...], n_out: int, rng: np.random.Generator | None):
        super().__init__("lin", len(hidden))
        widths = [n_in, *hidden]
        for k in range(len(hidden)):
            self.register_child(f"lin{k}", Linear(widths[k], widths[k + 1], rng))
            self.register_child(f"bn{k}", BatchNorm(widths[k + 1]))
        self.register_child("head", Linear(widths[-1], n_out, rng, zero_init=True))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Eval output [batch, n_out] for a finite array [batch, n_in]: per
        hidden layer one GEMM, scaled and shifted in place, checked before
        its relu; then the head's GEMM and bias, checked."""
        *hidden, head = self._eval_layers()
        h = x
        for k, (w, s, b) in enumerate(hidden):
            y = self._normed(k, np.matmul(h, w), s, b, h)
            h = np.maximum(y, 0.0, out=y)
        return K.linear(h, *head)

    @staticmethod
    def _layer_output(layer: Module, x: np.ndarray) -> np.ndarray:
        p = layer._params
        return K.linear(x, p["weight"].data, p["bias"].data)

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for k in range(self.depth):
            h = self._children[f"bn{k}"](self._children[f"lin{k}"](h), "relu")
        return self._children["head"](h)


class Conditioning:
    """One flow pass's discrete adjacency [batch, N, N, R], laid out once as
    the R-GCN's C-contiguous ``a_rows`` [batch, N*R, N] (row ``i*R + r`` is
    ``A[:, i, :, r]``), and the scratch its all-node rounds write into.  A
    pass lets it die on return, so the scratch is not kept past the pass."""

    def __init__(self, adjacency: np.ndarray):
        batch, n, _, r = adjacency.shape
        self.a_rows = np.ascontiguousarray(adjacency.transpose(0, 1, 3, 2)).reshape(batch, n * r, n)
        self.scratch: dict = {}

    def bonds(self) -> np.ndarray:
        """The adjacency [batch, N, N, R], a view of ``a_rows``."""
        batch, rows, n = self.a_rows.shape
        return self.a_rows.reshape(batch, n, rows // n, n).transpose(0, 1, 3, 2)

    def into(self, j: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """The [rows, cols] pair all-node round ``j`` writes its output and
        its self-loop product into: the leading rows of scratch arrays made
        on first use or when too small, holding what the last user left.
        The outputs alternate between two arrays: round ``j`` reads ``j-1``'s."""
        for key in (j % 2, "self_loop"):
            arr = self.scratch.get(key)
            if arr is None or arr.shape[0] < rows or arr.shape[1] != cols:
                self.scratch[key] = np.empty((rows, cols))
        return self.scratch[j % 2][:rows], self.scratch["self_loop"][:rows]


class RelGraphRound(Module):
    """One relational message-passing round in the single-sum R-GCN form,
    computed by :func:`~graphnvp.tensor.graph_conv` as one tape record.

    Node ``i`` of the output is ``sum_r sum_j A[i, j, r] h_j W_r + h_i W_self + b``.
    """

    def __init__(self, n_in: int, n_out: int, num_relations: int, rng: np.random.Generator | None):
        super().__init__()
        self.register_parameter("rel_weight", _drawn(rng, n_in, n_out, num_relations))
        self.register_parameter("self_weight", _drawn(rng, n_in, n_out))
        self.register_parameter("bias", Tensor(np.zeros(n_out)))

    def __call__(self, h: Tensor, a_rows: np.ndarray) -> Tensor:
        # a_rows: constant [batch, N*R, N], row i*R + r is A[:, i, :, r]; h: [batch, N, F].
        p = self._params
        return T.graph_conv(h, a_rows, p["rel_weight"], p["self_weight"], p["bias"])


class RelationalGraphConvNet(_ConditionerNet):
    """Message passing over the discrete adjacency tensor, one output row.

    Returns the zero-initialized head applied to the embedding of a single
    target node, so the output only depends on the other nodes' features and
    the graph structure.  In training the batch statistics span every node,
    so every round stays full and only the last batch norm keeps to the
    target row; in eval batch norm is a fixed per-feature affine map, so the
    last round computes the target row alone.
    """

    def __init__(
        self,
        n_in: int,
        hidden: int,
        n_out: int,
        num_relations: int,
        rounds: int,
        rng: np.random.Generator | None,
    ):
        super().__init__("round", rounds)
        widths = [n_in] + [hidden] * rounds
        for k in range(rounds):
            self.register_child(f"round{k}", RelGraphRound(widths[k], widths[k + 1], num_relations, rng))
            self.register_child(f"bn{k}", BatchNorm(widths[k + 1]))
        self.register_child("head", Linear(hidden, n_out, rng, zero_init=True))

    def _folds(self, k: int) -> bool:
        # The all-node rounds; the target round's [batch, H] product is
        # scaled instead, so its weights are not copied.
        return k < self.depth - 1

    @staticmethod
    def _layer_output(layer: Module, h: np.ndarray, a_rows: np.ndarray, row: int | None) -> np.ndarray:
        p = layer._params
        y = K.graph_conv(h, a_rows, p["rel_weight"].data, p["self_weight"].data, p["bias"].data, row)
        return K.check_finite(y, "graph_conv")

    def eval_array(self, x: np.ndarray, conditioning: Conditioning, row: int) -> np.ndarray:
        """Eval output [batch, n_out] for node ``row`` of a finite array
        [batch, N, n_in]: one :func:`~graphnvp.kernels.graph_conv` per round,
        checked before its tanh.  The all-node rounds run on folded weights;
        the last round computes ``row`` alone, with its parameters' own
        weights and no bias, and scales and shifts that product in place.

        The batch runs in ``max(1, batch // SAMPLE_BLOCK)`` near-equal blocks
        of samples, the larger first, each through every round and the head.
        The all-node rounds write into ``conditioning``'s scratch, sized for
        the first block, so every layer of a pass reuses that [block*N, H]
        memory.  A non-finite value raises from the first block that holds
        one.
        """
        batch, n = x.shape[:2]
        blocks = max(1, batch // SAMPLE_BLOCK)
        size, extra = divmod(batch, blocks)
        *rounds, head = self._eval_layers()
        out = np.empty((batch, head[1].shape[0]))
        start = 0
        for k in range(blocks):
            stop = start + size + (k < extra)
            a_rows, h = conditioning.a_rows[start:stop], x[start:stop]
            for j, weights in enumerate(rounds[:-1]):
                into = conditioning.into(j, h.shape[0] * n, weights[2].shape[0])
                y = self._checked(j, K.graph_conv(h, a_rows, *weights, None, into), h, a_rows, None)
                h = np.tanh(y, out=y)
            w_rel, w_self, s, b = rounds[-1]
            y = K.graph_conv(h, a_rows, w_rel, w_self, None, row)
            y = self._normed(self.depth - 1, y, s, b, h, a_rows, row)
            out[start:stop] = K.linear(np.tanh(y, out=y), *head)
            start = stop
        return out

    def __call__(self, x: Tensor, conditioning: Conditioning, row: int) -> Tensor:
        h = x
        for k in range(self.depth):
            conv = self._children[f"round{k}"](h, conditioning.a_rows)
            h = self._children[f"bn{k}"](conv, "tanh", row if k == self.depth - 1 else None)
        return self._children["head"](h)
