"""Invertible flow over dequantized graphs.

Two stacks of coupling layers map a continuous (adjacency, features) pair to a
latent vector with an exactly computable Jacobian log-determinant:

* adjacency coupling: affine update of one node's adjacency slice, with scale
  and translation MLPs fed the remaining slices (scale bounded by a scaled
  tanh so the inverse never overflows);
* node-feature coupling: additive update of one node's feature row, with the
  translation computed by a relational graph conv conditioned on the discrete
  adjacency tensor (volume preserving, log-det 0).

Layer ``k`` in each stack targets node ``k mod N``, so every node is updated
as long as a stack has at least N layers.  Generation runs the adjacency
stack's inverse first, discretizes the result, and feeds it to the inverse of
the node-feature stack.

Training runs the forward pass on :class:`~graphnvp.tensor.Tensor` ops, with
batch statistics, so it can be differentiated.  Eval runs both directions on
plain arrays, with :mod:`~graphnvp.kernels`: :meth:`FlowModel.eval_forward`
and :meth:`FlowModel.inverse_batch` copy their input once into one working
buffer per stack, and each layer's ``eval_forward`` or ``inverse`` rewrites
only its target slice of that buffer, in place.  Every pass, training
included, makes one :class:`~graphnvp.nets.Conditioning` from the discrete
adjacency and hands it to each node-feature layer: the R-GCN's layout of the
adjacency, and the scratch its all-node rounds write into, both made once
per pass and gone with it.  Instead of a masked copy, each layer zeroes its
target slice in the buffer while its conditioner reads it.  Finiteness is
checked only where a NaN or Inf can first appear, each with the text the
Tensor op there would raise: the input on entry, every GEMM before its
activation, ``exp``, the row update and the log-det sums.
"""
from __future__ import annotations

import csv
import json
import math
import os
import struct
import sys
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels as K
from . import tensor as T
from .errors import CheckpointError, GnvpError, GraphError, NumericError, ShapeError
from .graphs import GraphSpec, argmax_adjacency
from .nets import Conditioning, MlpNet, Module, RelationalGraphConvNet, parameters_changed
from .tensor import Tensor, make_rng

CHECKPOINT_MAGIC = b"GNVP"
CHECKPOINT_VERSION = 1

# During encoding the two stacks are independent; this build applies the
# node-feature stack first and records the convention in every checkpoint.
FORWARD_ORDER = "node_features_first"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for one flow model."""

    adjacency_layers: int
    node_layers: int
    mlp_hidden: tuple[int, ...] = (128, 128)
    gcn_hidden: int = 64
    gcn_rounds: int = 2
    scale_cap: float = 5.0

    def __post_init__(self):
        for key in ("adjacency_layers", "node_layers", "gcn_hidden", "gcn_rounds"):
            if getattr(self, key) < 1:
                raise GnvpError(f"{key} must be >= 1, got {getattr(self, key)}")
        if min(self.mlp_hidden, default=1) < 1:
            raise GnvpError(f"every mlp_hidden width must be >= 1, got {list(self.mlp_hidden)}")
        if not 0 < self.scale_cap < math.inf:
            raise GnvpError(f"scale_cap must be finite and > 0, got {self.scale_cap}")

    def to_dict(self) -> dict:
        # Every model has batch norm; the key keeps the checkpoint format.
        return {
            "adjacency_layers": self.adjacency_layers,
            "node_layers": self.node_layers,
            "mlp_hidden": list(self.mlp_hidden),
            "gcn_hidden": self.gcn_hidden,
            "gcn_rounds": self.gcn_rounds,
            "scale_cap": self.scale_cap,
            "batch_norm": True,
        }

    @staticmethod
    def from_dict(data: dict) -> "ModelConfig":
        """The config in a checkpoint's ``model`` block.  A missing or
        mistyped key, a count below 1, or a ``scale_cap`` that is not a
        finite number > 0, raises :class:`CheckpointError` naming it."""
        _meta_field(data, "model.batch_norm", _TRUE)
        return ModelConfig(
            adjacency_layers=_meta_field(data, "model.adjacency_layers", _COUNT),
            node_layers=_meta_field(data, "model.node_layers", _COUNT),
            mlp_hidden=tuple(_meta_field(data, "model.mlp_hidden", _COUNTS)),
            gcn_hidden=_meta_field(data, "model.gcn_hidden", _COUNT),
            gcn_rounds=_meta_field(data, "model.gcn_rounds", _COUNT),
            scale_cap=float(_meta_field(data, "model.scale_cap", _CAP)),
        )


def default_model_config(spec: GraphSpec) -> ModelConfig:
    """Stack depths for the bundled specs: 27/36 for the 9-node family,
    otherwise one layer per node in both stacks."""
    if spec.num_nodes == 9:
        return ModelConfig(adjacency_layers=27, node_layers=36)
    n = spec.num_nodes
    return ModelConfig(adjacency_layers=n, node_layers=n)


class _CouplingLayer(Module):
    """Updates slice ``row`` (axis 1) of its input, with a conditioner that
    reads the rest."""

    def __init__(self, spec: GraphSpec, row: int, shape: tuple[int, ...]):
        super().__init__()
        self.spec = spec
        self.row = row
        self._row_mask = np.zeros(shape)  # 1 on the updated slice
        self._row_mask[row] = 1.0
        self._zero = Tensor(0.0)

    def _open(self, buf: np.ndarray, *args) -> tuple[np.ndarray, ...]:
        """The start of both eval directions on the finite working buffer
        ``buf``: a copy of the target slice, which is then zeroed while the
        conditioner reads the buffer, and the outputs of the subclass's
        ``_condition(buf, *args)``.  After a :class:`NumericError` the slice
        holds zeros."""
        original = buf[:, self.row].copy()
        buf[:, self.row] = 0.0
        return (original, *self._condition(buf, *args))


class AdjacencyCouplingLayer(_CouplingLayer):
    """Affine update of adjacency slice ``row`` given all other slices."""

    def __init__(self, spec: GraphSpec, row: int, config: ModelConfig, rng: np.random.Generator | None):
        super().__init__(spec, row, spec.adjacency_shape())
        n, r = spec.num_nodes, spec.num_bond_types
        self.scale_cap = config.scale_cap
        for name in ("scale_net", "translate_net"):
            self.register_child(name, MlpNet(n * n * r, config.mlp_hidden, n * r, rng))

    def forward(self, z: Tensor) -> tuple[Tensor, Tensor]:
        """Training: the transformed tensor and the per-sample log-det [batch]."""
        batch = z.shape[0]
        n, r = self.spec.num_nodes, self.spec.num_bond_types
        flat = T.reshape(T.masked_assign(z, self._row_mask, self._zero), (batch, n * n * r))
        s = T.mul(T.tanh(self._children["scale_net"](flat)), Tensor(self.scale_cap))
        t = self._children["translate_net"](flat)
        s, t = T.reshape(s, (batch, n, r)), T.reshape(t, (batch, n, r))
        row = T.index_axis(z, 1, self.row)
        new_row = T.add(T.mul(row, T.exp(s)), t)
        log_det = T.sum_axis(s, axis=(1, 2))
        return T.replace_row(z, self.row, new_row), log_det

    def _condition(self, za: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eval scale and translation [batch, N, R] of a finite working
        buffer ``za`` [batch, N, N, R] whose target slice is zero."""
        batch = za.shape[0]
        n, r = self.spec.num_nodes, self.spec.num_bond_types
        flat = za.reshape(batch, -1)
        s = self._children["scale_net"].eval_array(flat)
        np.tanh(s, out=s)
        s *= self.scale_cap
        t = self._children["translate_net"].eval_array(flat)
        return s.reshape(batch, n, r), t.reshape(batch, n, r)

    def eval_forward(self, za: np.ndarray) -> np.ndarray:
        """Apply this layer to the working buffer ``za`` in place, in eval
        mode: only the target slice is written.  Returns the per-sample
        log-det [batch]."""
        x, s, t = self._open(za)
        x *= K.check_finite(np.exp(s), "exp")
        K.check_finite(x, "mul")
        x += t
        K.check_finite(x, "add")
        za[:, self.row] = x
        return K.check_finite(s.sum(axis=(1, 2)), "sum")

    def inverse(self, za: np.ndarray) -> None:
        """Undo this layer on the working buffer ``za`` in place, in eval
        mode: only the target slice is written."""
        x, s, t = self._open(za)
        x -= t
        K.check_finite(x, "sub")
        np.negative(s, out=s)
        x *= K.check_finite(np.exp(s, out=s), "exp")
        K.check_finite(x, "mul")
        za[:, self.row] = x


class NodeFeatureCouplingLayer(_CouplingLayer):
    """Additive update of feature row ``row``; log-det is exactly zero."""

    def __init__(self, spec: GraphSpec, row: int, config: ModelConfig, rng: np.random.Generator | None):
        super().__init__(spec, row, spec.feature_shape())
        m = spec.num_atom_types
        self.register_child(
            "translate_net",
            RelationalGraphConvNet(
                n_in=m,
                hidden=config.gcn_hidden,
                n_out=m,
                num_relations=spec.num_bond_types,
                rounds=config.gcn_rounds,
                rng=rng,
            ),
        )

    def forward(self, z: Tensor, conditioning: Conditioning) -> Tensor:
        """Training: the transformed tensor."""
        masked = T.masked_assign(z, self._row_mask, self._zero)
        t = self._children["translate_net"](masked, conditioning, self.row)
        return T.replace_row(z, self.row, T.add(T.index_axis(z, 1, self.row), t))

    def _condition(self, zx: np.ndarray, conditioning: Conditioning) -> tuple[np.ndarray]:
        """The eval translation of a finite working buffer ``zx``
        [batch, N, M] whose target row is zero."""
        return (self._children["translate_net"].eval_array(zx, conditioning, self.row),)

    def eval_forward(self, zx: np.ndarray, conditioning: Conditioning) -> None:
        """Apply this layer to the working buffer ``zx`` in place, in eval
        mode: only the target row is written."""
        x, t = self._open(zx, conditioning)
        x += t
        zx[:, self.row] = K.check_finite(x, "add")

    def inverse(self, zx: np.ndarray, conditioning: Conditioning) -> None:
        """Undo this layer on the working buffer ``zx`` in place, in eval
        mode: only the target row is written."""
        x, t = self._open(zx, conditioning)
        x -= t
        zx[:, self.row] = K.check_finite(x, "sub")


class GaussianPrior(Module):
    """Isotropic zero-mean Gaussian with a learned log standard deviation."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension
        self.register_parameter("log_sigma", Tensor(0.0))

    @property
    def sigma(self) -> float:
        return float(np.exp(self._params["log_sigma"].data))

    def log_prob(self, z: Tensor) -> Tensor:
        """Per-sample log density for a batch [batch, dimension]."""
        if z.ndim != 2 or z.shape[1] != self.dimension:
            raise ShapeError(f"latent batch shape {z.shape} != (*, {self.dimension})")
        log_sigma = self._params["log_sigma"]
        d = float(self.dimension)
        const = Tensor(-0.5 * d * np.log(2.0 * np.pi))
        sq = T.sum_axis(T.mul(z, z), axis=1)
        inv_two_var = T.mul(T.exp(T.mul(log_sigma, Tensor(-2.0))), Tensor(-0.5))
        return T.add(T.add(const, T.mul(log_sigma, Tensor(-d))), T.mul(sq, inv_two_var))


class FlowModel(Module):
    """Ordered coupling stacks plus the learned prior.  Each parameter is a
    read-only view of its slice of one float64 :attr:`vector`, by
    :attr:`layout`: name to offset and shape, packed in name order, so each
    coupling layer, and the prior, is contiguous."""

    def __init__(self, spec: GraphSpec, config: ModelConfig | None = None, seed: int = 0):
        self._build(spec, config or default_model_config(spec), make_rng(seed))

    @classmethod
    def _unset(cls, spec: GraphSpec, config: ModelConfig) -> "FlowModel":
        """The model built without a draw, its vector unset for a load to fill."""
        model = cls.__new__(cls)
        model._build(spec, config, None)
        model._bind(np.empty(model._size))
        return model

    def _build(self, spec: GraphSpec, config: ModelConfig, rng: np.random.Generator | None) -> None:
        super().__init__()
        self.spec = spec
        self.config = config
        n = spec.num_nodes
        self.adjacency_layers: list[AdjacencyCouplingLayer] = []
        for k in range(self.config.adjacency_layers):
            layer = AdjacencyCouplingLayer(spec, k % n, self.config, rng)
            self.adjacency_layers.append(layer)
            self.register_child(f"adjacency_{k}", layer)
        self.node_layers: list[NodeFeatureCouplingLayer] = []
        for k in range(self.config.node_layers):
            layer = NodeFeatureCouplingLayer(spec, k % n, self.config, rng)
            self.node_layers.append(layer)
            self.register_child(f"node_{k}", layer)
        self.prior = self.register_child("prior", GaussianPrior(spec.latent_dim))
        shapes = sorted((name, p.shape) for name, p in self.named_parameters())
        offsets = np.cumsum([0] + [math.prod(shape) for _, shape in shapes]).tolist()
        self.layout = {name: (lo, shape) for (name, shape), lo in zip(shapes, offsets)}
        self._size, self._vector = offsets[-1], None

    @property
    def vector(self) -> np.ndarray:
        """The flat vector every parameter views.  A seeded build's draws are
        arrays of their own until the first read copies them in, so a model
        built while another's train state is alive holds no second vector."""
        if self._vector is None:
            self._bind(np.concatenate([p.data.reshape(-1) for _, p in sorted(self.named_parameters())]))
        return self._vector

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of ``flat``, shaped like it, by name."""
        return {name: flat[lo : lo + math.prod(shape)].reshape(shape) for name, (lo, shape) in self.layout.items()}

    def _bind(self, vector: np.ndarray) -> None:
        """Make ``vector`` the model's, every parameter a view of its slice."""
        if vector.dtype != np.float64 or vector.shape != (self._size,):
            raise ShapeError(f"a {vector.dtype} vector of shape {vector.shape} cannot hold {self._size} values")
        for name, view in self._views(vector).items():
            module, (*path, leaf) = self, name.split(".")
            for part in path:
                module = module._children[part]
            module._params[leaf] = T._frozen(view)
        self._vector = vector
        parameters_changed()

    def _check_shapes(self, adjacency: np.ndarray, features: np.ndarray) -> None:
        spec = self.spec
        if adjacency.shape[1:] != spec.adjacency_shape() or features.shape[1:] != spec.feature_shape():
            raise ShapeError(
                f"batch shapes {adjacency.shape} / {features.shape} do not match the spec"
            )
        if not len(adjacency):
            raise ShapeError("a batch of 0 graphs")
        if len(adjacency) != len(features):
            raise ShapeError(f"adjacency batch {adjacency.shape} and feature batch {features.shape} differ in length")

    def forward_batch(self, adjacency: np.ndarray, features: np.ndarray) -> tuple[Tensor, Tensor]:
        """Training: map dequantized arrays [batch, ...] to (latent [batch, D],
        log-det [batch]) on Tensor ops.  Batch norm uses the batch statistics
        and updates its running estimates."""
        self._check_shapes(adjacency, features)
        batch = adjacency.shape[0]
        conditioning = Conditioning(np.floor(adjacency))
        zx = Tensor(features)
        za = Tensor(adjacency)
        log_det = Tensor(np.zeros(batch))
        try:
            for layer in self.node_layers:
                zx = layer.forward(zx, conditioning)
            for layer in self.adjacency_layers:
                za, ld = layer.forward(za)
                log_det = T.add(log_det, ld)
        except NumericError as err:
            raise self._layer_error(layer, err) from err
        n, m, r = self.spec.num_nodes, self.spec.num_atom_types, self.spec.num_bond_types
        z = T.concat(
            [T.reshape(za, (batch, n * n * r)), T.reshape(zx, (batch, n * m))], axis=1
        )
        return z, log_det

    def eval_forward(self, adjacency: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map dequantized arrays [batch, ...] to (latent [batch, D], log-det
        [batch]) in eval, with batch norm's running statistics.

        The inputs are only read; each stack runs in place on one working
        copy, node features first, conditioned on the floor of the adjacency.
        """
        self._check_shapes(adjacency, features)
        batch = adjacency.shape[0]
        conditioning = Conditioning(np.floor(adjacency))
        zx, za = _finite_copy(features), _finite_copy(adjacency)
        log_det = np.zeros(batch)
        try:
            for layer in self.node_layers:
                layer.eval_forward(zx, conditioning)
            for layer in self.adjacency_layers:
                log_det += layer.eval_forward(za)
                K.check_finite(log_det, "add")
        except NumericError as err:
            raise self._layer_error(layer, err) from err
        return np.concatenate([za.reshape(batch, -1), zx.reshape(batch, -1)], axis=1), log_det

    def inverse_batch(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Invert latents [batch, D] into continuous (adjacency, features) arrays.

        The adjacency stack is inverted first; its output is discretized and
        conditions the node-feature stack's inverse.  ``z`` is only read, so
        it may be read-only; the two returned arrays are the working buffers.
        """
        za, zx, _ = self._inverse(z)
        return za, zx

    def _inverse(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`inverse_batch`'s two arrays, then the one-hot adjacency
        [batch, N, N, R] that conditioned the node-feature stack: the
        :meth:`~graphnvp.nets.Conditioning.bonds` view, so the pass's
        scratch dies on return."""
        spec = self.spec
        if z.ndim != 2 or z.shape[1] != spec.latent_dim or not len(z):
            raise ShapeError(f"latent batch shape {z.shape} is not (batch > 0, {spec.latent_dim})")
        batch = z.shape[0]
        split = spec.num_nodes * spec.num_nodes * spec.num_bond_types
        za = _finite_copy(z[:, :split]).reshape((batch,) + spec.adjacency_shape())
        zx = _finite_copy(z[:, split:]).reshape((batch,) + spec.feature_shape())
        try:
            for layer in reversed(self.adjacency_layers):
                layer.inverse(za)
            conditioning = Conditioning(argmax_adjacency(spec, za))
            for layer in reversed(self.node_layers):
                layer.inverse(zx, conditioning)
        except NumericError as err:
            raise self._layer_error(layer, err) from err
        return za, zx, conditioning.bonds()

    def _layer_error(self, layer: Module, err: NumericError) -> NumericError:
        """``err`` with the name of the coupling layer it came from prefixed."""
        name = next(name for name, child in self._children.items() if child is layer)
        return NumericError(f"{name}: {err}")


def _finite_copy(arr: np.ndarray) -> np.ndarray:
    """A float64 copy of ``arr`` to work on in place; a NaN or Inf raises as
    constructing a :class:`~graphnvp.tensor.Tensor` does."""
    out = np.array(arr, dtype=np.float64)
    if not np.isfinite(out).all():
        raise NumericError("tensor constructed with non-finite values")
    return out


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def _spec_to_dict(spec: GraphSpec) -> dict:
    return {
        "num_nodes": spec.num_nodes,
        "atom_vocab": list(spec.atom_vocab),
        "bond_vocab": list(spec.bond_vocab),
    }


def _spec_from_dict(data: dict) -> GraphSpec:
    """The spec in a checkpoint's ``spec`` block.  A bad key, or vocabularies
    :class:`GraphSpec` refuses, raise :class:`CheckpointError` naming it."""
    try:
        return GraphSpec(
            num_nodes=_meta_field(data, "spec.num_nodes", _COUNT),
            atom_vocab=tuple(_meta_field(data, "spec.atom_vocab", _VOCAB)),
            bond_vocab=tuple(_meta_field(data, "spec.bond_vocab", _VOCAB)),
        )
    except GraphError as err:
        raise CheckpointError(f"checkpoint metadata spec is {json.dumps(data)}, not a valid spec: {err}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Metadata kinds: a test and what it accepts, for the error text.
_INT = (_is_int, "an integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_COUNTS = (lambda v: isinstance(v, list) and all(_is_int(w) and w >= 1 for w in v), "a list of integers >= 1")
_VOCAB = (
    lambda v: isinstance(v, list) and len(v) >= 2 and all(isinstance(w, str) for w in v),
    "a list of two or more strings",
)
_CAP = (lambda v: (_is_int(v) or isinstance(v, float)) and 0 < v < math.inf, "a finite number > 0")
_TRUE = (lambda v: v is True, "true: every model has batch norm")
_BLOCK = (lambda v: isinstance(v, dict), "an object")
_ORDER = (lambda v: v == FORWARD_ORDER, json.dumps(FORWARD_ORDER))


def _meta_field(block, key: str, kind: tuple):
    """The value of the dotted metadata ``key`` in ``block``, the object
    that holds its last part.  A missing value, or one that fails ``kind``,
    raises :class:`CheckpointError` naming ``key``."""
    test, what = kind
    leaf = key.rpartition(".")[2]
    if not isinstance(block, dict) or leaf not in block:
        raise CheckpointError(f"checkpoint metadata lacks {key}")
    value = block[leaf]
    if not test(value):
        raise CheckpointError(f"checkpoint metadata {key} is {json.dumps(value)}, not {what}")
    return value


def _check_rng_state(optimizer: dict, state: dict) -> None:
    """Refuse a stored generator state that cannot resume a run: an empty one
    (a state saved before training, which starts the generator from the
    config's seed) past step or epoch 0, or one numpy cannot load.  Raises
    :class:`CheckpointError` naming ``optimizer.rng_state``."""
    key = "checkpoint metadata optimizer.rng_state"
    if not state:
        if optimizer["step"] or optimizer["epoch"]:
            raise CheckpointError(f"{key} is empty at step {optimizer['step']} epoch {optimizer['epoch']}")
        return
    try:
        make_rng(0).bit_generator.state = state
        # numpy's setter takes any integer for these two fields, then reads
        # outside the 4-word buffer or returns a stale half-word.
        if state["buffer_pos"] not in range(5):
            raise ValueError(f"buffer_pos {json.dumps(state['buffer_pos'])} is outside 0..4")
        if state["has_uint32"] not in (0, 1):
            raise ValueError(f"has_uint32 {json.dumps(state['has_uint32'])} is not 0 or 1")
    except (ArithmeticError, LookupError, TypeError, ValueError) as err:
        raise CheckpointError(f"{key} is not a generator state numpy can load ({err})") from None


@contextmanager
def _atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary sibling of ``path``, named for this process and
    thread, for writing.

    When the block exits cleanly the file is synced, moved over ``path`` with
    ``os.replace`` and the directory entry is synced, so after a crash
    ``path`` holds either the old or the new content.  When the block
    raises, the temporary file is removed and ``path`` is left as it was.
    Every checkpoint (train states included), CSV and SMILES writer in the
    package goes through it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows``, to ``path`` as UTF-8 CSV in
    the default dialect, through :func:`_atomic_open`."""
    with _atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_checkpoint(model: FlowModel, path, optimizer: tuple | None = None) -> None:
    """Write the model to a versioned, CRC-protected binary file.

    A train state adds ``optimizer = (block, first_moment, second_moment)``:
    the block goes into the meta, the flat moments into ``m:``/``v:`` entries.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "forward_order": FORWARD_ORDER,
        "spec": _spec_to_dict(model.spec),
        "model": model.config.to_dict(),
    }
    entries = [("p:" + name, view) for name, view in model._views(model.vector).items()]
    entries += [("b:" + name, value) for name, value in sorted(model.named_buffers())]
    if optimizer is not None:
        meta["optimizer"], *moments = optimizer
        entries += [(kind + n, v) for kind, flat in zip(("m:", "v:"), moments) for n, v in model._views(flat).items()]
    # The generator state holds numpy arrays; JSON stores them as lists.
    meta_bytes = json.dumps(meta, sort_keys=True, default=np.ndarray.tolist).encode("utf-8")

    # Streamed: each chunk goes to the file and into a running CRC, so no
    # copy of the whole file is ever held.
    crc = 0
    with _atomic_open(path, "wb") as fh:

        def write(chunk) -> None:
            nonlocal crc
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)

        write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)) + meta_bytes)
        write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            name_bytes = name.encode("utf-8")
            write(struct.pack("<I", len(name_bytes)) + name_bytes)
            write(struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
            write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1))
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


# Bytes per read of the CRC pass.
_CRC_CHUNK = 1 << 18


def _payload_size(fh, path) -> int:
    """Check the magic and the CRC trailer of the open checkpoint ``fh`` in
    one streaming pass, before anything is parsed.  Returns the size of the
    payload the CRC covers and leaves ``fh`` at its start."""
    size = os.fstat(fh.fileno()).st_size
    if size < 12 or fh.read(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    fh.seek(0)
    crc, left = 0, size - 4
    chunk = memoryview(bytearray(min(left, _CRC_CHUNK)))
    while left:
        n = fh.readinto(chunk[: min(left, len(chunk))])
        if not n:
            raise CheckpointError(f"{path}: checkpoint file is truncated")
        crc = zlib.crc32(chunk[:n], crc)
        left -= n
    if fh.read(4) != struct.pack("<I", crc & 0xFFFFFFFF):
        raise CheckpointError(f"{path}: CRC mismatch (corrupt or truncated file)")
    fh.seek(0)
    return size - 4


class _Reader:
    """Reads the fields of an open checkpoint in order, never past ``end``,
    the start of the CRC trailer."""

    def __init__(self, fh, end: int, path):
        self.fh, self.end, self.path = fh, end, path
        self.pos = 0

    def _claim(self, n: int) -> None:
        if self.pos + n > self.end:
            raise CheckpointError(f"{self.path}: checkpoint file is truncated")
        self.pos += n

    def into(self, buf):
        """Fill the contiguous, writable ``buf`` (an array or a bytearray)
        with the next bytes, and return it."""
        view = memoryview(buf).cast("B")
        self._claim(len(view))
        if self.fh.readinto(view) != len(view):
            raise CheckpointError(f"{self.path}: checkpoint file is truncated")
        return buf

    def skip(self, n: int) -> None:
        self._claim(n)
        self.fh.seek(n, os.SEEK_CUR)

    def array(self, out: np.ndarray) -> np.ndarray:
        """Fill the contiguous float64 array ``out`` with the next
        little-endian values, and return it."""
        self.into(out)
        if sys.byteorder != "little":
            out.byteswap(inplace=True)
        return out

    def take(self, n: int) -> bytes:
        return bytes(self.into(bytearray(n)))

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        """A length-prefixed UTF-8 field."""
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{self.path}: a text field is not UTF-8") from err


def load_checkpoint(path, spec: GraphSpec) -> FlowModel:
    """Rebuild a model from file; the stored spec must match ``spec`` exactly.

    A train-state file loads as the model it holds.
    """
    return _read_checkpoint(path, spec, moments=False)[0]


def _read_checkpoint(path, spec: GraphSpec, moments: bool):
    """Parse a model or train-state file into a model built from the stored
    config without a draw.  Returns the model, the flat vectors read (the
    model's own, then with ``moments`` the first and second Adam moments),
    and the stored ``optimizer`` block or None.

    The CRC is checked first, in a pass of its own; then each entry is read
    straight into its slice of its vector, or into its buffer, so the file
    is never held whole.  Without ``moments``, moment entries are skipped;
    with it, a file without an optimizer section raises, as do a non-finite
    value, a negative ``running_var`` or second moment, and bytes after the
    last entry.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh, _payload_size(fh, path), path)
        reader.take(4)
        version = reader.u32()
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        try:
            meta = json.loads(reader.text())
        except ValueError as err:
            raise CheckpointError(f"{path}: checkpoint metadata is not JSON") from err
        try:
            _meta_field(meta, "forward_order", _ORDER)
            stored_spec = _spec_from_dict(_meta_field(meta, "spec", _BLOCK))
            config = ModelConfig.from_dict(_meta_field(meta, "model", _BLOCK))
            optimizer = meta.get("optimizer")
            if optimizer is not None:
                _meta_field(meta, "optimizer", _BLOCK)
                for key in ("step", "epoch"):
                    _meta_field(optimizer, f"optimizer.{key}", _INT)
                _check_rng_state(optimizer, _meta_field(optimizer, "optimizer.rng_state", _BLOCK))
        except CheckpointError as err:
            raise CheckpointError(f"{path}: {err}") from None
        if stored_spec != spec:
            raise CheckpointError(
                f"{path}: checkpoint spec {stored_spec} does not match requested spec {spec}"
            )
        if moments and optimizer is None:
            raise CheckpointError(f"{path}: no optimizer section")
        model = FlowModel._unset(spec, config)
        kinds = ("p:", "m:", "v:") if optimizer is not None else ("p:",)
        vectors = [model.vector] + [np.empty(model.vector.size) for _ in kinds[1:] if moments]
        into = {kind + n: v for kind, flat in zip(kinds, vectors) for n, v in model._views(flat).items()}
        into |= {"b:" + n: b for n, b in model.named_buffers()}
        expected = {kind + n: shape for n, (_, shape) in model.layout.items() for kind in kinds}
        expected |= {n: b.shape for n, b in into.items() if n.startswith("b:")}
        seen = set()
        for _ in range(reader.u32()):
            name = reader.text()
            shape = tuple(reader.u32() for _ in range(reader.u32()))
            if name not in expected:
                raise CheckpointError(f"{path}: unexpected entry {name!r}")
            if name in seen:
                raise CheckpointError(f"{path}: entry {name!r} appears twice")
            if shape != expected[name]:
                raise CheckpointError(f"{path}: entry {name!r} has shape {shape}, the model {expected[name]}")
            seen.add(name)
            if name not in into:  # a moment not asked for
                reader.skip(8 * math.prod(shape))
                continue
            arr = reader.array(into[name])
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: entry {name!r} holds a non-finite value")
            if (name.startswith("v:") or name.endswith(".running_var")) and (arr < 0).any():
                raise CheckpointError(f"{path}: entry {name!r} holds a negative variance")
        if reader.pos != reader.end:
            raise CheckpointError(f"{path}: {reader.end - reader.pos} bytes after the last entry")
    missing = expected.keys() - seen
    if missing:
        raise CheckpointError(f"{path}: missing entries {sorted(missing)[:3]}")
    return model, tuple(vectors), optimizer
