import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from graphnvp.chem import bundled_corpus_path, load_dataset
from graphnvp.errors import GraphError, NumericError
from graphnvp.flow import FlowModel, ModelConfig
from graphnvp.graphs import GraphSpec, MolecularGraph, argmax_adjacency, qm9lite_spec
from graphnvp.nets import Conditioning
from graphnvp.tensor import Tensor, make_rng
from graphnvp.train import TrainConfig, train

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

TOY_SPEC = GraphSpec(num_nodes=3, atom_vocab=("C", "*"), bond_vocab=("single", "virtual"))
TOY_CONFIG = ModelConfig(
    adjacency_layers=3, node_layers=3, mlp_hidden=(8, 8), gcn_hidden=6, gcn_rounds=2
)

# 4-node spec for regression tests: enough distinct graphs for a full-rank
# latent design matrix (the 3-node family only has 18 distinct graphs)
REG_SPEC = GraphSpec(num_nodes=4, atom_vocab=("C", "N", "*"), bond_vocab=("single", "virtual"))
REG_CONFIG = ModelConfig(
    adjacency_layers=4, node_layers=4, mlp_hidden=(8, 8), gcn_hidden=6, gcn_rounds=2
)


@pytest.fixture
def toy_spec():
    return TOY_SPEC


@pytest.fixture
def toy_model():
    return FlowModel(TOY_SPEC, TOY_CONFIG, seed=7)


# ---------------------------------------------------------------------------
# helpers only the tests use
# ---------------------------------------------------------------------------


def finite_difference_gradient(f, p: Tensor, step: float = 1e-5) -> Tensor:
    """Central-difference estimate of d f / d p, one coordinate at a time.

    ``f`` must be deterministic and return a scalar (a Tensor or a float);
    evaluations yielding non-finite values raise :class:`NumericError`.
    """
    if step <= 0:
        raise ValueError("step must be positive")

    def evaluate(values: np.ndarray) -> float:
        r = f(Tensor(values))
        v = r.item() if isinstance(r, Tensor) else float(r)
        if not np.isfinite(v):
            raise NumericError("finite_difference_gradient: function value is non-finite")
        return v

    base = p.data.copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = evaluate(base)
        flat[i] = orig - step
        lo = evaluate(base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return Tensor(grad)


def split_dataset(dataset, seed: int, holdout_fraction: float = 0.1):
    """Deterministic (train, holdout) split of a list of graphs by seeded
    shuffle."""
    order = make_rng(seed).permutation(len(dataset))
    n_holdout = int(round(len(dataset) * holdout_fraction))
    holdout_idx = set(order[:n_holdout].tolist())
    train_part = [dataset[i] for i in range(len(dataset)) if i not in holdout_idx]
    holdout = [dataset[i] for i in sorted(holdout_idx)]
    return train_part, holdout


def permute_nodes(graph: MolecularGraph, perm) -> MolecularGraph:
    """Reindex nodes: row ``i`` of the result is node ``perm[i]`` of the input."""
    perm = np.asarray(perm, dtype=np.int64)
    n = graph.spec.num_nodes
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise GraphError(f"perm must be a bijection on 0..{n - 1}")
    return MolecularGraph(graph.spec, graph.adjacency[perm][:, perm], graph.features[perm])


def randomize_model(model: FlowModel, seed: int, scale: float = 0.3) -> FlowModel:
    """Perturb every parameter (including the zero-initialized heads) and the
    batch-norm running statistics, giving a non-trivial map for round-trip and
    Jacobian tests."""
    rng = make_rng(seed)
    model.load_parameters(
        {name: Tensor(rng.normal(scale=scale, size=p.shape)) for name, p in model.named_parameters()}
    )
    for name, buf in model.named_buffers():
        if name.endswith("running_mean"):
            model.set_buffer(name, rng.normal(scale=0.2, size=buf.shape))
        elif name.endswith("running_var"):
            model.set_buffer(name, 1.0 + 0.5 * rng.random(buf.shape))
    return model


# ---------------------------------------------------------------------------
# plain-numpy eval oracles for the in-place array forward and inverse
# ---------------------------------------------------------------------------
# Each net runs unfolded: per layer a GEMM, then batch norm as
# ``(y - mean) / sqrt(var + eps) * gamma + beta`` with the running statistics,
# then the activation.  They share no code with the folded array routines
# under test, and raise the NumericError the first non-finite op would.


def _checked(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced a non-finite value")
    return arr


def oracle_norm(norm, y: np.ndarray, activation: str) -> np.ndarray:
    """Eval batch norm over the running statistics, then ``activation``."""
    mean, var = norm._buffers["running_mean"], norm._buffers["running_var"]
    gamma, beta = norm._params["gamma"].data, norm._params["beta"].data
    with np.errstate(invalid="ignore"):
        y = _checked((y - mean) / np.sqrt(var + norm.eps) * gamma + beta, "batch_norm")
    return np.tanh(y) if activation == "tanh" else np.maximum(y, 0.0)


def _oracle_head(net, h: np.ndarray) -> np.ndarray:
    p = net._children["head"]._params
    return _checked(h @ p["weight"].data + p["bias"].data, "linear")


def oracle_mlp(net, x: np.ndarray) -> np.ndarray:
    """An :class:`~graphnvp.nets.MlpNet` in eval."""
    h = x
    for k in range(net.depth):
        p = net._children[f"lin{k}"]._params
        h = oracle_norm(net._children[f"bn{k}"], _checked(h @ p["weight"].data + p["bias"].data, "linear"), "relu")
    return _oracle_head(net, h)


def oracle_rgcn(net, h: np.ndarray, adjacency: np.ndarray, row: int, last_row_only: bool = False) -> np.ndarray:
    """A :class:`~graphnvp.nets.RelationalGraphConvNet` in eval for node
    ``row``, with one relation product per bond channel; with
    ``last_row_only`` the last round computes that node alone."""
    for k in range(net.depth):
        p = {name: v.data for name, v in net._children[f"round{k}"]._params.items()}
        a, h_self = adjacency, h
        if last_row_only and k == net.depth - 1:
            a, h_self = adjacency[:, row : row + 1], h[:, row : row + 1]
        y = h_self @ p["self_weight"] + p["bias"]
        for r in range(adjacency.shape[-1]):
            y = y + a[..., r] @ h @ p["rel_weight"][r]
        h = oracle_norm(net._children[f"bn{k}"], _checked(y, "graph_conv"), "tanh")
    return _oracle_head(net, h[:, 0] if last_row_only else h[:, row])


def _oracle_masked(layer, z: np.ndarray) -> np.ndarray:
    masked = z.copy()
    masked[:, layer.row] = 0.0
    return masked


def _oracle_scale_translation(layer, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    flat = _oracle_masked(layer, z).reshape(len(z), -1)
    s = _checked(np.tanh(oracle_mlp(layer._children["scale_net"], flat)) * layer.scale_cap, "mul")
    t = oracle_mlp(layer._children["translate_net"], flat)
    return s.reshape(z[:, 0].shape), t.reshape(z[:, 0].shape)


def _with_row(z: np.ndarray, row: int, value: np.ndarray) -> np.ndarray:
    out = z.copy()
    out[:, row] = value
    return out


def oracle_adj_forward(layer, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An adjacency coupling layer's eval forward: the output and the log-det."""
    s, t = _oracle_scale_translation(layer, z)
    with np.errstate(over="ignore"):
        scaled = _checked(z[:, layer.row] * _checked(np.exp(s), "exp"), "mul")
    return _with_row(z, layer.row, _checked(scaled + t, "add")), _checked(s.sum(axis=(1, 2)), "sum")


def oracle_adj_inverse(layer, z: np.ndarray) -> np.ndarray:
    s, t = _oracle_scale_translation(layer, z)
    shifted = _checked(z[:, layer.row] - t, "sub")
    with np.errstate(over="ignore"):
        return _with_row(z, layer.row, _checked(shifted * _checked(np.exp(-s), "exp"), "mul"))


def oracle_node_forward(layer, z: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    t = oracle_rgcn(layer._children["translate_net"], _oracle_masked(layer, z), adjacency, layer.row)
    return _with_row(z, layer.row, _checked(z[:, layer.row] + t, "add"))


def oracle_node_inverse(layer, z: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    t = oracle_rgcn(layer._children["translate_net"], _oracle_masked(layer, z), adjacency, layer.row)
    return _with_row(z, layer.row, _checked(z[:, layer.row] - t, "sub"))


def oracle_forward_batch(model: FlowModel, adjacency: np.ndarray, features: np.ndarray):
    """``model.eval_forward`` with every layer run by the oracles above."""
    conditioning = np.floor(adjacency)
    zx, za, log_det = features, adjacency, np.zeros(len(adjacency))
    for layer in model.node_layers:
        zx = oracle_node_forward(layer, zx, conditioning)
    for layer in model.adjacency_layers:
        za, ld = oracle_adj_forward(layer, za)
        log_det = _checked(log_det + ld, "add")
    return np.concatenate([za.reshape(len(za), -1), zx.reshape(len(zx), -1)], axis=1), log_det


def oracle_inverse_batch(model: FlowModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``model.inverse_batch`` with every layer inverted by the oracles above."""
    spec = model.spec
    split = spec.num_nodes * spec.num_nodes * spec.num_bond_types
    za = z[:, :split].reshape((-1,) + spec.adjacency_shape())
    zx = z[:, split:].reshape((-1,) + spec.feature_shape())
    for layer in reversed(model.adjacency_layers):
        za = oracle_adj_inverse(layer, za)
    conditioning = argmax_adjacency(spec, za)
    for layer in reversed(model.node_layers):
        zx = oracle_node_inverse(layer, zx, conditioning)
    return za, zx


def array_inverse(layer, z: np.ndarray, *adjacency) -> np.ndarray:
    """A coupling layer's in-place array inverse, run on a copy of ``z``;
    a node-feature layer is conditioned on ``adjacency`` [batch, N, N, R]."""
    buffer = np.array(z)
    layer.inverse(buffer, *map(Conditioning, adjacency))
    return buffer


def array_forward(layer, z: np.ndarray, *adjacency):
    """A coupling layer's in-place eval forward, run on a copy of ``z``: the
    output, and for an adjacency layer also the log-det.  A node-feature
    layer is conditioned on ``adjacency`` [batch, N, N, R]."""
    buffer = np.array(z)
    log_det = layer.eval_forward(buffer, *map(Conditioning, adjacency))
    return buffer if adjacency else (buffer, log_det)


@pytest.fixture
def random_toy_model(toy_model):
    return randomize_model(toy_model, seed=11)


def random_nonempty_graph(spec: GraphSpec, rng: np.random.Generator) -> MolecularGraph:
    """Random structurally valid graph with at least one real atom."""
    while True:
        g = random_graph(spec, rng)
        if g.features[:, spec.virtual_atom].sum() < spec.num_nodes:
            return g


def random_graph(spec: GraphSpec, rng: np.random.Generator) -> MolecularGraph:
    """Random graph satisfying the structural invariants (valence not checked)."""
    n = spec.num_nodes
    n_real = int(rng.integers(0, n + 1))
    features = np.zeros(spec.feature_shape())
    for i in range(n_real):
        features[i, int(rng.integers(0, spec.virtual_atom))] = 1.0
    features[n_real:, spec.virtual_atom] = 1.0

    adjacency = np.zeros(spec.adjacency_shape())
    adjacency[:, :, spec.virtual_bond] = 1.0
    for i in range(n_real):
        for j in range(i + 1, n_real):
            channel = int(rng.integers(0, spec.num_bond_types))
            if channel != spec.virtual_bond:
                adjacency[i, j, :] = 0.0
                adjacency[j, i, :] = 0.0
                adjacency[i, j, channel] = 1.0
                adjacency[j, i, channel] = 1.0
    return MolecularGraph(spec, adjacency, features).validate()


@pytest.fixture(scope="session")
def qm9_corpus():
    return load_dataset(bundled_corpus_path("qm9lite"), qm9lite_spec())


@pytest.fixture(scope="session")
def qm9_split(qm9_corpus):
    return split_dataset(qm9_corpus, seed=0)


@pytest.fixture(scope="session")
def trained_qm9(qm9_split):
    """One 30-epoch training run shared by the tests that need a non-trivial
    model; also the subject of the training-descent acceptance criterion."""
    train_part, holdout = qm9_split
    model = FlowModel(qm9lite_spec(), seed=0)
    config = TrainConfig(epochs=30, batch_size=64, seed=0)
    state, records = train(model, train_part, config)
    return model, state, records, train_part, holdout


def edit_checkpoint_meta(path, edit) -> None:
    """Rewrite the checkpoint at ``path`` with ``edit`` applied to its parsed
    metadata, and a valid CRC."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[8:12])
    meta = json.loads(data[12 : 12 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta).encode("utf-8")
    payload = data[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + data[12 + meta_len : -4]
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
