import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from graphnvp.chem import bundled_corpus_path, load_dataset
from graphnvp.flow import FlowModel, ModelConfig
from graphnvp import tensor as T
from graphnvp.graphs import GraphSpec, MolecularGraph, argmax_adjacency, qm9lite_spec
from graphnvp.nets import relation_major
from graphnvp.tensor import GradientTape, Tensor, make_rng
from graphnvp.train import TrainConfig, split_dataset, train

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
# the Tensor-op inverse, kept as an oracle for the in-place array inverse
# ---------------------------------------------------------------------------
# The oracle runs while a tape records, so its nets take the unfolded eval
# path (each layer, then its frozen batch norm) and share no code with the
# folded array routines under test.


def tensor_adj_inverse(layer, z: Tensor) -> Tensor:
    """An adjacency coupling layer's inverse as unfolded Tensor ops on a
    masked copy."""
    with GradientTape():
        s, t = layer._scale_translation(z, False)
        row = T.index_axis(z, 1, layer.row)
        original = T.mul(T.sub(row, t), T.exp(T.mul(s, Tensor(-1.0))))
        return T.replace_row(z, layer.row, original)


def tensor_node_inverse(layer, z: Tensor, adjacency: np.ndarray) -> Tensor:
    """A node-feature coupling layer's inverse as unfolded Tensor ops."""
    with GradientTape():
        t = layer._translation(z, adjacency, False)
        return T.replace_row(z, layer.row, T.sub(T.index_axis(z, 1, layer.row), t))


def tensor_inverse_batch(model: FlowModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``model.inverse_batch`` with every layer inverted by the oracles above."""
    spec = model.spec
    n, m, r = spec.num_nodes, spec.num_atom_types, spec.num_bond_types
    split = n * n * r
    za = Tensor(z[:, :split].reshape(-1, n, n, r))
    zx = Tensor(z[:, split:].reshape(-1, n, m))
    for layer in reversed(model.adjacency_layers):
        za = tensor_adj_inverse(layer, za)
    conditioning = relation_major(argmax_adjacency(spec, za.data))
    for layer in reversed(model.node_layers):
        zx = tensor_node_inverse(layer, zx, conditioning)
    return za.data, zx.data


def array_inverse(layer, z: np.ndarray, *conditioning) -> np.ndarray:
    """A coupling layer's in-place array inverse, run on a copy of ``z``;
    a node-feature layer, given its ``conditioning``, gets fresh scratch."""
    buffer = np.array(z)
    layer.inverse(buffer, *conditioning, *([{}] if conditioning else []))
    return buffer


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
