from pathlib import Path

import numpy as np

from conftest import TOY_CONFIG, TOY_SPEC
from graphnvp.flow import CHECKPOINT_VERSION, FlowModel, load_checkpoint, save_checkpoint
from graphnvp.nets import RelationalGraphConvNet, RelGraphRound, relation_major
from graphnvp import tensor as T
from graphnvp.tensor import Tensor, make_rng

DATA = Path(__file__).parent / "data"


def random_relational_input(seed, batch=3, n=5, r=3, f=4):
    """Random features and a random 0/1 adjacency tensor [batch, N, N, R]."""
    rng = make_rng(seed)
    h = rng.normal(size=(batch, n, f))
    adjacency = (rng.random((batch, n, n, r)) < 0.4).astype(np.float64)
    return h, adjacency


def a_rows_of(adjacency):
    batch, n, _, r = adjacency.shape
    return adjacency.transpose(0, 1, 3, 2).reshape(batch, n * r, n)


def randomize_net(net, rng):
    for name, buf in net.named_buffers():
        if name.endswith("running_mean"):
            net.set_buffer(name, rng.normal(scale=0.2, size=buf.shape))
        elif name.endswith("running_var"):
            net.set_buffer(name, 1.0 + 0.5 * rng.random(buf.shape))
    for name, p in net.named_parameters():
        net.set_parameter(name, Tensor(rng.normal(scale=0.5, size=p.shape)))


def test_round_equals_explicit_relation_sum():
    """The stacked contraction is sum_r A_r h W_r + h W_self + b."""
    h, adjacency = random_relational_input(seed=1)
    layer = RelGraphRound(4, 6, 3, make_rng(2))
    layer.set_parameter("bias", Tensor(make_rng(3).normal(size=6)))
    w_rel = layer.get_parameter("rel_weight").data
    expected = h @ layer.get_parameter("self_weight").data + layer.get_parameter("bias").data
    for r in range(3):
        expected = expected + adjacency[..., r] @ h @ w_rel[r]
    out = layer(Tensor(h), a_rows_of(adjacency)).data
    assert out.shape == (3, 5, 6)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_round_target_row_equals_row_of_full_output():
    h, adjacency = random_relational_input(seed=4)
    layer = RelGraphRound(4, 6, 3, make_rng(5))
    full = layer(Tensor(h), a_rows_of(adjacency)).data
    for row in range(5):
        only = layer(Tensor(h), a_rows_of(adjacency), row).data
        assert only.shape == (3, 6)
        assert np.abs(only - full[:, row]).max() <= 1e-12 * np.abs(full).max()


def test_eval_target_row_matches_full_eval_computation():
    """In eval the last round computes only the target row; the result is that
    row of the all-nodes computation."""
    h, adjacency = random_relational_input(seed=6)
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(7))
    randomize_net(net, make_rng(8))
    a_rows = a_rows_of(adjacency)
    for row in range(5):
        full = Tensor(h)
        for k in range(2):
            full = net._children[f"round{k}"](full, a_rows)
            full = net._children[f"bn{k}"](full, training=False)
            full = T.tanh(full)
        expected = net._children["head"](T.index_axis(full, 1, row)).data
        out = net(Tensor(h), adjacency, row, training=False).data
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_training_mode_uses_batch_statistics_over_all_nodes():
    """Training keeps every round full, so batch statistics span all nodes."""
    h, adjacency = random_relational_input(seed=9)
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(10))
    randomize_net(net, make_rng(11))
    a_rows = a_rows_of(adjacency)
    full = Tensor(h)
    for k in range(2):
        full = net._children[f"round{k}"](full, a_rows)
        full = net._children[f"bn{k}"](full, training=True)
        full = T.tanh(full)
    expected = net._children["head"](T.index_axis(full, 1, 2)).data
    out = net(Tensor(h), adjacency, 2, training=True).data
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_relation_major_conditioning_is_laid_out_without_a_copy():
    """On relation-major conditioning the R-GCN's [batch, N*R, N] layout is a
    view, and the net's output is bitwise the same as on the plain array."""
    h, adjacency = random_relational_input(seed=12)
    conditioning = relation_major(adjacency)
    assert np.array_equal(conditioning, adjacency)
    assert np.shares_memory(a_rows_of(conditioning), conditioning)
    assert np.array_equal(a_rows_of(conditioning), a_rows_of(adjacency))
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(13))
    randomize_net(net, make_rng(14))
    for training in (False, True):
        plain = net(Tensor(h), adjacency, 1, training).data
        assert net(Tensor(h), conditioning, 1, training).data.tobytes() == plain.tobytes()


def test_checkpoint_written_before_stacked_contraction_still_loads(tmp_path):
    """``toy_v1.gnvp`` and its latents were written by the per-relation loop
    that preceded the stacked contraction."""
    path = DATA / "toy_v1.gnvp"
    io = np.load(DATA / "toy_v1_io.npz")
    model = load_checkpoint(path, TOY_SPEC)
    fresh = FlowModel(TOY_SPEC, TOY_CONFIG, seed=0)
    assert CHECKPOINT_VERSION == 1
    assert [(n, p.shape) for n, p in model.named_parameters()] == [
        (n, p.shape) for n, p in fresh.named_parameters()
    ]
    resaved = tmp_path / "resaved.gnvp"
    save_checkpoint(model, resaved)
    assert resaved.read_bytes() == path.read_bytes()

    z, log_det = model.forward_batch(io["adjacency"], io["features"])
    assert np.abs(z.data - io["latents"]).max() <= 1e-12 * np.abs(io["latents"]).max()
    assert np.abs(log_det.data - io["log_det"]).max() <= 1e-12 * np.abs(io["log_det"]).max()
    adjacency, features = model.inverse_batch(io["latents"])
    assert np.array_equal(np.floor(adjacency), np.floor(io["adjacency"]))
    assert np.array_equal(np.floor(features), np.floor(io["features"]))
