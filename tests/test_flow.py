import dataclasses
import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import (
    TOY_CONFIG,
    TOY_SPEC,
    array_forward,
    array_inverse,
    edit_checkpoint_meta,
    oracle_adj_forward,
    oracle_adj_inverse,
    oracle_forward_batch,
    oracle_inverse_batch,
    oracle_node_forward,
    oracle_node_inverse,
    permute_nodes,
    random_graph,
    randomize_model,
)
from graphnvp import flow, nets
from graphnvp import kernels as K
from graphnvp.errors import CheckpointError, GnvpError, NumericError
from graphnvp.flow import (
    AdjacencyCouplingLayer,
    FlowModel,
    GaussianPrior,
    ModelConfig,
    NodeFeatureCouplingLayer,
    load_checkpoint,
    save_checkpoint,
)
from graphnvp.graphs import argmax_adjacency, dequantize, qm9lite_spec
from graphnvp.tensor import Tensor, make_rng
from graphnvp.train import TrainState, load_train_state, save_train_state


def stub_scale_translation(layer, scale_value, translation_value):
    """Replace the conditioner outputs with constants in both eval
    directions."""
    n, r = layer.spec.num_nodes, layer.spec.num_bond_types
    layer._condition = lambda za: (
        np.full((za.shape[0], n, r), scale_value),
        np.full((za.shape[0], n, r), translation_value),
    )


def toy_dequantized(seed=3):
    """One random toy graph and its dequantized (adjacency, features), each
    with a batch axis of one."""
    rng = make_rng(seed)
    g = random_graph(TOY_SPEC, rng)
    return g, dequantize([g], 0.9, rng)


def fixed_conditioning_forward(model, adjacency, features, conditioning):
    """Eval forward pass with the discrete conditioning held fixed (the flow
    whose Jacobian the analytic log-det describes)."""
    zx = features
    for layer in model.node_layers:
        zx = array_forward(layer, zx, conditioning)
    za, total = adjacency, 0.0
    for layer in model.adjacency_layers:
        za, ld = array_forward(layer, za)
        total = total + ld
    return za, zx, total


# ---------------------------------------------------------------------------
# adjacency coupling
# ---------------------------------------------------------------------------


def test_adj_coupling_zero_init_identity():
    layer = AdjacencyCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, make_rng(0))
    _, (adjacency, _) = toy_dequantized()
    out, log_det = array_forward(layer, adjacency)
    assert np.array_equal(out, adjacency)
    assert log_det[0] == 0.0
    assert np.array_equal(array_inverse(layer, adjacency), adjacency)


def test_adj_coupling_stubbed_scale_doubles_row():
    layer = AdjacencyCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, make_rng(0))
    stub_scale_translation(layer, np.log(2.0), 0.0)
    _, (adjacency, _) = toy_dequantized()
    out, log_det = array_forward(layer, adjacency)
    n, r = TOY_SPEC.num_nodes, TOY_SPEC.num_bond_types
    assert np.allclose(out[0, 1], 2.0 * adjacency[0, 1])
    assert np.array_equal(out[0, 0], adjacency[0, 0])
    assert np.array_equal(out[0, 2], adjacency[0, 2])
    assert log_det[0] == pytest.approx(n * r * np.log(2.0), abs=1e-12)


def test_adj_coupling_stubbed_inverse_halves_shifted():
    layer = AdjacencyCouplingLayer(TOY_SPEC, 2, TOY_CONFIG, make_rng(0))
    stub_scale_translation(layer, np.log(2.0), 1.0)
    _, (adjacency, _) = toy_dequantized()
    restored = array_inverse(layer, adjacency)
    assert np.allclose(restored[0, 2], (adjacency[0, 2] - 1.0) / 2.0)
    assert np.array_equal(restored[0, 0], adjacency[0, 0])


def test_adj_coupling_round_trip_random():
    rng = make_rng(1)
    layer = AdjacencyCouplingLayer(TOY_SPEC, 0, TOY_CONFIG, rng)
    randomize_model(layer, seed=5)
    for _ in range(100):
        z = rng.normal(size=TOY_SPEC.adjacency_shape())
        out, _ = array_forward(layer, z[None])
        back = array_inverse(layer, out)[0]
        assert np.abs(back - z).max() < 1e-6


def test_adj_coupling_changes_only_target_row():
    rng = make_rng(2)
    layer = AdjacencyCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, rng)
    randomize_model(layer, seed=6)
    z = rng.normal(size=TOY_SPEC.adjacency_shape())
    out = array_forward(layer, z[None])[0][0]
    assert np.array_equal(out[0], z[0])
    assert np.array_equal(out[2], z[2])
    assert not np.array_equal(out[1], z[1])


def test_adj_coupling_logdet_matches_brute_force_jacobian():
    # full Jacobian of the N*N*R -> N*N*R map via central differences
    rng = make_rng(3)
    layer = AdjacencyCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, rng)
    randomize_model(layer, seed=7)
    n, r = TOY_SPEC.num_nodes, TOY_SPEC.num_bond_types
    dim = n * n * r
    z0 = rng.normal(size=(n, n, r))
    step = 1e-6

    def apply(flat):
        out, _ = array_forward(layer, flat.reshape(1, n, n, r))
        return out.reshape(-1)

    jac = np.zeros((dim, dim))
    flat0 = z0.reshape(-1)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        jac[:, i] = (apply(flat0 + e) - apply(flat0 - e)) / (2 * step)
    sign, log_abs_det = np.linalg.slogdet(jac)
    _, log_det = array_forward(layer, z0[None])
    assert sign == 1.0
    assert abs(log_abs_det - log_det[0]) < 1e-6


# ---------------------------------------------------------------------------
# node feature coupling
# ---------------------------------------------------------------------------


def test_node_coupling_zero_init_identity():
    layer = NodeFeatureCouplingLayer(TOY_SPEC, 0, TOY_CONFIG, make_rng(0))
    g, (_, features) = toy_dequantized()
    assert np.array_equal(array_forward(layer, features, g.adjacency[None]), features)


def test_node_coupling_stubbed_constant_shift():
    layer = NodeFeatureCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, make_rng(0))
    shift = np.array([0.5, -1.5])

    layer._children["translate_net"].eval_array = lambda zx, *conditioning: np.tile(shift, (zx.shape[0], 1))
    g, (_, features) = toy_dequantized()
    out = array_forward(layer, features, g.adjacency[None])
    assert np.allclose(out[0, 1], features[0, 1] + shift)
    assert np.array_equal(out[0, 0], features[0, 0])
    back = array_inverse(layer, out, g.adjacency[None])
    assert np.allclose(back, features)


def test_node_coupling_round_trip_random():
    rng = make_rng(4)
    layer = NodeFeatureCouplingLayer(TOY_SPEC, 2, TOY_CONFIG, rng)
    randomize_model(layer, seed=8)
    g, _ = toy_dequantized()
    for _ in range(100):
        z = rng.normal(size=TOY_SPEC.feature_shape())
        out = array_forward(layer, z[None], g.adjacency[None])
        back = array_inverse(layer, out, g.adjacency[None])[0]
        assert np.abs(back - z).max() < 1e-6


def test_node_coupling_jacobian_is_volume_preserving():
    rng = make_rng(5)
    layer = NodeFeatureCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, rng)
    randomize_model(layer, seed=9)
    g, _ = toy_dequantized()
    n, m = TOY_SPEC.feature_shape()
    dim = n * m
    z0 = rng.normal(size=(n, m))
    step = 1e-6

    def apply(flat):
        return array_forward(layer, flat.reshape(1, n, m), g.adjacency[None]).reshape(-1)

    jac = np.zeros((dim, dim))
    flat0 = z0.reshape(-1)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        jac[:, i] = (apply(flat0 + e) - apply(flat0 - e)) / (2 * step)
    sign, log_abs_det = np.linalg.slogdet(jac)
    assert sign == 1.0
    assert abs(log_abs_det) < 1e-8


def test_node_coupling_output_independent_of_masked_row():
    # the conditioner must not see the row it updates
    rng = make_rng(6)
    layer = NodeFeatureCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, rng)
    randomize_model(layer, seed=10)
    g, _ = toy_dequantized()
    z = rng.normal(size=TOY_SPEC.feature_shape())
    out1 = array_forward(layer, z[None], g.adjacency[None])[0]
    z2 = z.copy()
    z2[1] += 3.21  # only the updated row changes
    out2 = array_forward(layer, z2[None], g.adjacency[None])[0]
    assert np.allclose(out2[1] - out1[1], z2[1] - z[1])


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------


def test_model_zero_init_is_identity(toy_model):
    _, (adjacency, features) = toy_dequantized()
    z, log_det = toy_model.eval_forward(adjacency, features)
    expected = np.concatenate([adjacency.ravel(), features.ravel()])
    assert np.array_equal(z[0], expected)
    assert log_det[0] == 0.0

    a_cont, x_cont = toy_model.inverse_batch(z)
    assert np.array_equal(a_cont, adjacency)
    assert np.array_equal(x_cont, features)


def test_model_round_trip_random_graphs(random_toy_model):
    rng = make_rng(7)
    for _ in range(100):
        g = random_graph(TOY_SPEC, rng)
        adjacency, features = dequantize([g], 0.9, rng)
        z, _ = random_toy_model.eval_forward(adjacency, features)
        a_cont, x_cont = random_toy_model.inverse_batch(z)
        err = max(np.abs(a_cont - adjacency).max(), np.abs(x_cont - features).max())
        assert err < 1e-5


def test_numeric_error_names_the_coupling_layer():
    config = ModelConfig(adjacency_layers=3, node_layers=6, mlp_hidden=(8, 8), gcn_hidden=6)
    model = FlowModel(TOY_SPEC, config, seed=2)
    _, (adjacency, features) = toy_dequantized()
    z, _ = model.eval_forward(adjacency, features)
    model.set_buffer("node_5.translate_net.bn0.running_var", -np.ones(6))
    for run in (lambda: model.inverse_batch(z), lambda: model.eval_forward(adjacency, features)):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
            run()
        assert str(err.value) == "node_5: batch_norm produced a non-finite value"
        assert isinstance(err.value.__cause__, NumericError)
    model.set_buffer("node_5.translate_net.bn0.running_var", np.ones(6))
    model.set_buffer("adjacency_1.scale_net.bn1.running_var", -np.ones(8))
    for run in (lambda: model.inverse_batch(z), lambda: model.eval_forward(adjacency, features)):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="^adjacency_1: batch_norm"):
            run()


# ---------------------------------------------------------------------------
# the in-place array forward and inverse against the numpy oracle
# ---------------------------------------------------------------------------


def _oracle_cases():
    """A random toy model and a random small qm9lite model; the latter has
    three R-GCN rounds, so two all-node rounds share the inverse's scratch."""
    qm9_config = ModelConfig(
        adjacency_layers=10, node_layers=11, mlp_hidden=(16, 12), gcn_hidden=8, gcn_rounds=3
    )
    return [
        randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=21), seed=22),
        randomize_model(FlowModel(qm9lite_spec(), qm9_config, seed=23), seed=24, scale=0.1),
    ]


def _assert_within(out, expected, rel=1e-12):
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() <= rel * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("batch", [1, 13])
def test_array_inverse_matches_numpy_oracle(batch):
    for model in _oracle_cases():
        spec = model.spec
        rng = make_rng(25 + batch)
        z = rng.normal(scale=0.8, size=(batch, spec.latent_dim))
        a_cont, x_cont = model.inverse_batch(z)
        a_ref, x_ref = oracle_inverse_batch(model, z)
        _assert_within(a_cont, a_ref)
        _assert_within(x_cont, x_ref)
        assert not np.array_equal(a_cont, z[:, : a_cont[0].size].reshape(a_cont.shape))
        # Layer by layer, on a random working buffer.
        za = rng.normal(size=(batch,) + spec.adjacency_shape())
        zx = rng.normal(size=(batch,) + spec.feature_shape())
        conditioning = argmax_adjacency(spec, za)
        for layer in model.adjacency_layers[:3]:
            out = array_inverse(layer, za)
            _assert_within(out, oracle_adj_inverse(layer, za))
            others = np.arange(spec.num_nodes) != layer.row
            assert np.array_equal(out[:, others], za[:, others])
        for layer in model.node_layers[:3]:
            out = array_inverse(layer, zx, conditioning)
            _assert_within(out, oracle_node_inverse(layer, zx, conditioning))
            others = np.arange(spec.num_nodes) != layer.row
            assert np.array_equal(out[:, others], zx[:, others])


@pytest.mark.parametrize("batch", [1, 13])
def test_array_forward_matches_numpy_oracle(batch):
    for model in _oracle_cases():
        spec = model.spec
        rng = make_rng(40 + batch)
        graphs = [random_graph(spec, rng) for _ in range(batch)]
        adjacency, features = dequantize(graphs, 0.9, rng)
        z, log_det = model.eval_forward(adjacency, features)
        z_ref, log_det_ref = oracle_forward_batch(model, adjacency, features)
        _assert_within(z, z_ref)
        _assert_within(log_det, log_det_ref)
        assert np.abs(log_det).min() > 0.0
        # Layer by layer, on a random working buffer: only the target slice changes.
        za = rng.normal(size=(batch,) + spec.adjacency_shape())
        zx = rng.normal(size=(batch,) + spec.feature_shape())
        conditioning = argmax_adjacency(spec, za)
        for layer in model.adjacency_layers[:3]:
            out, ld = array_forward(layer, za)
            ref, ld_ref = oracle_adj_forward(layer, za)
            _assert_within(out, ref)
            _assert_within(ld, ld_ref)
            others = np.arange(spec.num_nodes) != layer.row
            assert np.array_equal(out[:, others], za[:, others])
            assert not np.array_equal(out[:, layer.row], za[:, layer.row])
        for layer in model.node_layers[:3]:
            out = array_forward(layer, zx, conditioning)
            _assert_within(out, oracle_node_forward(layer, zx, conditioning))
            others = np.arange(spec.num_nodes) != layer.row
            assert np.array_equal(out[:, others], zx[:, others])
            assert not np.array_equal(out[:, layer.row], zx[:, layer.row])


def test_training_forward_equals_eval_forward_under_its_own_batch_statistics():
    """With momentum 1 every running statistic becomes the batch statistic
    the training forward just used, so the eval forward of the same batch
    recomputes the training latents and log-dets: the two paths share no
    coupling code, and the eval one is checked against the Jacobian and the
    numpy oracle."""
    def modules(module):
        yield module
        for child in module._children.values():
            yield from modules(child)

    for model in _oracle_cases():
        norms = [m for m in modules(model) if isinstance(m, nets.BatchNorm)]
        assert len(norms) == 2 * 2 * len(model.adjacency_layers) + model.config.gcn_rounds * len(model.node_layers)
        for norm in norms:
            norm.momentum = 1.0
        rng = make_rng(53)
        adjacency, features = dequantize([random_graph(model.spec, rng) for _ in range(13)], 0.9, rng)
        z, log_det = model.forward_batch(adjacency, features)
        z_eval, log_det_eval = model.eval_forward(adjacency, features)
        _assert_within(z_eval, z.data, rel=1e-10)
        _assert_within(log_det_eval, log_det.data, rel=1e-10)
        assert np.abs(log_det.data).min() > 0.0


def test_eval_forward_then_inverse_batch_round_trips():
    for model in _oracle_cases():
        rng = make_rng(50)
        graphs = [random_graph(model.spec, rng) for _ in range(13)]
        adjacency, features = dequantize(graphs, 0.9, rng)
        a_cont, x_cont = model.inverse_batch(model.eval_forward(adjacency, features)[0])
        assert max(np.abs(a_cont - adjacency).max(), np.abs(x_cont - features).max()) < 1e-8
        assert np.array_equal(np.floor(a_cont), np.stack([g.adjacency for g in graphs]))
        assert np.array_equal(np.floor(x_cont), np.stack([g.features for g in graphs]))


def test_eval_forward_leaves_its_inputs_unchanged_and_takes_read_only_arrays(random_toy_model):
    rng = make_rng(51)
    adjacency, features = dequantize([random_graph(TOY_SPEC, rng) for _ in range(5)], 0.9, rng)
    read_only = Tensor(adjacency).data, Tensor(features).data
    assert not read_only[0].flags.writeable
    z, log_det = random_toy_model.eval_forward(*read_only)
    assert np.array_equal(read_only[0], adjacency) and np.array_equal(read_only[1], features)
    writable = random_toy_model.eval_forward(adjacency.copy(), features.copy())
    assert z.tobytes() == writable[0].tobytes() and log_det.tobytes() == writable[1].tobytes()


def _oracle_forward_error(model, adjacency, features) -> str:
    """The text of the NumericError the oracle forward raises, prefixed with
    the coupling layer's name as ``eval_forward`` does."""
    conditioning = np.floor(adjacency)
    zx, za = features, adjacency
    for k, layer in enumerate(model.node_layers):
        try:
            zx = oracle_node_forward(layer, zx, conditioning)
        except NumericError as err:
            return f"node_{k}: {err}"
    for k, layer in enumerate(model.adjacency_layers):
        try:
            za = oracle_adj_forward(layer, za)[0]
        except NumericError as err:
            return f"adjacency_{k}: {err}"
    raise AssertionError("the oracle raised no NumericError")


def test_forward_numeric_errors_keep_their_text_and_layer():
    rng = make_rng(52)
    adjacency, features = dequantize([random_graph(TOY_SPEC, rng) for _ in range(4)], 0.9, rng)
    model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=32), seed=33)
    for bad in (0, 1):
        inputs = [adjacency.copy(), features.copy()]
        inputs[bad][2, 1, 0] = np.inf
        with pytest.raises(NumericError) as err:
            model.eval_forward(*inputs)
        assert str(err.value) == "tensor constructed with non-finite values"

    huge_cap = dataclasses.replace(TOY_CONFIG, scale_cap=1e300)
    model = randomize_model(FlowModel(TOY_SPEC, huge_cap, seed=32), seed=33)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        model.eval_forward(adjacency, features)
    expected = _oracle_forward_error(model, adjacency, features)
    assert str(err.value) == expected == "adjacency_0: exp produced a non-finite value"

    for name, expected in [
        ("adjacency_1.translate_net.bn1.running_var", "adjacency_1: batch_norm produced a non-finite value"),
        ("node_0.translate_net.bn0.running_var", "node_0: batch_norm produced a non-finite value"),
    ]:
        model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=32), seed=33)
        model.set_buffer(name, -np.ones(dict(model.named_buffers())[name].shape))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
            model.eval_forward(adjacency, features)
        assert isinstance(err.value.__cause__, NumericError)
        assert str(err.value) == _oracle_forward_error(model, adjacency, features) == expected


def test_graph_conv_net_numeric_errors_name_graph_conv_or_batch_norm():
    """A non-finite value in an R-GCN round names ``graph_conv`` if the
    round's own output is already non-finite, else ``batch_norm``, in the
    forward and in the inverse, as the unfolded oracles do: in the target
    round, which scales its product, and in an all-node round, which runs
    on folded weights."""
    rng = make_rng(53)
    adjacency, features = dequantize([random_graph(TOY_SPEC, rng) for _ in range(4)], 0.9, rng)
    z = make_rng(54).normal(size=(4, TOY_SPEC.latent_dim))
    net = "node_1.translate_net"
    # bn0 maps every node to tanh(100) = 1, so round1's self-loop product
    # is six times 1e308 in every feature: +inf.
    overflow = {
        f"{net}.bn0.gamma": np.zeros(6),
        f"{net}.bn0.beta": np.full(6, 100.0),
        f"{net}.round1.self_weight": np.full((6, 6), 1e308),
    }
    # Round0's output is finite unscaled, but its folded weights, scaled by
    # about 1e308, overflow the product.
    scaled_overflow = {
        f"{net}.bn0.gamma": np.full(6, 1e308),
        f"{net}.round0.self_weight": np.ones((2, 6)),
        f"{net}.round0.rel_weight": np.ones((2, 2, 6)),
    }
    for params, buffers, op in [
        (overflow, {}, "graph_conv"),
        ({}, {f"{net}.bn1.running_var": -np.ones(6)}, "batch_norm"),
        (scaled_overflow, {}, "batch_norm"),
    ]:
        model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=32), seed=33)
        model.load_parameters({name: Tensor(value) for name, value in params.items()})
        for name, value in buffers.items():
            model.set_buffer(name, value)
        expected = f"node_1: {op} produced a non-finite value"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as forward:
                model.eval_forward(adjacency, features)
            assert str(forward.value) == _oracle_forward_error(model, adjacency, features) == expected
            with pytest.raises(NumericError) as inverse:
                model.inverse_batch(z)
            assert str(inverse.value) == _oracle_error(model, z) == expected


def test_inverse_batch_leaves_its_input_unchanged_and_takes_read_only_arrays(random_toy_model):
    for batch in (1, 5):
        z = Tensor(make_rng(30 + batch).normal(size=(batch, TOY_SPEC.latent_dim))).data
        assert not z.flags.writeable
        before = z.copy()
        a_cont, x_cont = random_toy_model.inverse_batch(z)
        assert np.array_equal(z, before)
        writable = random_toy_model.inverse_batch(before.copy())
        assert np.array_equal(a_cont, writable[0]) and np.array_equal(x_cont, writable[1])


def _oracle_error(model, z) -> str:
    """The text of the NumericError the oracle inverse raises on ``z``,
    prefixed with the coupling layer's name as ``inverse_batch`` does."""
    spec = model.spec
    n, m, r = spec.num_nodes, spec.num_atom_types, spec.num_bond_types
    za = z[:, : n * n * r].reshape(-1, n, n, r)
    for k in reversed(range(len(model.adjacency_layers))):
        try:
            za = oracle_adj_inverse(model.adjacency_layers[k], za)
        except NumericError as err:
            return f"adjacency_{k}: {err}"
    conditioning = argmax_adjacency(spec, za)
    zx = z[:, n * n * r :].reshape(-1, n, m)
    for k in reversed(range(len(model.node_layers))):
        try:
            zx = oracle_node_inverse(model.node_layers[k], zx, conditioning)
        except NumericError as err:
            return f"node_{k}: {err}"
    raise AssertionError("the oracle raised no NumericError")


def test_inverse_numeric_errors_keep_their_text_and_layer():
    z = make_rng(31).normal(size=(4, TOY_SPEC.latent_dim))
    model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=32), seed=33)
    nan_z = z.copy()
    nan_z[2, 5] = np.nan
    with pytest.raises(NumericError) as err:
        model.inverse_batch(nan_z)
    assert str(err.value) == "tensor constructed with non-finite values"

    huge_cap = dataclasses.replace(TOY_CONFIG, scale_cap=1e300)
    model = randomize_model(FlowModel(TOY_SPEC, huge_cap, seed=32), seed=33)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        model.inverse_batch(z)
    assert str(err.value) == _oracle_error(model, z) == "adjacency_2: exp produced a non-finite value"

    for name, expected in [
        ("adjacency_1.translate_net.bn1.running_var", "adjacency_1: batch_norm produced a non-finite value"),
        ("node_0.translate_net.bn0.running_var", "node_0: batch_norm produced a non-finite value"),
    ]:
        model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=32), seed=33)
        model.set_buffer(name, -np.ones(dict(model.named_buffers())[name].shape))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
            model.inverse_batch(z)
        assert isinstance(err.value.__cause__, NumericError)
        with np.errstate(invalid="ignore"):
            assert str(err.value) == _oracle_error(model, z) == expected


def test_model_logdet_matches_full_jacobian(random_toy_model):
    model = random_toy_model
    _, (adjacency, features) = toy_dequantized(seed=12)
    conditioning = np.floor(adjacency)
    dim = TOY_SPEC.latent_dim
    n, m, r = 3, 2, 2
    base = np.concatenate([adjacency.ravel(), features.ravel()])
    step = 1e-6

    def apply(flat):
        a = flat[: n * n * r].reshape(1, n, n, r)
        x = flat[n * n * r :].reshape(1, n, m)
        za, zx, _ = fixed_conditioning_forward(model, a, x, conditioning)
        return np.concatenate([za.reshape(-1), zx.reshape(-1)])

    jac = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        jac[:, i] = (apply(base + e) - apply(base - e)) / (2 * step)
    sign, log_abs_det = np.linalg.slogdet(jac)
    _, _, analytic = fixed_conditioning_forward(model, adjacency, features, conditioning)
    assert sign == 1.0
    assert abs(log_abs_det - float(analytic[0])) < 1e-5


def test_model_reconstructs_training_graph(random_toy_model):
    rng = make_rng(8)
    for _ in range(20):
        g = random_graph(TOY_SPEC, rng)
        z, _ = random_toy_model.eval_forward(*dequantize([g], 0.9, rng))
        a_cont, x_cont = random_toy_model.inverse_batch(z)
        recovered = np.floor(a_cont[0]), np.floor(x_cont[0])
        assert np.array_equal(recovered[0], g.adjacency)
        assert np.array_equal(recovered[1], g.features)


def test_one_conditioning_layout_per_eval_pass(monkeypatch):
    """During one ``inverse_batch`` and one ``eval_forward`` on a qm9lite
    model, every ``kernels.graph_conv`` call reads an ``a_rows`` that shares
    memory with the one :class:`~graphnvp.nets.Conditioning` layout made in
    that pass: the adjacency is laid out once per pass, not once per layer,
    and every sample block reads a view of it."""
    model = randomize_model(FlowModel(qm9lite_spec(), seed=0), seed=32)
    made, reads = [], []
    init, graph_conv = nets.Conditioning.__init__, K.graph_conv

    def recording_init(self, adjacency):
        init(self, adjacency)
        made.append(self.a_rows)

    def recording_graph_conv(h, a_rows, *args, **kwargs):
        reads.append(a_rows)
        return graph_conv(h, a_rows, *args, **kwargs)

    monkeypatch.setattr(nets.Conditioning, "__init__", recording_init)
    monkeypatch.setattr(K, "graph_conv", recording_graph_conv)
    z = make_rng(33).standard_normal((300, model.spec.latent_dim))  # two sample blocks
    adjacency, features = model.inverse_batch(z)
    inverse_pass = (made[:], reads[:])
    made.clear()
    reads.clear()
    model.eval_forward(adjacency, features)
    config = model.config
    for made_in_pass, reads_in_pass in (inverse_pass, (made, reads)):
        assert len(made_in_pass) == 1
        assert len(reads_in_pass) == 2 * config.node_layers * config.gcn_rounds
        assert all(np.shares_memory(a_rows, made_in_pass[0]) for a_rows in reads_in_pass)


def test_model_two_step_order_matters(random_toy_model):
    """Decoding node features before the adjacency stack uses the wrong
    conditioning graph; at least one latent must decode differently."""
    model = random_toy_model
    rng = make_rng(9)
    spec = TOY_SPEC
    n, m, r = 3, 2, 2
    split = n * n * r

    def swapped_inverse(z):
        from graphnvp.graphs import argmax_adjacency

        za = z[:, :split].reshape(-1, n, n, r).copy()
        zx = z[:, split:].reshape(-1, n, m).copy()
        # wrong order: condition node features on the *latent* adjacency argmax
        conditioning = np.stack([argmax_adjacency(spec, za[b]) for b in range(z.shape[0])])
        for layer in reversed(model.node_layers):
            layer.inverse(zx, nets.Conditioning(conditioning))
        for layer in reversed(model.adjacency_layers):
            layer.inverse(za)
        return za, zx

    z = rng.normal(size=(20, spec.latent_dim))
    a_ref, x_ref = model.inverse_batch(z)
    a_alt, x_alt = swapped_inverse(z)
    assert np.array_equal(a_ref, a_alt)  # adjacency path identical either way
    assert not np.allclose(x_ref, x_alt)


def test_model_not_permutation_invariant(random_toy_model):
    rng = make_rng(10)
    spec = TOY_SPEC
    found_difference = False
    for _ in range(20):
        g = random_graph(spec, rng)
        dq = dequantize([g], 0.9, rng)
        perm = rng.permutation(spec.num_nodes)
        permuted = permute_nodes(g, perm)
        dq_perm = dequantize([permuted], 0.9, rng)
        z_a, _ = random_toy_model.eval_forward(*dq)
        z_b, _ = random_toy_model.eval_forward(*dq_perm)
        # compare latents after undoing the relabeling on the structured parts
        za = z_a[0, :18].reshape(3, 3, 2)
        zb = z_b[0, :18].reshape(3, 3, 2)
        zb_undone = zb[np.argsort(perm)][:, np.argsort(perm)]
        if not np.allclose(za, zb_undone, atol=1e-8):
            found_difference = True
            break
    assert found_difference


# ---------------------------------------------------------------------------
# prior
# ---------------------------------------------------------------------------


def test_prior_standard_normal_at_origin():
    prior = GaussianPrior(2)
    log_prob = prior.log_prob(Tensor(np.zeros((1, 2)))).data[0]
    assert log_prob == pytest.approx(-np.log(2 * np.pi), abs=1e-12)


def test_prior_unit_shift():
    prior = GaussianPrior(4)
    at_zero, shifted = prior.log_prob(Tensor(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))).data
    assert shifted - at_zero == pytest.approx(-0.5, abs=1e-12)


def test_prior_matches_extended_precision_reference():
    from mpmath import mp, mpf

    mp.dps = 50
    prior = GaussianPrior(6)
    prior.set_parameter("log_sigma", Tensor(0.3))
    rng = make_rng(11)
    for _ in range(10):
        z = rng.normal(size=6)
        sigma = mpf(str(np.exp(0.3)))
        reference = sum(
            -mpf(0.5) * mp.log(2 * mp.pi) - mp.log(sigma) - mpf(str(v)) ** 2 / (2 * sigma**2)
            for v in z
        )
        log_prob = prior.log_prob(Tensor(z[None])).data[0]
        assert log_prob == pytest.approx(float(reference), rel=1e-12)


def test_latent_point_dimension(random_toy_model):
    _, (adjacency, features) = toy_dequantized(seed=14)
    z, log_det = random_toy_model.eval_forward(np.repeat(adjacency, 2, 0), np.repeat(features, 2, 0))
    assert z.shape == (2, TOY_SPEC.latent_dim) == (2, 24)
    assert log_det.shape == (2,)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path, random_toy_model):
    model = random_toy_model
    path = tmp_path / "toy.gnvp"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, TOY_SPEC)
    _, (adjacency, features) = toy_dequantized(seed=13)
    z1, ld1 = model.eval_forward(adjacency, features)
    z2, ld2 = loaded.eval_forward(adjacency, features)
    assert np.array_equal(z1, z2)
    assert np.array_equal(ld1, ld2)
    for (n1, p1), (n2, p2) in zip(
        sorted(model.named_parameters()), sorted(loaded.named_parameters())
    ):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)
    for (n1, b1), (n2, b2) in zip(
        sorted(model.named_buffers()), sorted(loaded.named_buffers())
    ):
        assert n1 == n2 and np.array_equal(b1, b2)


def test_checkpoint_save_streams_to_disk(tmp_path):
    """A save never holds a copy of the whole file: its traced allocations
    peak well under the file size."""
    config = ModelConfig(adjacency_layers=3, node_layers=3, mlp_hidden=(256, 256), gcn_hidden=6)
    model = FlowModel(TOY_SPEC, config, seed=1)
    path = tmp_path / "big.gnvp"
    tracemalloc.start()
    try:
        save_checkpoint(model, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3_000_000
    assert peak < 1.5 * size
    loaded = dict(load_checkpoint(path, TOY_SPEC).named_parameters())
    assert all(np.array_equal(loaded[name].data, p.data) for name, p in model.named_parameters())


def test_checkpoint_load_reads_without_copying_the_file(tmp_path):
    """A load checks the CRC in a streaming pass and reads each entry
    straight into its final array: no image of the file, no second copy of
    an entry and no weights drawn for the file to replace."""
    config = ModelConfig(adjacency_layers=3, node_layers=3, mlp_hidden=(256, 256), gcn_hidden=6)
    model = FlowModel(TOY_SPEC, config, seed=1)
    path = tmp_path / "big.gnvp"
    save_checkpoint(model, path)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path, TOY_SPEC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3_000_000
    assert peak < 1.3 * size
    params = dict(loaded.named_parameters())
    assert all(np.array_equal(params[name].data, p.data) for name, p in model.named_parameters())


def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch):
    """The loader builds the model's structure without a Glorot draw, for a
    checkpoint and for a train state: both work with the generator that
    draws every weight made to raise."""
    model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=3), seed=4)
    path, state_path = tmp_path / "toy.gnvp", tmp_path / "state.gnvp"
    save_checkpoint(model, path)
    state = TrainState.fresh(model)
    state.first_moment[:] = make_rng(6).normal(size=state.params.size)
    save_train_state(state_path, state, model)

    def no_draw(*args, **kwargs):
        raise AssertionError("a weight was drawn")

    class NoDrawGenerator:
        uniform = staticmethod(no_draw)

    monkeypatch.setattr(flow, "make_rng", lambda seed: NoDrawGenerator())
    with pytest.raises(AssertionError, match="drawn"):
        FlowModel(TOY_SPEC, TOY_CONFIG, seed=3)
    from_state, loaded_state = load_train_state(state_path, TOY_SPEC)
    assert loaded_state.first_moment.tobytes() == state.first_moment.tobytes()
    z = make_rng(5).normal(size=(3, TOY_SPEC.latent_dim))
    for loaded in (load_checkpoint(path, TOY_SPEC), from_state):
        params = dict(loaded.named_parameters())
        assert all(np.array_equal(params[name].data, p.data) for name, p in model.named_parameters())
        for out, expected in zip(loaded.inverse_batch(z), model.inverse_batch(z)):
            assert out.tobytes() == expected.tobytes()


def _parameter_digest(model) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(model.named_parameters()):
        digest.update(name.encode() + value.data.tobytes())
    for name, value in sorted(model.named_buffers()):
        digest.update(name.encode() + value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "build, expected",
    [
        (
            lambda: FlowModel(TOY_SPEC, TOY_CONFIG, seed=3),
            "ffea3473762099a6ba0944a72f2b295f89c350645ff9bc601ca9b17c23c3e9dc",
        ),
        (
            lambda: FlowModel(qm9lite_spec(), seed=0),
            "57f104de28ac7715eff98dfa5e1d3006f72306ddb79940994eab8c29640f2d1b",
        ),
    ],
)
def test_initialization_keeps_its_draws(build, expected):
    """A seeded model's initial parameters, bit for bit: the digests were
    recorded before the loader stopped drawing weights, so they guard the
    draw order."""
    assert _parameter_digest(build()) == expected


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(lambda meta: meta["model"].pop("gcn_rounds"), "model.gcn_rounds", id="missing"),
        pytest.param(lambda meta: meta["model"].update(gcn_rounds="2"), "model.gcn_rounds", id="text"),
        pytest.param(lambda meta: meta["model"].update(mlp_hidden=[8, 8.5]), "model.mlp_hidden", id="float"),
        pytest.param(lambda meta: meta["model"].update(gcn_rounds=0), "model.gcn_rounds", id="zero_rounds"),
        pytest.param(lambda meta: meta["model"].update(adjacency_layers=-1), "model.adjacency_layers", id="negative"),
        pytest.param(lambda meta: meta["model"].update(node_layers=0), "model.node_layers", id="zero_layers"),
        pytest.param(lambda meta: meta["model"].update(gcn_hidden=0), "model.gcn_hidden", id="zero_hidden"),
        pytest.param(lambda meta: meta["model"].update(mlp_hidden=[8, 0]), "model.mlp_hidden", id="zero_width"),
        pytest.param(lambda meta: meta["model"].update(scale_cap=0), "model.scale_cap", id="zero_cap"),
        pytest.param(lambda meta: meta["model"].update(scale_cap=-5.0), "model.scale_cap", id="negative_cap"),
        pytest.param(lambda meta: meta["spec"].pop("atom_vocab"), "spec.atom_vocab", id="missing_vocab"),
        pytest.param(lambda meta: meta["spec"].update(num_nodes=True), "spec.num_nodes", id="bool"),
        pytest.param(lambda meta: meta["spec"].update(num_nodes=0), "spec.num_nodes", id="zero_nodes"),
        pytest.param(lambda meta: meta["spec"].update(atom_vocab=["C"]), "spec.atom_vocab", id="one_atom"),
        pytest.param(lambda meta: meta["spec"].update(bond_vocab=["single"]), "spec.bond_vocab", id="one_bond"),
        pytest.param(lambda meta: meta.update(spec=[3]), "spec", id="spec_list"),
        pytest.param(lambda meta: meta["spec"].update(atom_vocab=["B", "*"]), "spec", id="no_valence"),
        pytest.param(
            lambda meta: meta["spec"].update(bond_vocab=["1", "2", "3", "4", "virtual"]), "spec", id="bond_orders"
        ),
        pytest.param(lambda meta: meta.pop("model"), "model", id="missing_model"),
        pytest.param(lambda meta: meta.update(optimizer={"step": 1, "epoch": 1}), "optimizer.rng_state", id="optimizer"),
        pytest.param(lambda meta: meta.pop("forward_order"), "forward_order", id="missing_order"),
        pytest.param(lambda meta: meta.update(forward_order="adjacency_firstXXXX"), "forward_order", id="wrong_order"),
    ],
)
def test_checkpoint_with_malformed_metadata_names_the_key(tmp_path, toy_model, edit, key):
    """A CRC-valid file whose metadata lacks a key, or holds a value of the
    wrong type, is refused with the key named."""
    path = tmp_path / "toy.gnvp"
    save_checkpoint(toy_model, path)
    edit_checkpoint_meta(path, edit)
    with pytest.raises(CheckpointError, match=rf"metadata (lacks {key}$|{key} is )"):
        load_checkpoint(path, TOY_SPEC)


@pytest.mark.parametrize(
    "field, value",
    [
        ("adjacency_layers", 0),
        ("node_layers", -1),
        ("gcn_hidden", 0),
        ("gcn_rounds", 0),
        ("mlp_hidden", (8, 0)),
        ("scale_cap", 0),
        ("scale_cap", -5.0),
    ],
)
def test_model_config_refuses_a_count_below_one(field, value):
    with pytest.raises(GnvpError, match=f"^(every )?{field}"):
        dataclasses.replace(TOY_CONFIG, **{field: value})


def test_checkpoint_with_an_entry_twice_is_refused(tmp_path, toy_model):
    path = tmp_path / "toy.gnvp"
    save_checkpoint(toy_model, path)
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[8:12])
    start = 12 + meta_len
    (count,) = struct.unpack("<I", data[start : start + 4])
    # The first entry: name, shape, float64 values.
    (name_len,) = struct.unpack("<I", data[start + 4 : start + 8])
    pos = start + 8 + name_len
    (ndim,) = struct.unpack("<I", data[pos : pos + 4])
    shape = struct.unpack(f"<{ndim}I", data[pos + 4 : pos + 4 + 4 * ndim])
    end = pos + 4 + 4 * ndim + 8 * int(np.prod(shape))
    first = data[start + 4 : end]
    name = first[4 : 4 + name_len].decode()
    payload = data[:start] + struct.pack("<I", count + 1) + first + data[start + 4 : -4]
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match=f"entry '{name}' appears twice"):
        load_checkpoint(path, TOY_SPEC)


def test_checkpoint_with_bytes_after_the_last_entry_is_refused(tmp_path, toy_model):
    path = tmp_path / "toy.gnvp"
    save_checkpoint(toy_model, path)
    payload = path.read_bytes()[:-4] + bytes(16)
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="16 bytes after the last entry"):
        load_checkpoint(path, TOY_SPEC)


def test_checkpoint_spec_mismatch(tmp_path, toy_model):
    path = tmp_path / "toy.gnvp"
    save_checkpoint(toy_model, path)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path, qm9lite_spec())
    assert "spec" in str(err.value)


def saved_files(model, tmp_path):
    """A model checkpoint and a train-state file of ``model``, each with the
    loader that reads it."""
    checkpoint, state = tmp_path / "toy.gnvp", tmp_path / "state.gnvp"
    save_checkpoint(model, checkpoint)
    save_train_state(state, TrainState.fresh(model), model)
    return [
        (checkpoint, lambda path: load_checkpoint(path, TOY_SPEC)),
        (state, lambda path: load_train_state(path, TOY_SPEC)),
    ]


def test_checkpoint_truncated(tmp_path, toy_model):
    for path, load in saved_files(toy_model, tmp_path):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load(path)


def test_checkpoint_corrupted_crc(tmp_path, toy_model):
    for path, load in saved_files(toy_model, tmp_path):
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as err:
            load(path)
        assert "CRC" in str(err.value) or "truncated" in str(err.value)


def test_checkpoint_version_mismatch(tmp_path, toy_model):
    import struct
    import zlib

    for path, load in saved_files(toy_model, tmp_path):
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        payload = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as err:
            load(path)
        assert "version" in str(err.value)


def test_checkpoint_without_batch_norm_rejected(tmp_path, toy_model):
    """Every model has batch norm; a file whose meta says otherwise, even
    with a valid CRC, is refused and the key is named."""
    import struct
    import zlib

    path = tmp_path / "toy.gnvp"
    save_checkpoint(toy_model, path)
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[8:12])
    meta = data[12 : 12 + meta_len]
    assert meta.count(b'"batch_norm": true') == 1
    meta = meta.replace(b'"batch_norm": true', b'"batch_norm": false')
    payload = data[:8] + struct.pack("<I", len(meta)) + meta + data[12 + meta_len : -4]
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="batch_norm"):
        load_checkpoint(path, TOY_SPEC)


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.gnvp"
    path.write_bytes(b"hello world")
    with pytest.raises(CheckpointError):
        load_checkpoint(path, TOY_SPEC)
