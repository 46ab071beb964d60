import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    TOY_CONFIG,
    TOY_SPEC,
    array_forward,
    array_inverse,
    oracle_adj_forward,
    oracle_adj_inverse,
    oracle_mlp,
    oracle_node_forward,
    oracle_node_inverse,
    oracle_norm,
    oracle_rgcn,
    random_graph,
    randomize_model,
)
from graphnvp.errors import NumericError
from graphnvp.flow import (
    CHECKPOINT_VERSION,
    AdjacencyCouplingLayer,
    FlowModel,
    NodeFeatureCouplingLayer,
    load_checkpoint,
    save_checkpoint,
)
from graphnvp.graphs import dequantize, qm9lite_spec
from graphnvp.nets import (
    SAMPLE_BLOCK,
    BatchNorm,
    Linear,
    MlpNet,
    RelationalGraphConvNet,
    Conditioning,
    RelGraphRound,
)
from graphnvp import kernels as K
from graphnvp import tensor as T
from graphnvp.tensor import GradientTape, Tensor, make_rng
from graphnvp.train import TrainConfig, TrainState, load_train_state, save_train_state, train

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
    values = {}
    for name, buf in net.named_buffers():
        if name.endswith("running_mean"):
            values[name] = rng.normal(scale=0.2, size=buf.shape)
        elif name.endswith("running_var"):
            values[name] = 1.0 + 0.5 * rng.random(buf.shape)
    for name, p in net.named_parameters():
        values[name] = rng.normal(scale=0.5, size=p.shape)
    net.load_parameters(values)


def test_round_equals_explicit_relation_sum():
    """The stacked contraction is sum_r A_r h W_r + h W_self + b."""
    h, adjacency = random_relational_input(seed=1)
    layer = RelGraphRound(4, 6, 3, make_rng(2))
    layer.load_parameters({"bias": make_rng(3).normal(size=6)})
    p = {name: value.data for name, value in layer.named_parameters()}
    w_rel = p["rel_weight"]
    expected = h @ p["self_weight"] + p["bias"]
    for r in range(3):
        expected = expected + adjacency[..., r] @ h @ w_rel[r]
    out = layer(Tensor(h), a_rows_of(adjacency)).data
    assert out.shape == (3, 5, 6)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_round_target_row_equals_row_of_full_output():
    """The eval round for one target node is that node's row of the round."""
    h, adjacency = random_relational_input(seed=4)
    layer = RelGraphRound(4, 6, 3, make_rng(5))
    full = layer(Tensor(h), a_rows_of(adjacency)).data
    weights = [p.data for p in layer._params.values()]
    for row in range(5):
        only = K.graph_conv(h, a_rows_of(adjacency), *weights, row)
        assert only.shape == (3, 6)
        assert np.abs(only - full[:, row]).max() <= 1e-12 * np.abs(full).max()


def test_eval_target_row_matches_full_eval_computation():
    """In eval the last round computes only the target row; the result is that
    row of the all-nodes computation."""
    h, adjacency = random_relational_input(seed=6)
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(7))
    randomize_net(net, make_rng(8))
    for row in range(5):
        expected = oracle_rgcn(net, h, adjacency, row)
        out = net.eval_array(h, Conditioning(adjacency), row)
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
        full = net._children[f"bn{k}"](full)
        full = T.tanh(full)
    expected = net._children["head"](T.index_axis(full, 1, 2)).data
    out = net(Tensor(h), Conditioning(adjacency), 2).data
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_conditioning_lays_out_the_adjacency_once():
    """A :class:`Conditioning` holds the R-GCN's [batch, N*R, N] layout as
    one C-contiguous array, and its ``bonds()`` is the adjacency again, a
    view of that array; a conditioning made from ``bonds()`` gives the same
    bits in eval and in training."""
    h, adjacency = random_relational_input(seed=12)
    conditioning = Conditioning(adjacency)
    assert conditioning.a_rows.flags.c_contiguous
    assert np.array_equal(conditioning.a_rows, a_rows_of(adjacency))
    assert not np.shares_memory(conditioning.a_rows, adjacency)
    bonds = conditioning.bonds()
    assert bonds.shape == adjacency.shape and np.array_equal(bonds, adjacency)
    assert np.shares_memory(bonds, conditioning.a_rows)
    again = Conditioning(bonds)
    assert np.shares_memory(again.a_rows, conditioning.a_rows)
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(13))
    randomize_net(net, make_rng(14))
    plain = net.eval_array(h, conditioning, 1)
    assert net.eval_array(h, again, 1).tobytes() == plain.tobytes()
    plain = net(Tensor(h), conditioning, 1).data
    assert net(Tensor(h), again, 1).data.tobytes() == plain.tobytes()


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

    z, log_det = model.eval_forward(io["adjacency"], io["features"])
    assert np.abs(z - io["latents"]).max() <= 1e-12 * np.abs(io["latents"]).max()
    assert np.abs(log_det - io["log_det"]).max() <= 1e-12 * np.abs(io["log_det"]).max()
    adjacency, features = model.inverse_batch(io["latents"])
    assert np.array_equal(np.floor(adjacency), np.floor(io["adjacency"]))
    assert np.array_equal(np.floor(features), np.floor(io["features"]))


# ---------------------------------------------------------------------------
# batch norm folded into the layer before it (eval only)
# ---------------------------------------------------------------------------


def assert_close(out, expected, rel=1e-12):
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() <= rel * np.abs(expected).max()


def test_fold_is_the_layer_then_frozen_batch_norm():
    rng = make_rng(20)
    h, adjacency = random_relational_input(seed=21, f=4)
    a_rows = a_rows_of(adjacency)
    lin, conv, norm = Linear(4, 6, rng), RelGraphRound(4, 6, 3, rng), BatchNorm(6)
    for module in (lin, conv, norm):
        randomize_net(module, rng)
    x = Tensor(rng.normal(size=(7, 4)))
    for act in ("relu", "tanh"):
        y = K.linear(x.data, *norm.fold(lin))
        assert_close(K.activate(y, act, "linear"), oracle_norm(norm, lin(x).data, act))
        full = oracle_norm(norm, conv(Tensor(h), a_rows).data, act)
        for row in (None, 2):
            y = K.graph_conv(h, a_rows, *norm.fold(conv), row)
            assert_close(K.activate(y, act, "graph_conv"), full if row is None else full[:, 2])


def test_folded_mlp_matches_unfolded_composition():
    rng = make_rng(22)
    net = MlpNet(10, (8, 8), 5, rng)
    randomize_net(net, rng)
    x = rng.normal(size=(6, 10))
    assert_close(net.eval_array(x), oracle_mlp(net, x))


@pytest.mark.parametrize("batch", [1, 127, 128, 255, 256, 257, 383, 1000])
def test_graph_conv_net_eval_in_sample_blocks_matches_oracle(batch):
    """A batch of ``batch // SAMPLE_BLOCK`` blocks gives, in every row, what
    the unblocked oracle gives, with one all-node scratch pair per pass."""
    assert SAMPLE_BLOCK == 128
    h, adjacency = random_relational_input(seed=batch, batch=batch)
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(26))
    randomize_net(net, make_rng(27))
    conditioning = Conditioning(adjacency)
    for row in (0, 4):
        assert_close(net.eval_array(h, conditioning, row), oracle_rgcn(net, h, adjacency, row))
    largest = -(-batch // max(batch // SAMPLE_BLOCK, 1))
    assert largest < 2 * SAMPLE_BLOCK
    # Round 0 is the one all-node round: its output and its self-loop product.
    scratch = conditioning.scratch
    assert {key: arr.shape for key, arr in scratch.items()} == {0: (largest * 5, 6), "self_loop": (largest * 5, 6)}


@pytest.mark.parametrize("path", ["full", "target_row"])
def test_folded_graph_conv_net_matches_unfolded_composition(path):
    """The unfolded oracle computes every round for all nodes ("full") or,
    like eval, only the target row in the last round."""
    h, adjacency = random_relational_input(seed=23)
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(24))
    randomize_net(net, make_rng(25))
    for row in range(5):
        expected = oracle_rgcn(net, h, adjacency, row, last_row_only=path == "target_row")
        assert_close(net.eval_array(h, Conditioning(adjacency), row), expected)


def test_training_graph_conv_net_row_norm_equals_full_norm_then_index_axis():
    """In training the last batch norm normalizes the target row alone; the
    output and every gradient equal those of the full norm followed by
    ``index_axis``, bit for bit, and the running statistics still come from
    every node."""
    h, adjacency = random_relational_input(seed=62)
    net = RelationalGraphConvNet(4, 6, 2, 3, rounds=2, rng=make_rng(63))
    randomize_net(net, make_rng(64))
    weights = Tensor(make_rng(65).normal(size=(3, 2)))
    x = Tensor(h)
    a_rows = a_rows_of(adjacency)
    params = dict(net.named_parameters())
    for row in (0, 4):

        def run(reference):
            with GradientTape() as tape:
                tape.watch("x", x)
                for name, p in net.named_parameters():
                    tape.watch(name, p)
                if reference:
                    y, stats = x, []
                    for k in range(2):
                        p = lambda name: params[f"round{k}.{name}"]
                        y = T.graph_conv(y, a_rows, p("rel_weight"), p("self_weight"), p("bias"))
                        bn = net._children[f"bn{k}"]
                        y, *moments = T.batch_norm(
                            y, params[f"bn{k}.gamma"], params[f"bn{k}.beta"], bn.eps, activation="tanh"
                        )
                        stats += moments
                    out = net._children["head"](T.index_axis(y, 1, row))
                else:
                    before = {name: buf.copy() for name, buf in net.named_buffers()}
                    out = net(x, Conditioning(adjacency), row)
                    after = dict(net.named_buffers())
                    # running = 0.9 * running + 0.1 * batch statistic
                    stats = [
                        (after[f"bn{k}.{kind}"] - 0.9 * before[f"bn{k}.{kind}"]) / 0.1
                        for k in range(2)
                        for kind in ("running_mean", "running_var")
                    ]
                loss = T.sum_axis(T.mul(out, weights))
            grads = tape.gradients(loss)
            return out.data, [grads[name].data for name in grads], stats

        out, grads, stats = run(False)
        ref_out, ref_grads, ref_stats = run(True)
        assert out.shape == (3, 2) and out.tobytes() == ref_out.tobytes()
        assert len(grads) == len(ref_grads) and all(np.abs(g).max() > 0 for g in ref_grads)
        for got, want in zip(grads, ref_grads):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(stats, ref_stats):
            assert_close(got, want, rel=1e-12)


def test_folded_coupling_layers_match_unfolded():
    """Folded eval (the array forward and inverse) against the unfolded
    numpy oracle."""
    rng = make_rng(26)
    adj_layer = AdjacencyCouplingLayer(TOY_SPEC, 1, TOY_CONFIG, rng)
    node_layer = NodeFeatureCouplingLayer(TOY_SPEC, 2, TOY_CONFIG, rng)
    for layer in (adj_layer, node_layer):
        randomize_net(layer, rng)
    graphs = [random_graph(TOY_SPEC, make_rng(27 + k)) for k in range(4)]
    adjacency, features = dequantize(graphs, 0.9, rng)
    conditioning = np.floor(adjacency)
    folded = [*array_forward(adj_layer, adjacency), array_forward(node_layer, features, conditioning)]
    folded += [array_inverse(adj_layer, adjacency), array_inverse(node_layer, features, conditioning)]
    unfolded = [*oracle_adj_forward(adj_layer, adjacency), oracle_node_forward(node_layer, features, conditioning)]
    unfolded += [oracle_adj_inverse(adj_layer, adjacency), oracle_node_inverse(node_layer, features, conditioning)]
    for out, expected in zip(folded, unfolded):
        assert_close(out, expected)
    # The coupling layers only change their target row.
    assert not np.array_equal(folded[0], adjacency) and not np.array_equal(folded[2], features)


def _toy_batch(seed, size=4):
    rng = make_rng(seed)
    return [random_graph(TOY_SPEC, rng) for _ in range(size)]


def _eval(model, seed=40):
    adjacency, features = dequantize(_toy_batch(seed), 0.9, make_rng(seed))
    z, log_det = model.eval_forward(adjacency, features)
    return [z, log_det, *model.inverse_batch(z)]


def _assert_eval_matches_fresh_copy(model):
    # ``model`` first: loading the copy changes the version counter.
    outputs = _eval(model)
    fresh = FlowModel(TOY_SPEC, TOY_CONFIG, seed=99)
    fresh.load_parameters({name: p.data for name, p in model.named_parameters()} | dict(model.named_buffers()))
    for out, expected in zip(outputs, _eval(fresh)):
        assert out.tobytes() == expected.tobytes()


def _used_model():
    model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=5), seed=6)
    _eval(model)  # fills every fold cache
    return model


def _mlp_nets(model):
    for layer in model.adjacency_layers:
        yield from (layer._children[name] for name in ("scale_net", "translate_net"))


def test_mlp_eval_holds_no_weight_copy():
    """After an eval pass each MLP's cached eval weights are its parameters'
    own arrays; only the R-GCN's all-node rounds keep folded copies."""
    model = _used_model()
    nets = list(_mlp_nets(model))
    assert nets
    for net in nets:
        *hidden, head = net._eval_layers()
        params = dict(net.named_parameters())
        for k, (weight, *_) in enumerate(hidden):
            assert np.shares_memory(weight, params[f"lin{k}.weight"].data)
        assert np.shares_memory(head[0], params["head.weight"].data)


def test_graph_conv_net_eval_folds_only_the_all_node_rounds():
    """The target round runs on its parameters' own weights, with batch
    norm's scale and bias for its product; the all-node rounds on folded
    copies."""
    model = _used_model()
    for layer in model.node_layers:
        net = layer._children["translate_net"]
        *rounds, _ = net._eval_layers()
        assert net.depth == len(rounds) == 2
        params = dict(net.named_parameters())
        for k, weights in enumerate(rounds):
            p = {name: params[f"round{k}.{name}"].data for name in ("rel_weight", "self_weight")}
            shared = [np.shares_memory(weights[i], p[name]) for i, name in enumerate(p)]
            assert shared == [k == 1, k == 1]
        s, b = net._children["bn1"].eval_affine(params["round1.bias"].data)
        assert rounds[1][2].tobytes() == s.tobytes() and rounds[1][3].tobytes() == b.tobytes()


def test_loaded_qm9lite_model_retains_little_eval_cache(tmp_path):
    """The arrays an eval pass leaves cached on a loaded qm9lite model: the
    MLPs' scales and biases, the R-GCN's target-round scales and biases, and
    its all-node rounds' folded weights (0.8 MB in all).  Folding the target
    rounds as well retained 6.7 MB."""
    spec = qm9lite_spec()
    path = tmp_path / "qm9lite.gnvp"
    save_checkpoint(FlowModel(spec, seed=0), path)
    model = load_checkpoint(path, spec)
    z = make_rng(45).normal(size=(2, spec.latent_dim))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.inverse_batch(z)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_500_000


def test_large_qm9lite_inverse_batch_peak_stays_bounded():
    """A warm B = 1000 ``inverse_batch`` on a qm9lite model peaks under 12
    MiB above entry: its conditioner runs in blocks of samples, so the
    all-node rounds' arrays do not grow with the batch.  Run whole, the
    batch peaks at 17.0 MiB; in blocks, at 8.7 MiB."""
    spec = qm9lite_spec()
    model = FlowModel(spec, seed=0)
    z = make_rng(46).normal(size=(1000, spec.latent_dim))
    model.inverse_batch(z)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.inverse_batch(z)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_load_parameters_cannot_write_through_an_undrawn_placeholder():
    """A weight built without a draw broadcasts one scalar, so a write must
    raise instead of storing every element into that one scalar."""
    layer = Linear(3, 4, None)
    with pytest.raises(ValueError, match="WRITEABLE"):
        layer.load_parameters({"weight": np.ones((3, 4))})
    assert not dict(layer.named_parameters())["weight"].data.any()


@pytest.mark.parametrize(
    "name, value, text",
    [
        ("adjacency_1.scale_net.lin0.bias", np.nan, "parameter adjacency_1.scale_net.lin0.bias: non-finite value"),
        ("node_0.translate_net.bn0.running_var", np.nan, "buffer node_0.translate_net.bn0.running_var: non-finite value"),
        ("adjacency_0.scale_net.bn1.running_mean", -np.inf, "buffer adjacency_0.scale_net.bn1.running_mean: non-finite value"),
    ],
)
def test_load_parameters_refuses_a_non_finite_value_and_writes_nothing(name, value, text):
    """A NaN or Inf parameter or buffer value is refused before any value of
    the call is written, so the model, and its eval, stay as they were."""
    model = _used_model()
    outputs = _eval(model)
    state = {n: p.data for n, p in model.named_parameters()} | dict(model.named_buffers())
    before = {n: v.copy() for n, v in state.items()}
    bad = before[name].copy()
    bad.flat[-1] = value
    with pytest.raises(NumericError) as err:
        model.load_parameters({"prior.log_sigma": np.array(0.5), name: bad})
    assert str(err.value) == text
    for n, v in state.items():
        assert v.tobytes() == before[n].tobytes(), n
    for out, expected in zip(_eval(model), outputs):
        assert out.tobytes() == expected.tobytes()


def test_fold_follows_each_load_parameters_write():
    """A weight, a batch-norm parameter, a running statistic, and two
    parameters at once, each written by name."""
    rng = make_rng(41)
    model = _used_model()
    model.load_parameters({"adjacency_1.scale_net.lin1.weight": rng.normal(size=(8, 8))})
    _assert_eval_matches_fresh_copy(model)
    model.load_parameters({"node_2.translate_net.bn0.gamma": 1.0 + rng.random(6)})
    _assert_eval_matches_fresh_copy(model)
    model.load_parameters({"adjacency_2.translate_net.bn0.running_mean": rng.normal(size=8)})
    _assert_eval_matches_fresh_copy(model)
    model.load_parameters(
        {
            "node_0.translate_net.round1.self_weight": rng.normal(size=(6, 6)),
            "adjacency_0.translate_net.bn1.beta": rng.normal(size=8),
        }
    )
    _assert_eval_matches_fresh_copy(model)


def test_fold_follows_training_mode_forward():
    model = _used_model()
    adjacency, features = dequantize(_toy_batch(42), 0.9, make_rng(42))
    name = "adjacency_0.scale_net.bn0.running_mean"
    before = dict(model.named_buffers())[name].copy()
    model.forward_batch(adjacency, features)
    assert not np.array_equal(dict(model.named_buffers())[name], before)
    _assert_eval_matches_fresh_copy(model)


def test_running_statistics_keep_their_arrays(tmp_path, monkeypatch):
    """Each running statistic of a loaded model stays the array the
    checkpoint reader filled through training forwards and loads, and each
    forward updates it to ``(1 - m) * old + m * batch`` bit for bit."""
    path = tmp_path / "model.gnvp"
    source = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=5), seed=6)
    save_checkpoint(source, path)
    model = load_checkpoint(path, TOY_SPEC)
    filled = dict(model.named_buffers())
    stats, batch_norm = {}, T.batch_norm
    norms = {id(p): name.removesuffix("gamma") for name, p in model.named_parameters() if name.endswith(".gamma")}

    def recording(x, gamma, *args, **kwargs):
        out, mean, var = batch_norm(x, gamma, *args, **kwargs)
        prefix = norms[id(gamma)]
        assert prefix + "running_mean" not in stats  # one call per batch norm and forward
        stats[prefix + "running_mean"], stats[prefix + "running_var"] = mean, var
        return out, mean, var

    monkeypatch.setattr(T, "batch_norm", recording)
    m = BatchNorm.momentum
    for seed in (47, 48, 49):
        old = {name: buf.copy() for name, buf in filled.items()}
        stats.clear()
        model.forward_batch(*dequantize(_toy_batch(seed), 0.9, make_rng(seed)))
        assert stats.keys() == filled.keys()
        for name, buf in model.named_buffers():
            assert buf is filled[name], name
            assert buf.tobytes() == ((1 - m) * old[name] + m * stats[name]).tobytes(), name
    model.load_parameters(dict(source.named_buffers()))
    for name, buf in model.named_buffers():
        assert buf is filled[name] and np.array_equal(buf, dict(source.named_buffers())[name]), name


def test_fold_follows_adam_step_inside_train(monkeypatch):
    """Each step's in-place Adam updates run right after an eval filled the
    caches, and the eval follows them once the step is done: at the next
    step's first update, and after ``train`` returns, where no training
    forward has invalidated the caches since the last step's updates."""
    model = _used_model()
    train_module = importlib.import_module("graphnvp.train")
    adam_step = train_module.adam_step
    steps, evals = [], []

    def follow(step):
        outputs = _eval(model)
        if evals:
            assert not np.array_equal(outputs[0], evals[-1][0])
        _assert_eval_matches_fresh_copy(model)
        evals.append(outputs)
        steps.append(step)
        _eval(model)  # refilled after the copy's load bumped the version

    def checked(state, gradient, config, start):
        assert gradient.size < state.params.size
        if not steps or steps[-1] != state.step:
            follow(state.step)
        adam_step(state, gradient, config, start)

    monkeypatch.setattr(train_module, "adam_step", checked)
    state, _ = train(model, _toy_batch(43, size=6), TrainConfig(epochs=2, batch_size=4, seed=1))
    follow(state.step)
    assert steps == [1, 2, 3, 4, 4]


def test_fold_follows_checkpoint_loaded_into_used_model(tmp_path):
    """A loaded train state resumed in a used model, whose fold caches are
    full: ``train`` binds the state's parameters and the eval follows."""
    source = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=5), seed=7)
    path = tmp_path / "state.gnvp"
    save_train_state(path, TrainState.fresh(source), source)
    loaded, state = load_train_state(path, TOY_SPEC)
    model = _used_model()
    model.load_parameters(dict(loaded.named_buffers()))
    _eval(model)  # fills every fold cache again
    train(model, _toy_batch(44), TrainConfig(epochs=0), resume_state=state)
    _assert_eval_matches_fresh_copy(model)
    for out, expected in zip(_eval(model), _eval(source)):
        assert out.tobytes() == expected.tobytes()
