import importlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import TOY_CONFIG, TOY_SPEC, finite_difference_gradient, random_graph, randomize_model, split_dataset
from graphnvp.errors import CheckpointError, TrainingError
from graphnvp.flow import FlowModel, load_checkpoint, save_checkpoint
from graphnvp.graphs import dequantize, qm9lite_spec
from graphnvp.nets import Module, parameters_changed
from graphnvp import tensor as T
from graphnvp.tensor import GradientTape, Tensor, make_rng
from graphnvp.train import (
    TrainConfig,
    TrainState,
    adam_step,
    load_train_state,
    nll_loss,
    save_train_state,
    train,
    write_metrics_csv,
)


def toy_batch(count=4, seed=0):
    rng = make_rng(seed)
    return [random_graph(TOY_SPEC, rng) for _ in range(count)]


def toy_model(seed=7):
    return FlowModel(TOY_SPEC, TOY_CONFIG, seed=seed)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_nll_zero_init_closed_form():
    """Identity flow: the loss is exactly the negative prior density of the
    dequantized inputs."""
    model = toy_model()
    batch = toy_batch()
    loss = nll_loss(model, batch, make_rng(5))

    rng = make_rng(5)
    adjacency = np.stack([g.adjacency for g in batch])
    features = np.stack([g.features for g in batch])
    adjacency = adjacency + 0.9 * rng.random(adjacency.shape)
    features = features + 0.9 * rng.random(features.shape)
    d = TOY_SPEC.latent_dim
    flat = np.concatenate([adjacency.reshape(len(batch), -1), features.reshape(len(batch), -1)], axis=1)
    expected = (0.5 * d * np.log(2 * np.pi) + 0.5 * (flat**2).sum(axis=1)).mean()
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_nll_is_mean_negative_log_likelihood_of_the_dequantized_batch():
    """The loss is built from ``dequantize``, ``forward_batch`` and the prior,
    bit for bit."""
    model = randomize_model(toy_model(), seed=22, scale=0.2)
    batch = toy_batch(count=3, seed=4)
    loss = nll_loss(model, batch, make_rng(6))

    adjacency, features = dequantize(batch, 0.9, make_rng(6))
    z, log_det = model.forward_batch(adjacency, features)
    log_prob = model.prior.log_prob(z)
    expected = ((log_prob.data + log_det.data) * -1.0).mean(axis=0)
    assert loss.data.tobytes() == np.float64(expected).tobytes()


def test_nll_requires_non_empty_batch():
    with pytest.raises(TrainingError):
        nll_loss(toy_model(), [], make_rng(0))


def test_nll_sigma_doubling_shifts_loss_by_d_log2_at_origin():
    """With z held at 0, doubling sigma lowers the log density by exactly
    D*log 2 (the -D log sigma term)."""
    model = toy_model()
    d = TOY_SPEC.latent_dim
    origin = Tensor(np.zeros((1, d)))
    base = model.prior.log_prob(origin).data[0]
    model.prior.set_parameter("log_sigma", Tensor(np.log(2.0)))
    doubled = model.prior.log_prob(origin).data[0]
    assert base - doubled == pytest.approx(d * np.log(2.0), abs=1e-9)


def test_nll_gradient_matches_finite_differences():
    """Spot-check a few parameter tensors of each kind on the toy spec; the
    acceptance suite sweeps every tensor."""
    model = toy_model()
    randomize_model(model, seed=21, scale=0.2)
    batch = toy_batch(count=2, seed=3)

    names = [
        "adjacency_0.scale_net.head.weight",
        "adjacency_1.translate_net.lin0.bias",
        "adjacency_2.scale_net.bn0.gamma",
        "node_0.translate_net.round0.rel_weight",
        "node_1.translate_net.head.bias",
        "prior.log_sigma",
    ]
    for name in names:
        p0 = model.get_parameter(name)

        def loss_at(values):
            model.set_parameter(name, values if isinstance(values, Tensor) else Tensor(values.data))
            out = nll_loss(model, batch, make_rng(9))
            return out

        with GradientTape() as tape:
            tape.watch(name, p0)
            model.set_parameter(name, p0)
            loss = nll_loss(model, batch, make_rng(9))
        analytic = tape.gradients(loss)[name].data
        numeric = finite_difference_gradient(lambda t: loss_at(t), p0, 1e-5).data
        model.set_parameter(name, p0)
        denom = max(np.abs(numeric).max(), np.abs(analytic).max())
        gap = np.abs(analytic - numeric).max()
        if denom < 1e-6:
            assert gap < 1e-6, name  # structurally zero gradient
        else:
            assert gap / denom < 1e-4, name


def test_nll_invariant_under_checkpoint_round_trip(tmp_path):
    model = toy_model()
    randomize_model(model, seed=22, scale=0.2)
    batch = toy_batch(count=3, seed=4)
    adjacency, features = dequantize(batch, 0.9, make_rng(11))
    before = model.eval_forward(adjacency, features)
    save_checkpoint(model, tmp_path / "m.gnvp")
    loaded = load_checkpoint(tmp_path / "m.gnvp", TOY_SPEC)
    after = loaded.eval_forward(adjacency, features)
    assert all(b.tobytes() == a.tobytes() for b, a in zip(before, after))
    assert nll_loss(model, batch, make_rng(11)).item() == nll_loss(loaded, batch, make_rng(11)).item()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def full_adam_step(state, gradient, config):
    """One Adam step over the whole state, made as ``train`` makes each
    step: count it, update, then invalidate the eval caches."""
    state.step += 1
    adam_step(state, gradient, config, 0)
    parameters_changed()


def test_adam_zero_gradient_keeps_parameters():
    model = toy_model()
    state = TrainState.fresh(model)
    before = state.params.copy()
    full_adam_step(state, np.zeros(state.params.size), TrainConfig(epochs=1, batch_size=1))
    assert np.array_equal(state.params, before)
    assert state.step == 1


def test_adam_first_step_magnitude():
    # bias-corrected first step with unit gradient moves by ~alpha
    config = TrainConfig(epochs=1, batch_size=1, adam_alpha=0.001)
    state = TrainState(params=np.array([5.0]), first_moment=np.zeros(1), second_moment=np.zeros(1))
    full_adam_step(state, np.array([1.0]), config)
    delta = float(state.params[0]) - 5.0
    assert delta == pytest.approx(-0.001, rel=1e-6)


def test_adam_reaches_quadratic_minimum():
    # minimize (w - t)^2 elementwise; closed-form minimum w = t.  Adam's step
    # magnitude stays near alpha, so the target sits within 100 * alpha.
    config = TrainConfig(epochs=1, batch_size=1, adam_alpha=0.001)
    target = np.array([0.05, 0.03, 0.04])
    state = TrainState(params=np.zeros(3), first_moment=np.zeros(3), second_moment=np.zeros(3))
    for _ in range(100):
        full_adam_step(state, 2.0 * (state.params - target), config)
    assert np.abs(state.params - target).max() < 1e-3


def test_adam_rejects_mismatched_size():
    model = toy_model()
    state = TrainState.fresh(model)
    state.step = 1
    saved = [a.copy() for a in (state.params, state.first_moment, state.second_moment)]
    size = state.params.size
    for gradient, start in ((np.ones(1), size), (np.ones(size - 1), 2), (np.ones(size + 1), 0), (np.ones((size, 1)), 0)):
        with pytest.raises(TrainingError):
            adam_step(state, gradient, TrainConfig(epochs=1, batch_size=1), start)
        for got, want in zip((state.params, state.first_moment, state.second_moment), saved):
            assert np.array_equal(got, want)
        assert state.step == 1


def test_adam_in_place_equals_out_of_place_formula_bitwise():
    """Three in-place steps over three parameters equal the out-of-place
    per-parameter update, bit for bit.  "c" spans more than two Adam blocks,
    so block boundaries fall inside a parameter."""
    config = TrainConfig(epochs=1, batch_size=1, adam_alpha=0.003, adam_beta1=0.8, adam_eps=1e-7)
    rng = make_rng(40)
    block = importlib.import_module("graphnvp.train")._ADAM_BLOCK
    shapes = {"a": (3, 4), "b": (5,), "c": (2 * block + 11,)}  # the flat layout's order
    # Values near the size of one update and a small second moment, so that
    # a change in any rounding shows in the last bits instead of being absorbed.
    params = {n: 1e-3 * rng.normal(size=s) for n, s in shapes.items()}
    m = {n: 0.1 * rng.normal(size=s) for n, s in shapes.items()}
    v = {n: 1e-6 * rng.random(s) for n, s in shapes.items()}
    flat = [np.concatenate([d[n].ravel() for n in shapes]) for d in (params, m, v)]
    state = TrainState(*flat, step=4)
    b1, b2 = config.adam_beta1, config.adam_beta2
    for step in range(5, 8):
        grads = {n: rng.normal(size=s) for n, s in shapes.items()}
        full_adam_step(state, np.concatenate([grads[n].ravel() for n in shapes]), config)
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * g * g
            m_hat = m[n] / (1.0 - b1**step)
            v_hat = v[n] / (1.0 - b2**step)
            params[n] = params[n] - config.adam_alpha * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    assert state.step == 7
    for got, want in zip((state.params, state.first_moment, state.second_moment), (params, m, v)):
        expected = np.concatenate([want[n].ravel() for n in shapes])
        assert got.tobytes() == expected.tobytes()


def test_adam_slices_equal_one_full_step_bitwise():
    """Counting the step, then updating the state slice by slice, in any
    order, gives the bits of one step over the whole vector."""
    config = TrainConfig(epochs=1, batch_size=1, adam_alpha=0.002, adam_beta2=0.99)
    rng = make_rng(41)
    block = importlib.import_module("graphnvp.train")._ADAM_BLOCK
    size = 2 * block + 7
    full = TrainState(rng.normal(size=size), 0.1 * rng.normal(size=size), rng.random(size), step=2)
    sliced = TrainState(full.params.copy(), full.first_moment.copy(), full.second_moment.copy(), step=2)
    gradient = rng.normal(size=size)
    full_adam_step(full, gradient, config)
    sliced.step += 1
    for lo, hi in ((block + 3, size), (5, block + 3), (0, 5)):
        adam_step(sliced, gradient[lo:hi].copy(), config, lo)
    assert sliced.step == full.step == 3
    for got, want in zip(
        (sliced.params, sliced.first_moment, sliced.second_moment),
        (full.params, full.first_moment, full.second_moment),
    ):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", ["seed", "checkpoint_every"])
def test_train_config_rejects_a_negative_seed_or_checkpoint_interval(field):
    with pytest.raises(TrainingError, match="seed and checkpoint_every must be >= 0"):
        TrainConfig(**{field: -1})


def test_adam_slice_rejects_what_does_not_fit():
    config = TrainConfig(epochs=1, batch_size=1)
    state = TrainState(np.ones(6), np.zeros(6), np.zeros(6), step=1)
    for gradient, start in ((np.ones(3), 4), (np.ones(3), -1), (np.ones((2, 1)), 0), (np.ones(7), 0)):
        with pytest.raises(TrainingError):
            adam_step(state, gradient, config, start)
    state.step = 0  # a slice is updated as the step already counted
    with pytest.raises(TrainingError):
        adam_step(state, np.ones(2), config, 0)
    assert np.array_equal(state.params, np.ones(6)) and not state.first_moment.any()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_zero_epochs_leaves_model_unchanged():
    model = toy_model()
    reference = {n: p.data.copy() for n, p in model.named_parameters()}
    dataset = toy_batch(count=8, seed=5)
    _, records = train(model, dataset, TrainConfig(epochs=0, batch_size=4, seed=1))
    assert records == []
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, reference[name])


def test_train_rejects_empty_dataset():
    with pytest.raises(TrainingError):
        train(toy_model(), [], TrainConfig(epochs=1, batch_size=2))


def test_train_is_deterministic():
    dataset = toy_batch(count=12, seed=6)
    config = TrainConfig(epochs=3, batch_size=4, seed=42)

    def run():
        model = toy_model()
        _, records = train(model, dataset, config)
        params = {n: p.data.tobytes() for n, p in model.named_parameters()}
        return [(r.epoch, r.mean_nll, r.sigma) for r in records], params

    first, second = run(), run()
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_train_decreases_loss_on_toy_data():
    dataset = toy_batch(count=16, seed=7)
    model = toy_model()
    _, records = train(model, dataset, TrainConfig(epochs=12, batch_size=8, seed=2))
    assert records[-1].mean_nll < records[0].mean_nll


def test_train_resume_matches_uninterrupted(tmp_path):
    dataset = toy_batch(count=12, seed=8)

    model_full = toy_model(seed=3)
    state_full, records_full = train(model_full, dataset, TrainConfig(epochs=6, batch_size=4, seed=9))

    model_half = toy_model(seed=3)
    state_half, records_half = train(model_half, dataset, TrainConfig(epochs=3, batch_size=4, seed=9))
    save_train_state(tmp_path / "state.gnvp", state_half, model_half)

    model_resumed, resumed_state = load_train_state(tmp_path / "state.gnvp", TOY_SPEC)
    _, records_rest = train(
        model_resumed,
        dataset,
        TrainConfig(epochs=6, batch_size=4, seed=9),
        resume_state=resumed_state,
    )

    for name, p in model_full.named_parameters():
        assert np.array_equal(p.data, model_resumed.get_parameter(name).data), name
    merged = records_half + records_rest
    assert [r.mean_nll for r in merged] == [r.mean_nll for r in records_full]


def test_state_saved_between_epochs_resumes_like_an_uninterrupted_run(tmp_path):
    """The state ``train`` was given, saved from ``on_epoch`` after epoch 1
    of 3, holds that epoch's generator state: resumed, it ends with the
    parameters, moments and ``metrics.csv`` of the run it was saved from."""
    dataset = toy_batch(count=12, seed=8)
    config = TrainConfig(epochs=3, batch_size=4, seed=9)
    model = toy_model(seed=3)
    state = TrainState.fresh(model)

    def save_after_first(record):
        if record.epoch == 1:
            save_train_state(tmp_path / "state.gnvp", state, model)

    _, records = train(model, dataset, config, resume_state=state, on_epoch=save_after_first)
    resumed_model, resumed = load_train_state(tmp_path / "state.gnvp", TOY_SPEC)
    assert (resumed.epoch, resumed.step) == (1, 3)
    _, rest = train(resumed_model, dataset, config, resume_state=resumed)
    for got, want in [
        (resumed.params, state.params),
        (resumed.first_moment, state.first_moment),
        (resumed.second_moment, state.second_moment),
    ]:
        assert got.tobytes() == want.tobytes()
    write_metrics_csv(records, tmp_path / "full.csv")
    write_metrics_csv(records[:1] + rest, tmp_path / "resumed.csv")
    assert (tmp_path / "resumed.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_train_state_round_trip_at_path_without_suffix(tmp_path):
    dataset = toy_batch(count=4, seed=8)
    model = toy_model(seed=3)
    state, _ = train(model, dataset, TrainConfig(epochs=1, batch_size=4, seed=9))
    path = tmp_path / "state"
    save_train_state(path, state, model)
    assert [p.name for p in tmp_path.iterdir()] == ["state"]

    restored_model, restored = load_train_state(path, TOY_SPEC)
    assert (restored.step, restored.epoch) == (state.step, state.epoch)
    before, after = make_rng(0), make_rng(0)
    before.bit_generator.state = state.rng_state
    after.bit_generator.state = restored.rng_state
    assert np.array_equal(before.random(8), after.random(8))
    assert restored.params.tobytes() == state.params.tobytes()
    assert restored.first_moment.tobytes() == state.first_moment.tobytes()
    assert restored.second_moment.tobytes() == state.second_moment.tobytes()
    assert np.array_equal(TrainState.fresh(restored_model).params, state.params)
    # Saved again, the state is the same file, generator state included.
    save_train_state(tmp_path / "again", restored, restored_model)
    assert (tmp_path / "again").read_bytes() == path.read_bytes()
    for name, p in model.named_parameters():
        assert np.array_equal(restored_model.get_parameter(name).data, p.data), name
    for (name, saved), (_, loaded) in zip(
        sorted(model.named_buffers()), sorted(restored_model.named_buffers())
    ):
        assert np.array_equal(saved, loaded), name


def test_fresh_train_state_resumes_like_a_plain_run(tmp_path):
    """A state saved straight from ``TrainState.fresh`` has an empty generator
    state; loaded and trained, it gives the bytes of a run without a state."""
    dataset = toy_batch(count=8, seed=8)
    config = TrainConfig(epochs=2, batch_size=4, seed=9)
    model = toy_model(seed=3)
    save_train_state(tmp_path / "fresh.gnvp", TrainState.fresh(model), model)
    (tmp_path / "plain").mkdir()
    (tmp_path / "resumed").mkdir()
    plain_state, plain_records = train(model, dataset, config, checkpoint_dir=tmp_path / "plain")

    loaded_model, loaded = load_train_state(tmp_path / "fresh.gnvp", TOY_SPEC)
    assert (loaded.step, loaded.epoch, loaded.rng_state) == (0, 0, {})
    state, records = train(loaded_model, dataset, config, checkpoint_dir=tmp_path / "resumed", resume_state=loaded)
    assert [(r.mean_nll, r.sigma) for r in records] == [(r.mean_nll, r.sigma) for r in plain_records]
    assert (tmp_path / "resumed" / "model.gnvp").read_bytes() == (tmp_path / "plain" / "model.gnvp").read_bytes()
    for got, want in zip(
        (state.params, state.first_moment, state.second_moment),
        (plain_state.params, plain_state.first_moment, plain_state.second_moment),
    ):
        assert got.tobytes() == want.tobytes()
    assert (state.step, state.epoch) == (plain_state.step, plain_state.epoch) == (4, 2)
    after, plain = make_rng(0), make_rng(0)
    after.bit_generator.state, plain.bit_generator.state = state.rng_state, plain_state.rng_state
    assert np.array_equal(after.random(4), plain.random(4))


@pytest.mark.parametrize("step, epoch", [(1, 0), (0, 1)])
def test_load_train_state_refuses_an_empty_generator_state_past_step_0(tmp_path, step, epoch):
    model = toy_model(seed=3)
    state = TrainState.fresh(model)
    state.step, state.epoch = step, epoch
    save_train_state(tmp_path / "state.gnvp", state, model)
    with pytest.raises(CheckpointError, match=f"optimizer.rng_state is empty at step {step} epoch {epoch}"):
        load_train_state(tmp_path / "state.gnvp", TOY_SPEC)


@pytest.mark.parametrize(
    "rng_state",
    [
        {"bit_generator": "PCG64"},
        {"bit_generator": "Philox", "state": {}},
        {**make_rng(0).bit_generator.state, "buffer_pos": "4"},
        {**make_rng(0).bit_generator.state, "state": {"counter": [-1, 0, 0, 0], "key": [0, 0]}},
        {**make_rng(0).bit_generator.state, "buffer_pos": -5},
        {**make_rng(0).bit_generator.state, "has_uint32": 7},
    ],
    ids=["other_generator", "no_counter", "text_position", "negative_counter", "negative_position", "bad_flag"],
)
def test_load_train_state_refuses_a_generator_state_numpy_cannot_load(tmp_path, rng_state):
    model = toy_model(seed=3)
    state = TrainState.fresh(model)
    state.rng_state = rng_state
    save_train_state(tmp_path / "state.gnvp", state, model)
    with pytest.raises(CheckpointError, match="optimizer.rng_state is not a generator state numpy can load"):
        load_train_state(tmp_path / "state.gnvp", TOY_SPEC)


def _layer_slices(model):
    """Each layer group's (start, size) in the state layout, from the model
    alone: the coupling layers and the prior."""
    slices, lo = {}, 0
    for name, p in sorted(model.named_parameters()):
        group = name.split(".")[0]
        start, size = slices.get(group, (lo, 0))
        assert start + size == lo, name  # each group is contiguous
        slices[group] = (start, size + p.size)
        lo += p.size
    return slices


def test_train_updates_the_same_parameter_views_in_place(monkeypatch):
    """During an epoch of three steps the model's parameter tensors and the
    three state vectors stay the same objects; the tensors view the state.
    Each step updates every layer group's slice once, so the slices of one
    step tile the state."""
    model = toy_model(seed=3)
    slices = _layer_slices(model)
    seen, updates = [], []

    def snapshot(state):
        tensors = [p for _, p in model.named_parameters()]
        return tensors + [state.params, state.first_moment, state.second_moment]

    def recording_adam_step(state, gradient, config, start):
        assert (start, gradient.size) in slices.values()
        seen.append(snapshot(state))
        updates.append((state.step, start, gradient.size))
        adam_step(state, gradient, config, start)

    monkeypatch.setattr(importlib.import_module("graphnvp.train"), "adam_step", recording_adam_step)
    initial = TrainState.fresh(model).params.copy()
    state, _ = train(model, toy_batch(count=12, seed=8), TrainConfig(epochs=1, batch_size=4, seed=9))
    assert state.step == 3 and len(seen) == 3 * len(slices) == len(updates)
    for step in (1, 2, 3):
        assert sorted((lo, size) for s, lo, size in updates if s == step) == sorted(slices.values())
    for objects in seen[1:] + [snapshot(state)]:
        assert all(a is b for a, b in zip(seen[0], objects))
    assert all(np.shares_memory(p.data, state.params) for _, p in model.named_parameters())
    assert not np.array_equal(state.params, initial)
    assert np.array_equal(TrainState.fresh(model).params, state.params)


def test_train_frees_each_step_before_the_next_forward(monkeypatch):
    """No loss or gradient array of a finished step is alive when the next
    step's forward starts, every step's replay emptied its tape, and every
    update reads one buffer of the largest layer group's size."""
    train_module = importlib.import_module("graphnvp.train")
    spent, buffers, live_at_forward = [], [], []
    adam_by_group = train_module._adam_by_group

    def recording_adam_by_group(*args):
        update = adam_by_group(*args)

        def recording_update(group, gradients):
            spent.extend(weakref.ref(g) for _, g in gradients if isinstance(g, np.ndarray))
            update(group, gradients)

        return recording_update

    def recording_adam_step(state, gradient, config, start):
        buffers.append(gradient.base)
        adam_step(state, gradient, config, start)

    def checking_nll_loss(*args, **kwargs):
        live_at_forward.append(sum(ref() is not None for ref in spent))
        loss = nll_loss(*args, **kwargs)
        spent.append(weakref.ref(loss.data))
        return loss

    monkeypatch.setattr(train_module, "_adam_by_group", recording_adam_by_group)
    monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
    monkeypatch.setattr(train_module, "nll_loss", checking_nll_loss)
    tapes = []
    monkeypatch.setattr(
        train_module, "GradientTape", lambda *args: tapes.append(GradientTape(*args)) or tapes[-1]
    )
    model = toy_model(seed=3)
    train(model, toy_batch(count=12, seed=8), TrainConfig(epochs=2, batch_size=4, seed=9))
    assert live_at_forward == [0] * 6 and len(spent) > 6 * 2
    assert all(tape.records == [] for tape in tapes) and len(tapes) == 6
    largest = max(size for _, size in _layer_slices(model).values())
    assert all(b is buffers[0] for b in buffers) and buffers[0].shape == (largest,)


def test_qm9lite_training_memory(qm9_corpus):
    """At batch 64 the tape of one training forward holds under 58 MB, and a
    whole ``train`` step (forward, and a replay that updates each layer as
    it finishes it) peaks under 60 MB above its start: less than the tape
    plus the 34 MB a flat gradient of the parameters would take.  (Measured:
    56.0 and 57.7 MB; 64.6 and 66.1 MB while each record kept its input and
    output tensors.)"""
    model = FlowModel(qm9lite_spec(), seed=0)
    batch = qm9_corpus[:64]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with GradientTape() as tape:
            for name, p in sorted(model.named_parameters()):
                tape.watch(name, p)
            loss = nll_loss(model, batch, make_rng(0))
        tape_bytes = tracemalloc.get_traced_memory()[0] - start
        del tape, loss
        state = TrainState.fresh(model)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        train(model, batch, TrainConfig(epochs=1, batch_size=64), resume_state=state)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert state.step == 1 and state.params.nbytes > 30e6
    assert tape_bytes < 58e6, tape_bytes
    assert peak < 60e6, peak


def test_qm9lite_train_steps_equal_tape_gradients_then_full_adam_step(qm9_corpus):
    """Two batch-64 steps of ``train`` leave the parameters and both moments
    byte for byte where the whole-vector path leaves them: the tape's
    gradients laid out in the state's order, then one Adam step over the
    whole state."""
    spec = qm9lite_spec()
    dataset = qm9_corpus[:128]
    config = TrainConfig(epochs=1, batch_size=64, seed=5)
    state, _ = train(FlowModel(spec, seed=0), dataset, config)

    model = FlowModel(spec, seed=0)
    reference = TrainState.fresh(model)
    rng = make_rng(config.seed)
    order = rng.permutation(len(dataset))
    for lo in (0, 64):
        with GradientTape() as tape:
            for name, p in sorted(model.named_parameters()):
                tape.watch(name, p)
            loss = nll_loss(model, [dataset[i] for i in order[lo : lo + 64]], rng)
        grads = tape.gradients(loss)
        full_adam_step(reference, np.concatenate([g.data.ravel() for g in grads.values()]), config)
        lo_param = 0
        for name, p in sorted(model.named_parameters()):
            model.set_parameter(name, Tensor(reference.params[lo_param : lo_param + p.size].reshape(p.shape)))
            lo_param += p.size
    assert state.step == reference.step == 2
    for got, want in zip(
        (state.params, state.first_moment, state.second_moment),
        (reference.params, reference.first_moment, reference.second_moment),
    ):
        assert got.tobytes() == want.tobytes()


def test_non_finite_gradient_names_its_layer_before_updating_it(tmp_path, monkeypatch):
    """A vjp that returns a NaN for one coupling layer's weight raises,
    naming the epoch, the step and that layer, before the layer is updated;
    the layers the replay reached first stay updated, and no file is written."""
    train_module = importlib.import_module("graphnvp.train")
    model = randomize_model(toy_model(seed=3), seed=12, scale=0.2)
    name = "adjacency_1.scale_net.lin0.weight"

    def poisoning_nll_loss(*args, **kwargs):
        loss = nll_loss(*args, **kwargs)
        poisoned = model.get_parameter(name)
        (rec,) = [r for r in T._ACTIVE.tape.records if poisoned.key in r.inputs]
        vjp = rec.vjp

        def nan_vjp(g, needs):
            grads = list(vjp(g, needs))
            grads[rec.inputs.index(poisoned.key)] = np.full(poisoned.shape, np.nan)
            return tuple(grads)

        rec.vjp = nan_vjp
        return loss

    monkeypatch.setattr(train_module, "nll_loss", poisoning_nll_loss)
    state = TrainState.fresh(model)
    state.rng_state = make_rng(2).bit_generator.state
    before = state.params.copy()
    config = TrainConfig(epochs=1, batch_size=4, checkpoint_every=1)
    with pytest.raises(TrainingError, match="epoch 1 step 1: backward of adjacency_1 produced a non-finite"):
        train(model, toy_batch(count=8, seed=9), config, checkpoint_dir=tmp_path, resume_state=state)
    assert list(tmp_path.iterdir()) == []
    assert state.step == 1 and np.isfinite(state.params).all()
    slices = _layer_slices(model)
    changed = {g for g, (lo, n) in slices.items() if not np.array_equal(state.params[lo : lo + n], before[lo : lo + n])}
    # The replay finishes the prior and the later adjacency layer first.
    assert changed == {"prior", "adjacency_2"}


def test_train_binds_the_state_vector_once_per_call(monkeypatch):
    """Each call binds its state's vector to the model once (a fresh
    state's is the model's own, bound when the seeded model gathers its
    draws), and no parameter is set or loaded one by one."""
    calls = []
    original = FlowModel._bind

    def counting(self, vector):
        calls.append((self, vector))
        original(self, vector)

    def refuse(*args):
        raise AssertionError("a parameter was set one by one")

    dataset = toy_batch(count=12, seed=8)
    model = toy_model(seed=3)
    monkeypatch.setattr(FlowModel, "_bind", counting)
    monkeypatch.setattr(Module, "load_parameters", refuse)
    monkeypatch.setattr(Module, "set_parameter", refuse)
    state, _ = train(model, dataset, TrainConfig(epochs=2, batch_size=4, seed=9))
    assert [(m, v is state.params) for m, v in calls] == [(model, True)] and state.step == 6
    train(model, dataset, TrainConfig(epochs=3, batch_size=4, seed=9), resume_state=state)
    assert [(m, v is state.params) for m, v in calls] == [(model, True)] * 2 and state.step == 9


def test_train_builds_its_watch_list_once_per_call(monkeypatch):
    """A resumed call lists the model's parameters once, however many steps
    it runs: every step watches the same tensors in the same order."""
    listed, watched = [], []
    original_list, original_watch = FlowModel.named_parameters, GradientTape.watch

    def counting_list(self, prefix=""):
        listed.append(prefix)
        return original_list(self, prefix)

    def recording_watch(self, name, tensor, group=None):
        watched.append((name, tensor, group))
        return original_watch(self, name, tensor, group)

    model = toy_model(seed=3)
    state, _ = train(model, toy_batch(count=12, seed=8), TrainConfig(epochs=1, batch_size=4, seed=9))
    monkeypatch.setattr(FlowModel, "named_parameters", counting_list)
    monkeypatch.setattr(GradientTape, "watch", recording_watch)
    train(model, toy_batch(count=12, seed=8), TrainConfig(epochs=3, batch_size=4, seed=9), resume_state=state)
    assert state.step == 9 and listed == [""]
    expected = [(name, p, name.split(".", 1)[0]) for name, p in sorted(original_list(model))]
    assert watched == expected * 6  # a Tensor compares by identity


def test_train_resumes_in_memory_state_into_another_model():
    """A state held by one model resumes bit-exactly in a fresh model built
    with other parameter values."""
    dataset = toy_batch(count=12, seed=8)
    model_full = toy_model(seed=3)
    _, records_full = train(model_full, dataset, TrainConfig(epochs=4, batch_size=4, seed=9))

    state, records_half = train(toy_model(seed=3), dataset, TrainConfig(epochs=2, batch_size=4, seed=9))
    model_other = toy_model(seed=5)
    _, records_rest = train(
        model_other, dataset, TrainConfig(epochs=4, batch_size=4, seed=9), resume_state=state
    )
    for name, p in model_full.named_parameters():
        assert np.array_equal(p.data, model_other.get_parameter(name).data), name
    assert [r.mean_nll for r in records_half + records_rest] == [r.mean_nll for r in records_full]


def test_train_state_file_loads_as_a_model(tmp_path):
    dataset = toy_batch(count=8, seed=8)
    model = toy_model(seed=3)
    state, _ = train(model, dataset, TrainConfig(epochs=2, batch_size=4, seed=9))
    save_train_state(tmp_path / "state.gnvp", state, model)
    loaded = load_checkpoint(tmp_path / "state.gnvp", TOY_SPEC)
    adjacency, features = dequantize(dataset, 0.9, make_rng(1))
    z1, ld1 = model.eval_forward(adjacency, features)
    z2, ld2 = loaded.eval_forward(adjacency, features)
    assert z1.tobytes() == z2.tobytes()
    assert ld1.tobytes() == ld2.tobytes()


def test_qm9lite_train_state_loads_in_one_pass_bit_identical(tmp_path, qm9_corpus):
    """A qm9lite train state loads bit-identically, with the model's
    parameters views of the loaded state, while tracing at most 1.1 times
    the file's size, the model's build included: each entry is read
    straight into the state's vectors, and no weight is drawn."""
    spec = qm9lite_spec()
    model = FlowModel(spec, seed=0)
    state, _ = train(model, qm9_corpus[:64], TrainConfig(epochs=1, batch_size=64, seed=4))
    path = tmp_path / "state.gnvp"
    save_train_state(path, state, model)
    del model
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        target, loaded = load_train_state(path, spec)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3 * state.params.nbytes and peak < 1.1 * size, (peak, size)
    assert (loaded.step, loaded.epoch, loaded.rng_state.keys()) == (state.step, state.epoch, state.rng_state.keys())
    for got, want in zip(
        (loaded.params, loaded.first_moment, loaded.second_moment),
        (state.params, state.first_moment, state.second_moment),
    ):
        assert got.tobytes() == want.tobytes()
    assert all(np.shares_memory(p.data, loaded.params) for _, p in target.named_parameters())
    before, after = make_rng(0), make_rng(0)
    before.bit_generator.state = state.rng_state
    after.bit_generator.state = loaded.rng_state
    assert np.array_equal(before.random(4), after.random(4))


def test_plain_checkpoint_is_not_a_train_state(tmp_path):
    save_checkpoint(toy_model(), tmp_path / "model.gnvp")
    with pytest.raises(CheckpointError, match="no optimizer section"):
        load_train_state(tmp_path / "model.gnvp", TOY_SPEC)


@pytest.mark.parametrize(
    "moment, value",
    [("first_moment", np.nan), ("first_moment", np.inf), ("second_moment", -np.inf), ("second_moment", -1e-300)],
)
def test_load_train_state_rejects_invalid_moments(tmp_path, moment, value):
    model = toy_model(seed=3)
    state = TrainState.fresh(model)
    name, p = sorted(model.named_parameters())[1]
    offset = sorted(model.named_parameters())[0][1].size
    getattr(state, moment)[offset + p.size - 1] = value
    save_train_state(tmp_path / "state.gnvp", state, model)
    kind = "m:" if moment == "first_moment" else "v:"
    with pytest.raises(CheckpointError, match=f"'{kind}{name}'"):
        load_train_state(tmp_path / "state.gnvp", TOY_SPEC)


@pytest.mark.parametrize(
    "entry, value",
    [
        ("p:prior.log_sigma", np.nan),
        ("p:node_1.translate_net.round0.rel_weight", -np.inf),
        ("b:adjacency_0.scale_net.bn1.running_mean", np.inf),
        ("b:node_0.translate_net.bn0.running_var", np.nan),
        ("b:node_0.translate_net.bn0.running_var", -1.0),
    ],
)
def test_loaders_reject_invalid_parameters_and_buffers(tmp_path, entry, value):
    """A non-finite parameter or buffer, or a negative running variance, is
    refused as a checkpoint or a train state loads, with the file and the
    entry named and no numpy warning."""
    model = toy_model(seed=3)
    kind, name = entry[:2], entry[2:]
    if kind == "p:":
        lo, shape = model.layout[name]
        model.vector[lo + math.prod(shape) - 1] = value
    else:
        buffer = dict(model.named_buffers())[name].copy()
        buffer.flat[-1] = value
        model.set_buffer(name, buffer)
    checkpoint, state = tmp_path / "model.gnvp", tmp_path / "state.gnvp"
    save_checkpoint(model, checkpoint)
    save_train_state(state, TrainState.fresh(model), model)
    for path, load in ((checkpoint, load_checkpoint), (state, load_train_state)):
        problem = "negative variance" if value == -1.0 else "non-finite value"
        with warnings.catch_warnings(), pytest.raises(CheckpointError) as err:
            warnings.simplefilter("error")
            load(path, TOY_SPEC)
        assert str(err.value) == f"{path}: entry {entry!r} holds a {problem}"


def _assert_parameters_view_the_vector(model):
    """Once the model's vector is read (a seeded build copies its draws in
    then), every parameter is a read-only view of it at its layout offset,
    the layout tiles it, and a fresh train state holds that same vector."""
    vector = model.vector
    start = vector.__array_interface__["data"][0]
    params = dict(model.named_parameters())
    assert sorted(params) == list(model.layout)
    end = 0
    for name, (lo, shape) in model.layout.items():
        p = params[name].data
        assert lo == end and p.shape == shape and not p.flags.writeable, name
        assert np.shares_memory(p, vector) and p.__array_interface__["data"][0] == start + 8 * lo, name
        end += p.size
    assert end == vector.size and vector.flags.writeable
    assert TrainState.fresh(model).params is vector


def _set_one(model):
    vector, name = model.vector, "adjacency_1.scale_net.lin0.weight"
    value = Tensor(make_rng(5).normal(size=model.get_parameter(name).shape))
    model.set_parameter(name, value)
    lo, _ = model.layout[name]
    assert model.vector is vector and np.array_equal(vector[lo : lo + value.size], value.data.reshape(-1))
    return model


def _load_all(model):
    vector = model.vector
    randomize_model(model, seed=6)
    assert model.vector is vector
    return model


def _loaded_state(path):
    model, state = load_train_state(path, TOY_SPEC)
    assert state.params is model.vector
    return model


def _trained(model):
    state, _ = train(model, toy_batch(count=8, seed=2), TrainConfig(epochs=1, batch_size=4, seed=1))
    assert state.params is model.vector
    return model


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda path: toy_model(seed=3), id="seeded"),
        pytest.param(lambda path: load_checkpoint(path / "model.gnvp", TOY_SPEC), id="load_checkpoint"),
        pytest.param(lambda path: _loaded_state(path / "state.gnvp"), id="load_train_state"),
        pytest.param(lambda path: _trained(toy_model(seed=3)), id="trained"),
        pytest.param(lambda path: _set_one(toy_model(seed=3)), id="set_parameter"),
        pytest.param(lambda path: _load_all(toy_model(seed=3)), id="load_parameters"),
    ],
)
def test_every_parameter_is_a_view_of_the_model_vector(tmp_path, make):
    source = randomize_model(toy_model(seed=4), seed=5)
    save_checkpoint(source, tmp_path / "model.gnvp")
    save_train_state(tmp_path / "state.gnvp", TrainState.fresh(source), source)
    _assert_parameters_view_the_vector(make(tmp_path))


def test_train_writes_checkpoints(tmp_path):
    dataset = toy_batch(count=8, seed=10)
    model = toy_model()
    train(
        model,
        dataset,
        TrainConfig(epochs=4, batch_size=4, seed=3, checkpoint_every=2),
        checkpoint_dir=tmp_path,
    )
    assert (tmp_path / "model.gnvp").exists()
    assert (tmp_path / "epoch_0002.gnvp").exists()
    assert (tmp_path / "epoch_0004.gnvp").exists()
    loaded = load_checkpoint(tmp_path / "model.gnvp", TOY_SPEC)
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, loaded.get_parameter(name).data)


def test_split_dataset_deterministic(qm9_corpus):
    a_train, a_test = split_dataset(qm9_corpus, seed=0)
    b_train, b_test = split_dataset(qm9_corpus, seed=0)
    assert len(a_test) == round(len(qm9_corpus) * 0.1)
    assert len(a_train) + len(a_test) == len(qm9_corpus)
    assert all(x == y for x, y in zip(a_train, b_train))


def test_metrics_csv_format(tmp_path):
    from graphnvp.train import EpochRecord

    records = [
        EpochRecord(epoch=1, mean_nll=100.5, sigma=1.0, wall_seconds=2.5),
        EpochRecord(epoch=2, mean_nll=90.25, sigma=0.98, wall_seconds=2.4),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    # No wall times, so fixed-seed runs write the same bytes.
    assert lines[1:] == ["epoch,mean_nll,sigma", "1,100.5,1", "2,90.25,0.98"]


def test_loss_finite_on_corpus_batches(qm9_corpus):
    from graphnvp.graphs import qm9lite_spec

    model = FlowModel(qm9lite_spec(), seed=0)
    rng = make_rng(0)
    loss = nll_loss(model, qm9_corpus[:64], rng)
    assert np.isfinite(loss.item())


@pytest.mark.parametrize("checkpoint_every, epoch", [(0, 2), (1, 1)])
def test_train_refuses_to_save_non_finite_parameters(tmp_path, monkeypatch, checkpoint_every, epoch):
    """An Adam step that makes a parameter non-finite right before a
    checkpoint (``model.gnvp``, or ``epoch_0001.gnvp`` when every epoch is
    saved) raises, naming the epoch and step, and writes no file."""
    train_module = importlib.import_module("graphnvp.train")
    real_step = train_module.adam_step
    poisoned_step = 2 * epoch  # six graphs at batch 4: two steps per epoch

    def poisoning(state, gradient, config, start):
        real_step(state, gradient, config, start)
        if state.step == poisoned_step:
            # The layer just updated: no vjp of this step reads it any more.
            state.params[start + gradient.size // 2] = np.inf

    monkeypatch.setattr(train_module, "adam_step", poisoning)
    config = TrainConfig(epochs=2, batch_size=4, seed=1, checkpoint_every=checkpoint_every)
    with pytest.raises(TrainingError, match=f"epoch {epoch} step {poisoned_step}; .* not written"):
        train(toy_model(), toy_batch(6), config, checkpoint_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
