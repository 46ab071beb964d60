"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The 30-epoch training run is shared through a session fixture.
"""
import time
import warnings

import numpy as np
import pytest

from conftest import (
    REG_CONFIG,
    REG_SPEC,
    TOY_CONFIG,
    TOY_SPEC,
    finite_difference_gradient,
    permute_nodes,
    random_graph,
    random_nonempty_graph,
    randomize_model,
)
from graphnvp.chem import from_graph, parse_smiles_lite, to_graph, write_smiles_canonical
from graphnvp.flow import FlowModel, GaussianPrior
from graphnvp.graphs import dequantize, qm9lite_spec
from graphnvp.latent import encode_dataset, fit_linear_latent_model
from graphnvp.nets import Conditioning
from graphnvp.sampling import (
    SampleConfig,
    compute_metrics,
    generate,
    reconstruction_rate,
    sample_latent_batch,
    temperature_sweep,
    write_sweep_csv,
)
from graphnvp.tensor import GradientTape, Tensor, make_rng
from graphnvp.train import TrainConfig, nll_loss, train


def report(criterion: int, name: str, detail: str, elapsed: float, budget: float) -> None:
    print(f"PASS criterion {criterion:2d} ({name}): {detail} [{elapsed:.1f}s < {budget:.0f}s]")


@pytest.fixture(scope="module")
def random_qm9_model():
    return randomize_model(FlowModel(qm9lite_spec(), seed=1), seed=2, scale=0.1)


def test_criterion_01_reconstruction_exact(qm9_corpus, random_qm9_model):
    started = time.perf_counter()
    hits, total = reconstruction_rate(random_qm9_model, qm9_corpus, make_rng(0))
    elapsed = time.perf_counter() - started
    assert (hits, total) == (256, 256), f"reconstruction {hits}/{total}"
    assert elapsed < 60.0
    report(1, "reconstruction", "256/256 graphs bitwise equal", elapsed, 60)


def test_criterion_02_invertibility_full_model(random_qm9_model):
    started = time.perf_counter()
    spec = qm9lite_spec()
    rng = make_rng(3)
    graphs = [random_graph(spec, rng) for _ in range(100)]
    adjacency = np.stack([g.adjacency for g in graphs]) + 0.9 * rng.random((100,) + spec.adjacency_shape())
    features = np.stack([g.features for g in graphs]) + 0.9 * rng.random((100,) + spec.feature_shape())
    z, _ = random_qm9_model.eval_forward(adjacency, features)
    a_back, x_back = random_qm9_model.inverse_batch(z)
    sup = max(np.abs(a_back - adjacency).max(), np.abs(x_back - features).max())
    elapsed = time.perf_counter() - started
    assert sup < 1e-5, f"sup-norm {sup}"
    assert elapsed < 60.0
    report(2, "invertibility", f"sup-norm {sup:.2e} over 100 graphs", elapsed, 60)


def test_criterion_03_logdet_oracle():
    started = time.perf_counter()
    spec = TOY_SPEC
    n, m, r = 3, 2, 2
    dim = spec.latent_dim
    assert dim == 24
    worst = 0.0
    for draw in range(20):
        model = randomize_model(FlowModel(spec, TOY_CONFIG, seed=draw), seed=100 + draw)
        rng = make_rng(200 + draw)
        g = random_graph(spec, rng)
        adjacency, features = dequantize([g], 0.9, rng)
        conditioning = Conditioning(np.floor(adjacency))

        def apply(flat):
            a = flat[: n * n * r].reshape(1, n, n, r)
            x = flat[n * n * r :].reshape(1, n, m)
            zx, za = x.copy(), a.copy()
            for layer in model.node_layers:
                layer.eval_forward(zx, conditioning)
            for layer in model.adjacency_layers:
                layer.eval_forward(za)
            return np.concatenate([za.reshape(-1), zx.reshape(-1)])

        base = np.concatenate([adjacency.ravel(), features.ravel()])
        step = 1e-6
        jac = np.zeros((dim, dim))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = step
            jac[:, i] = (apply(base + e) - apply(base - e)) / (2 * step)
        sign, log_abs_det = np.linalg.slogdet(jac)
        _, analytic = model.eval_forward(adjacency, features)
        assert sign == 1.0
        worst = max(worst, abs(log_abs_det - float(analytic[0])))
    elapsed = time.perf_counter() - started
    assert worst < 1e-5, f"worst log-det gap {worst}"
    assert elapsed < 120.0
    report(3, "log-det oracle", f"worst |gap| {worst:.2e} over 20 draws", elapsed, 120)


def test_criterion_04_gradient_oracle_every_tensor():
    started = time.perf_counter()
    model = randomize_model(FlowModel(TOY_SPEC, TOY_CONFIG, seed=5), seed=6, scale=0.2)
    rng = make_rng(7)
    batch = [random_graph(TOY_SPEC, rng) for _ in range(2)]
    names = [name for name, _ in model.named_parameters()]

    with GradientTape() as tape:
        for name, p in model.named_parameters():
            tape.watch(name, p)
        loss = nll_loss(model, batch, make_rng(8))
    grads = tape.gradients(loss)

    worst = 0.0
    for name in names:
        # A copy: the parameter is a view that load_parameters writes into.
        p0 = Tensor(dict(model.named_parameters())[name].data)

        def loss_at(t):
            model.load_parameters({name: t.data})
            return nll_loss(model, batch, make_rng(8))

        numeric = finite_difference_gradient(loss_at, p0, 1e-5).data
        model.load_parameters({name: p0.data})
        analytic = grads[name].data
        denom = max(np.abs(numeric).max(), np.abs(analytic).max())
        gap = np.abs(analytic - numeric).max()
        if denom < 1e-6:
            # structurally zero gradient (e.g. a bias cancelled by batch
            # norm): central differences only resolve it to roundoff level
            assert gap < 1e-6, f"{name}: near-zero gradient gap {gap}"
        else:
            rel = gap / denom
            assert rel < 1e-4, f"{name}: relative error {rel}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(4, "gradient oracle", f"{len(names)} tensors, worst rel {worst:.2e}", elapsed, 300)


def test_criterion_05_zero_init_identity(qm9_corpus):
    started = time.perf_counter()
    model = FlowModel(qm9lite_spec(), seed=9)
    rng = make_rng(10)
    adjacency, features = dequantize([qm9_corpus[17]], 0.9, rng)
    z, log_det = model.eval_forward(adjacency, features)
    expected = np.concatenate([adjacency.ravel(), features.ravel()])
    assert np.array_equal(z[0], expected)
    assert log_det[0] == 0.0
    a_back, x_back = model.inverse_batch(z)
    assert np.array_equal(a_back, adjacency)
    assert np.array_equal(x_back, features)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(5, "zero-init identity", "exact identity, log-det 0", elapsed, 5)


@pytest.mark.slow
def test_criterion_06_training_descent(trained_qm9, qm9_split):
    model, state, records, train_part, _ = trained_qm9
    elapsed = sum(r.wall_seconds for r in records)
    first, last = records[0].mean_nll, records[-1].mean_nll
    drop = (first - last) / abs(first)
    assert len(records) == 30
    assert drop >= 0.20, f"NLL drop {drop:.1%}"
    assert elapsed < 900.0

    # determinism given the seed: a fresh 2-epoch run reproduces the prefix
    model2 = FlowModel(qm9lite_spec(), seed=0)
    _, records2 = train(model2, train_part, TrainConfig(epochs=2, batch_size=64, seed=0))
    assert [r.mean_nll for r in records2] == [r.mean_nll for r in records[:2]]
    report(6, "training descent", f"NLL {first:.1f} -> {last:.1f} ({drop:.1%})", elapsed, 900)


def test_criterion_07_metric_definitions():
    started = time.perf_counter()
    spec = qm9lite_spec()
    model = FlowModel(spec, seed=0)

    def graphs_for(texts):
        return [to_graph(parse_smiles_lite(t), spec) for t in texts]

    # fixture 1: generated == training plus one duplicate
    report1 = compute_metrics(
        [parse_smiles_lite(t) for t in ("C", "CC", "CCC", "CO", "C")],
        graphs_for(["C", "CC", "CCC", "CO"]),
        model,
        seed=1,
    )
    assert (report1.validity, report1.novelty, report1.uniqueness) == (100.0, 0.0, 80.0)
    assert report1.reconstruction == 100.0

    # fixture 2: ten copies of one novel valid molecule
    report2 = compute_metrics(
        [parse_smiles_lite("N")] * 10, graphs_for(["C", "CC"]), model, seed=2
    )
    assert (report2.validity, report2.novelty, report2.uniqueness) == (100.0, 100.0, 10.0)

    # fixture 3: one invalid + known + two copies of a novel + another novel
    from graphnvp.chem import Molecule

    invalid = Molecule(["F", "F", "F"], [(0, 1, 1), (1, 2, 1)])
    report3 = compute_metrics(
        [invalid] + [parse_smiles_lite(t) for t in ("C", "O", "O", "N")],
        graphs_for(["C", "CC"]),
        model,
        seed=3,
    )
    assert (report3.validity, report3.novelty, report3.uniqueness) == (80.0, 75.0, 75.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(7, "metric definitions", "3 hand-computed fixtures exact", elapsed, 5)


@pytest.mark.slow
def test_criterion_08_temperature_machinery(tmp_path, trained_qm9):
    started = time.perf_counter()
    # sampler variance at T = 0.85 equals 0.7225 sigma^2 within 2%
    prior = GaussianPrior(1000)
    draws = sample_latent_batch(prior, 0.85, make_rng(11), 100)  # 100k scalars
    variance = float(np.var(draws))
    assert abs(variance - 0.7225) / 0.7225 < 0.02

    # sweep CSV follows the 5-run-average protocol
    model, _, _, train_part, _ = trained_qm9
    config = SampleConfig(num_samples=100, temperature=0.85, seed=21)
    temps = [0.3, 0.6, 0.9]
    rows = temperature_sweep(model, train_part[:64], temps, config)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "temp,validity,novelty,uniqueness,reconstruction,seed_count"
    assert len(lines) == 4
    assert all(line.endswith(",5") for line in lines[1:])
    assert [r.temp for r in rows] == sorted(temps)

    # soft regression: uniqueness should not decrease with temperature for
    # most seeds; log a warning instead of failing (sampling noise)
    agreeing = 0
    for k in range(5):
        series = []
        for temp in temps:
            run_cfg = SampleConfig(num_samples=100, temperature=temp, seed=21 + k)
            samples = generate(model, run_cfg)
            metrics = compute_metrics([s.molecule for s in samples], train_part[:64], model, seed=21 + k)
            series.append(metrics.uniqueness)
        if series[0] <= series[1] <= series[2]:
            agreeing += 1
    if agreeing < 4:
        warnings.warn(f"uniqueness rose with temperature in only {agreeing}/5 seeds")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(8, "temperature machinery", f"variance {variance:.4f}, trend {agreeing}/5 seeds", elapsed, 120)


def test_criterion_09_canonicalization_permutation_invariance(qm9_corpus):
    started = time.perf_counter()
    spec = qm9lite_spec()
    rng = make_rng(12)
    for graph in qm9_corpus:
        reference = write_smiles_canonical(from_graph(graph))
        for _ in range(100):
            perm = rng.permutation(spec.num_nodes)
            shuffled = from_graph(permute_nodes(graph, perm))
            assert write_smiles_canonical(shuffled) == reference
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(9, "canonicalization", "256 molecules x 100 permutations", elapsed, 120)


def test_criterion_10_planted_regressor_recovery():
    started = time.perf_counter()
    model = randomize_model(FlowModel(REG_SPEC, REG_CONFIG, seed=7), seed=11)
    rng = make_rng(12)
    graphs = [random_nonempty_graph(REG_SPEC, rng) for _ in range(200)]
    latents = encode_dataset(model, graphs)
    w_rng = make_rng(13)
    w_true = w_rng.normal(size=REG_SPEC.latent_dim)
    b_true = -1.3
    regressor = fit_linear_latent_model(latents, latents @ w_true + b_true, "planted")
    rel = np.abs(regressor.weights - w_true).max() / np.abs(w_true).max()
    elapsed = time.perf_counter() - started
    assert not regressor.used_ridge
    assert rel < 1e-6, f"relative error {rel}"
    assert abs(regressor.bias - b_true) < 1e-6
    assert elapsed < 60.0
    report(10, "planted regressor", f"relative error {rel:.2e}", elapsed, 60)


@pytest.mark.slow
def test_criterion_11_end_to_end_determinism(tmp_path):
    from graphnvp.cli import run

    started = time.perf_counter()
    outputs = []
    for tag in ("one", "two"):
        train_dir = tmp_path / f"train_{tag}"
        eval_dir = tmp_path / f"eval_{tag}"
        assert run(["train", "--out", str(train_dir), "--epochs", "5", "--batch-size", "64", "--seed", "33"]) == 0
        assert (
            run(
                [
                    "eval",
                    "--checkpoint",
                    str(train_dir / "model.gnvp"),
                    "--out",
                    str(eval_dir),
                    "--samples",
                    "100",
                    "--seed",
                    "33",
                ]
            )
            == 0
        )
        outputs.append(
            (
                (train_dir / "model.gnvp").read_bytes(),
                (train_dir / "metrics.csv").read_bytes(),
                (eval_dir / "metrics.csv").read_bytes(),
            )
        )
    elapsed = time.perf_counter() - started
    assert outputs[0][0] == outputs[1][0], "checkpoints differ"
    assert outputs[0][1] == outputs[1][1], "training metrics differ"
    assert outputs[0][2] == outputs[1][2], "evaluation metrics differ"
    assert elapsed < 1800.0
    report(11, "end-to-end determinism", "train+eval byte-identical twice", elapsed, 1800)
