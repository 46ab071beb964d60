import numpy as np
import pytest

from conftest import TOY_SPEC, random_graph, randomize_model
from graphnvp.chem import Molecule, parse_smiles_lite, to_graph
from graphnvp.errors import GnvpError, GraphError
from graphnvp.flow import FlowModel, GaussianPrior
from graphnvp.graphs import DEQUANT_NOISE, MolecularGraph, qm9lite_spec, requantize
from graphnvp.sampling import (
    SWEEP_RUNS,
    SampleConfig,
    SweepRow,
    _reconstruction_counts,
    compute_metrics,
    generate,
    reconstruction_rate,
    sample_latent_batch,
    temperature_sweep,
    write_generated_smiles,
    write_sweep_csv,
)
from graphnvp.tensor import make_rng


@pytest.fixture(scope="module")
def zero_qm9_model():
    return FlowModel(qm9lite_spec(), seed=0)


def graphs_for(texts):
    spec = qm9lite_spec()
    return [to_graph(parse_smiles_lite(t), spec) for t in texts]


def random_training_graph(spec, rng):
    """Random graph with at least one real atom (canonicalizable as a toy
    training molecule; single bonds on <= 3 carbons never violate valence)."""
    while True:
        g = random_graph(spec, rng)
        if g.features[:, spec.virtual_atom].sum() < spec.num_nodes:
            return g


def molecules_for(texts):
    return [parse_smiles_lite(t) for t in texts]


# ---------------------------------------------------------------------------
# latent sampling
# ---------------------------------------------------------------------------


def test_sampler_variance_at_temperature():
    prior = GaussianPrior(400)
    rng = make_rng(0)
    draws = sample_latent_batch(prior, 0.85, rng, 250)  # 100k scalars
    variance = float(np.var(draws))
    assert abs(variance - 0.7225) / 0.7225 < 0.02


def test_sampler_scales_exactly_with_temperature():
    # same seed, two temperatures: draws are exact scalings of each other,
    # so the T -> 0 limit is exactly z = 0
    prior = GaussianPrior(64)
    a = sample_latent_batch(prior, 1.0, make_rng(7), count=1)
    b = sample_latent_batch(prior, 0.25, make_rng(7), count=1)
    assert a.shape == (1, 64)
    assert np.array_equal(b, 0.25 * a)


def test_sampler_deterministic_per_seed():
    prior = GaussianPrior(16)
    assert np.array_equal(
        sample_latent_batch(prior, 0.85, make_rng(3), count=1),
        sample_latent_batch(prior, 0.85, make_rng(3), count=1),
    )


def test_sampler_rejects_bad_temperature():
    prior = GaussianPrior(4)
    with pytest.raises(GnvpError):
        sample_latent_batch(prior, 0.0, make_rng(0), count=1)
    with pytest.raises(GnvpError):
        SampleConfig(num_samples=10, temperature=-1.0)


def test_sample_config_rejects_a_negative_seed():
    with pytest.raises(GnvpError, match="seed >= 0"):
        SampleConfig(num_samples=10, seed=-1)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_temperatures_rejected(random_toy_model, temperature):
    prior = GaussianPrior(4)
    with pytest.raises(GnvpError, match="temperature must be finite and > 0"):
        sample_latent_batch(prior, temperature, make_rng(0), count=1)
    with pytest.raises(GnvpError, match="temperature must be finite and > 0"):
        SampleConfig(num_samples=10, temperature=temperature)
    config = SampleConfig(num_samples=5, temperature=0.5, seed=0)
    with pytest.raises(GnvpError, match="temperature must be finite and > 0"):
        temperature_sweep(random_toy_model, [], [0.5, temperature], config)


def test_sampler_honors_learned_sigma():
    prior = GaussianPrior(400)
    prior.load_parameters({"log_sigma": np.log(2.0)})
    draws = sample_latent_batch(prior, 0.5, make_rng(1), 250)
    assert abs(float(np.var(draws)) - 1.0) < 0.02  # (0.5 * 2)^2


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_deterministic_and_structurally_valid(random_toy_model):
    config = SampleConfig(num_samples=100, temperature=0.8, seed=5)
    samples = generate(random_toy_model, config)
    assert len(samples) == 100
    for sample in samples:
        sample.graph.validate()  # invariant-checking oracle
    again = generate(random_toy_model, config)
    assert [s.molecule.atoms for s in samples] == [s.molecule.atoms for s in again]
    assert [sorted(s.molecule.bonds) for s in samples] == [sorted(s.molecule.bonds) for s in again]


def test_generate_discretizes_the_batch_once(monkeypatch, random_toy_model):
    import graphnvp.flow
    import graphnvp.graphs

    calls = []
    original = graphnvp.graphs.argmax_adjacency

    def counting(spec, scores):
        calls.append(np.shape(scores))
        return original(spec, scores)

    monkeypatch.setattr(graphnvp.graphs, "argmax_adjacency", counting)
    monkeypatch.setattr(graphnvp.flow, "argmax_adjacency", counting)
    samples = generate(random_toy_model, SampleConfig(num_samples=40, temperature=0.9, seed=8))
    assert len(samples) == 40
    # the node stack's conditioning is also the output graphs' adjacency
    assert [shape[0] for shape in calls] == [40]


def test_generate_writes_annotated_smiles(tmp_path, random_toy_model):
    config = SampleConfig(num_samples=50, temperature=1.0, seed=6)
    samples = generate(random_toy_model, config)
    path = tmp_path / "generated.smi"
    write_generated_smiles(samples, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 50
    n_invalid = sum(1 for line in lines if line == "# invalid")
    assert n_invalid == sum(1 for s in samples if not s.valid)


def test_generate_low_temperature_concentrates(zero_qm9_model):
    # zero-init model: decoding is the identity reshape, so low-temperature
    # samples decode to graphs concentrated near the argmax of tiny noise;
    # determinism is exact for a fixed seed
    config = SampleConfig(num_samples=5, temperature=1e-6, seed=9)
    first = generate(zero_qm9_model, config)
    second = generate(zero_qm9_model, config)
    for a, b in zip(first, second):
        assert a.graph == b.graph


# ---------------------------------------------------------------------------
# metrics: three hand-computed fixture sets
# ---------------------------------------------------------------------------


def test_metrics_training_set_verbatim(toy_model):
    # generated == training set plus one duplicate: V=100, N=0, U=80
    train_graphs = graphs_for(["C", "CC", "CCC", "CO"])
    generated = molecules_for(["C", "CC", "CCC", "CO", "C"])
    report = compute_metrics(generated, train_graphs, FlowModel(qm9lite_spec(), seed=0), seed=1)
    assert report.validity == 100.0
    assert report.novelty == 0.0
    assert report.uniqueness == 80.0
    assert report.reconstruction == 100.0


def test_metrics_ten_copies_of_one_novel():
    train_graphs = graphs_for(["C", "CC"])
    generated = molecules_for(["N"] * 10)
    report = compute_metrics(generated, train_graphs, FlowModel(qm9lite_spec(), seed=0), seed=2)
    assert report.validity == 100.0
    assert report.novelty == 100.0
    assert report.uniqueness == 10.0


def test_metrics_mixed_fixture():
    # five generated: one invalid, C (known), O, O, N (novel)
    # V = 4/5 = 80; N = 3/4 = 75; U = 3/4 = 75
    train_graphs = graphs_for(["C", "CC"])
    invalid = Molecule(["F", "F", "F"], [(0, 1, 1), (1, 2, 1)])
    generated = [invalid] + molecules_for(["C", "O", "O", "N"])
    report = compute_metrics(generated, train_graphs, FlowModel(qm9lite_spec(), seed=0), seed=3)
    assert report.validity == 80.0
    assert report.novelty == 75.0
    assert report.uniqueness == 75.0
    assert (report.total, report.valid_count, report.novel_count, report.unique_count) == (5, 4, 3, 3)


def test_metrics_counts_algebra(random_toy_model):
    rng = make_rng(11)
    train_graphs = [random_training_graph(TOY_SPEC, rng) for _ in range(10)]
    samples = generate(random_toy_model, SampleConfig(num_samples=60, temperature=0.9, seed=4))
    report = compute_metrics([s.molecule for s in samples], train_graphs, random_toy_model, seed=4)
    assert 0 <= report.novel_count <= report.valid_count <= report.total
    assert 0 <= report.unique_count <= report.valid_count
    assert all(0.0 <= p <= 100.0 for p in (report.validity, report.novelty, report.uniqueness, report.reconstruction))


def test_metrics_empty_generated_rejected(toy_model):
    with pytest.raises(GnvpError):
        compute_metrics([], [], toy_model, seed=0)


def test_reconstruction_always_exact_random_model(random_toy_model):
    rng = make_rng(12)
    graphs = [random_graph(TOY_SPEC, rng) for _ in range(50)]
    hits, total = reconstruction_rate(random_toy_model, graphs, make_rng(0))
    assert (hits, total) == (50, 50)


def test_reconstruction_on_corpus_random_qm9_model(qm9_corpus):
    model = randomize_model(FlowModel(qm9lite_spec(), seed=3), seed=13, scale=0.1)
    hits, total = reconstruction_rate(model, qm9_corpus[:64], make_rng(1))
    assert (hits, total) == (64, 64)


@pytest.mark.parametrize("corpus", ["toy", "qm9"])
def test_reconstruction_counts_equal_one_rate_per_generator(monkeypatch, random_toy_model, qm9_corpus, corpus):
    """One pass over five generators counts what five ``reconstruction_rate``
    calls count.  A planted miss on every graph whose first adjacency entry
    drew noise below a third of the scale makes the counts differ by
    generator."""
    if corpus == "toy":
        model = random_toy_model
        rng = make_rng(20)
        graphs = [random_graph(TOY_SPEC, rng) for _ in range(40)]
    else:
        model = randomize_model(FlowModel(qm9lite_spec(), seed=3), seed=13, scale=0.1)
        graphs = qm9_corpus[:64]
    original = model.inverse_batch

    def planted(z):
        a_cont, x_cont = original(z)
        a_cont = a_cont.copy()
        a_cont[a_cont[:, 0, 0, 0] % 1.0 < DEQUANT_NOISE / 3, 0, 0, 0] += 1.0
        return a_cont, x_cont

    monkeypatch.setattr(model, "inverse_batch", planted)
    seeds = range(4, 4 + SWEEP_RUNS)
    counts = _reconstruction_counts(model, graphs, [make_rng(seed) for seed in seeds])
    assert counts == [reconstruction_rate(model, graphs, make_rng(seed)) for seed in seeds]
    assert all(total == len(graphs) for _, total in counts)
    assert len({hits for hits, _ in counts}) > 1 and max(hits for hits, _ in counts) < len(graphs)


def reconstruction_oracle(graphs, a_cont, x_cont):
    """Hits counted one graph at a time through ``requantize``."""
    hits = 0
    for graph, a, x in zip(graphs, a_cont, x_cont):
        try:
            recovered = requantize(graph.spec, a, x)
        except GraphError:
            continue
        if recovered == graph:
            hits += 1
    return hits


def test_reconstruction_equals_requantize_oracle_with_planted_misses(monkeypatch, random_toy_model):
    rng = make_rng(17)
    graphs = [random_graph(TOY_SPEC, rng) for _ in range(12)]
    a = np.array(graphs[9].adjacency)
    a[0, 0] = [1.0, 0.0]  # a bonded diagonal pair
    graphs[9] = MolecularGraph(TOY_SPEC, a, graphs[9].features)  # an invalid input graph
    decoded = []
    original = random_toy_model.inverse_batch

    def planted(z):
        a_cont, x_cont = original(z)
        a_cont, x_cont = a_cont.copy(), x_cont.copy()
        a_cont[1, 0, 1, 0] += 1.0  # a shifted entry: 0 -> 1 or 1 -> 2
        a_cont[3, 2, 2, 1] += 1.0
        x_cont[4, 0, 0] = -0.25  # outside [0, 2)
        x_cont[6, 2, 1] = 2.5
        a_cont[7, 1, 0, 1] = np.nan
        a_cont[8, 0, 0, 0] = -0.0  # floors to -0.0 == 0.0: still a hit
        decoded.append((a_cont, x_cont))
        return a_cont, x_cont

    monkeypatch.setattr(random_toy_model, "inverse_batch", planted)
    hits, total = reconstruction_rate(random_toy_model, graphs, make_rng(0))
    assert total == 12
    assert hits == reconstruction_oracle(graphs, *decoded[0]) == 12 - 6
    assert np.array_equal(np.floor(decoded[0][0][9]), graphs[9].adjacency)  # missed as invalid


# ---------------------------------------------------------------------------
# temperature sweep
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_decoded_flags_and_texts_equal_check_validity(trained_qm9):
    """Each sample's ``valid`` flag and ``violations`` texts, read off the
    decoded arrays, equal ``check_validity`` of its molecule: for eval's
    1000 samples at T = 0.85 and for a sweep's runs at 0.3, 0.6 and 0.9."""
    from graphnvp.chem import check_validity

    model = trained_qm9[0]
    runs = [(1000, 0.85, 0)] + [(200, temp, seed) for temp in (0.3, 0.6, 0.9) for seed in (1, 2)]
    samples = []
    for count, temperature, seed in runs:
        samples += generate(model, SampleConfig(num_samples=count, temperature=temperature, seed=seed))
    for sample in samples:
        report = check_validity(sample.molecule)
        assert (sample.valid, sample.violations) == (report.ok, report.violations)
    assert any(s.valid for s in samples) and any(len(s.violations) > 1 for s in samples)


def test_sweep_single_temperature_row(random_toy_model):
    rng = make_rng(14)
    train_graphs = [random_training_graph(TOY_SPEC, rng) for _ in range(8)]
    config = SampleConfig(num_samples=30, temperature=0.5, seed=0)
    rows = temperature_sweep(random_toy_model, train_graphs, [0.5], config)
    assert len(rows) == 1
    assert rows[0].temp == 0.5
    assert rows[0].seed_count == SWEEP_RUNS == 5


def test_sweep_rows_sorted_and_averaged(tmp_path, random_toy_model):
    rng = make_rng(15)
    train_graphs = [random_training_graph(TOY_SPEC, rng) for _ in range(8)]
    config = SampleConfig(num_samples=20, temperature=0.5, seed=7)
    rows = temperature_sweep(random_toy_model, train_graphs, [0.9, 0.3, 0.6], config)
    assert [r.temp for r in rows] == [0.3, 0.6, 0.9]
    # averaging protocol: recompute one cell by hand
    from graphnvp.sampling import compute_metrics as cm

    values = []
    for k in range(SWEEP_RUNS):
        run_cfg = SampleConfig(num_samples=20, temperature=0.3, seed=7 + k)
        samples = generate(random_toy_model, run_cfg)
        values.append(
            cm([s.molecule for s in samples], train_graphs, random_toy_model, seed=7 + k).validity
        )
    assert rows[0].validity == pytest.approx(float(np.mean(values)), abs=1e-12)

    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "temp,validity,novelty,uniqueness,reconstruction,seed_count"
    assert len(lines) == 4


def per_pair_rows(model, train_graphs, temps, num_samples, seed):
    """Sweep rows built from one ``generate`` and one ``compute_metrics`` per
    (temperature, seed) pair."""
    rows = []
    for temp in sorted(temps):
        reports = []
        for k in range(SWEEP_RUNS):
            samples = generate(model, SampleConfig(num_samples=num_samples, temperature=temp, seed=seed + k))
            reports.append(compute_metrics([s.molecule for s in samples], train_graphs, model, seed=seed + k))
        rows.append(
            SweepRow(
                temp=temp,
                validity=float(np.mean([r.validity for r in reports])),
                novelty=float(np.mean([r.novelty for r in reports])),
                uniqueness=float(np.mean([r.uniqueness for r in reports])),
                reconstruction=float(np.mean([r.reconstruction for r in reports])),
                seed_count=SWEEP_RUNS,
            )
        )
    return rows


def test_sweep_reconstructs_once_per_seed(tmp_path, monkeypatch, random_toy_model):
    """Reconstruction depends on the seed alone, so a sweep reconstructs
    each seed once: one pass covers all ``SWEEP_RUNS`` seeds of a small
    training set.  Its rows and CSV equal those built from per-pair
    compute_metrics."""
    import graphnvp.sampling as sampling

    rng = make_rng(16)
    train_graphs = [random_training_graph(TOY_SPEC, rng) for _ in range(8)]
    temps = [0.9, 0.3, 0.6]
    config = SampleConfig(num_samples=20, temperature=0.5, seed=3)
    passes = []
    original = sampling._reconstruction_counts

    def counted(model, training_set, rngs):
        passes.append(len(rngs))
        return original(model, training_set, rngs)

    monkeypatch.setattr(sampling, "_reconstruction_counts", counted)
    rows = temperature_sweep(random_toy_model, train_graphs, temps, config)
    assert passes == [SWEEP_RUNS]
    monkeypatch.undo()

    expected = per_pair_rows(random_toy_model, train_graphs, temps, 20, seed=3)
    assert rows == expected
    assert len({r.validity for r in rows}) > 1  # the rows are not all alike
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    write_sweep_csv(expected, tmp_path / "per_pair.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "per_pair.csv").read_bytes()


def test_sweep_checks_validity_once_per_sample(monkeypatch, random_toy_model):
    """The sweep's metrics take each sample's valid flag from ``decode``,
    which builds each decoded batch's molecules in one array pass and checks
    each molecule's valences once.  The five runs of 20 at one temperature
    decode as one batch of 100."""
    import graphnvp.sampling as sampling

    rng = make_rng(18)
    train_graphs = [random_training_graph(TOY_SPEC, rng) for _ in range(8)]
    calls, batches = [], []
    check_original, molecules_original = sampling.check_validity, sampling._molecules

    def counted(molecule):
        calls.append(1)
        return check_original(molecule)

    def counted_batch(spec, adjacency, features):
        batches.append(len(features))
        return molecules_original(spec, adjacency, features)

    monkeypatch.setattr(sampling, "check_validity", counted)
    monkeypatch.setattr(sampling, "_molecules", counted_batch)
    config = SampleConfig(num_samples=20, temperature=0.5, seed=3)
    temperature_sweep(random_toy_model, train_graphs, [0.9, 0.3, 0.6], config)
    assert batches == [100] * 3
    assert len(calls) == 3 * SWEEP_RUNS * 20


@pytest.mark.parametrize("run_size, passes", [(600, [1] * 5), (200, [2, 2, 1])])
def test_sweep_passes_hold_at_most_512_items_unless_one_run_is_larger(
    monkeypatch, random_toy_model, run_size, passes
):
    """Runs of 600 samples decode, and 600-graph training sets reconstruct,
    one per pass; runs of 200 go two to a pass.  The rows equal the
    per-pair computation either way."""
    import graphnvp.sampling as sampling

    rng = make_rng(19)
    train_graphs = [random_training_graph(TOY_SPEC, rng) for _ in range(run_size)]
    decoded, reconstructed = [], []
    molecules_original, counts_original = sampling._molecules, sampling._reconstruction_counts

    def counted_batch(spec, adjacency, features):
        decoded.append(len(features))
        return molecules_original(spec, adjacency, features)

    def counted_counts(model, training_set, rngs):
        reconstructed.append(len(rngs))
        return counts_original(model, training_set, rngs)

    monkeypatch.setattr(sampling, "_molecules", counted_batch)
    monkeypatch.setattr(sampling, "_reconstruction_counts", counted_counts)
    config = SampleConfig(num_samples=run_size, temperature=0.5, seed=2)
    rows = temperature_sweep(random_toy_model, train_graphs, [0.8], config)
    assert decoded == [run_size * k for k in passes]
    assert reconstructed == passes
    monkeypatch.undo()

    assert rows == per_pair_rows(random_toy_model, train_graphs, [0.8], run_size, seed=2)


def test_sweep_rejects_empty_or_bad_temps(random_toy_model):
    config = SampleConfig(num_samples=5, temperature=0.5, seed=0)
    with pytest.raises(GnvpError):
        temperature_sweep(random_toy_model, [], [], config)
    with pytest.raises(GnvpError):
        temperature_sweep(random_toy_model, [], [0.5, -0.1], config)


# ---------------------------------------------------------------------------
# trained model beats the untrained one on validity (paired seeds)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_trained_model_validity_improves(trained_qm9):
    model, _, _, train_part, _ = trained_qm9
    untrained = FlowModel(qm9lite_spec(), seed=0)
    config = SampleConfig(num_samples=200, temperature=0.85, seed=17)
    trained_samples = generate(model, config)
    untrained_samples = generate(untrained, config)
    trained_validity = sum(s.valid for s in trained_samples)
    untrained_validity = sum(s.valid for s in untrained_samples)
    assert trained_validity > untrained_validity
