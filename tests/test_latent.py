import numpy as np
import pytest

from conftest import TOY_SPEC, random_graph, randomize_model
from graphnvp.chem import check_validity, from_graph, parse_smiles_lite, to_graph, write_smiles_canonical
from graphnvp.errors import ChemError, GnvpError, GraphError, ShapeError
from graphnvp.flow import FlowModel, ModelConfig
from graphnvp.graphs import dequantize, qm9lite_spec
from graphnvp.latent import (
    GridSpec,
    PropertyRegressor,
    compute_property,
    encode_dataset,
    fit_regressor,
    grid_decode,
    optimize_along,
    random_grid_axes,
    write_grid_csv,
    write_optimization_csv,
)
from graphnvp.sampling import GeneratedSample, SampleConfig, decode, generate
from graphnvp.tensor import make_rng


def toy_training_graphs(count, seed=0):
    rng = make_rng(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(TOY_SPEC, rng)
        if g.features[:, TOY_SPEC.virtual_atom].sum() < TOY_SPEC.num_nodes:
            graphs.append(g)
    return graphs


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_zero_init_midpoint(toy_model):
    g = toy_training_graphs(1)[0]
    z = encode_dataset(toy_model, [g])[0]
    expected = np.concatenate([(g.adjacency + 0.45).ravel(), (g.features + 0.45).ravel()])
    assert np.array_equal(z, expected)


def test_encode_no_graphs_is_a_graph_error(toy_model):
    with pytest.raises(GraphError, match="no graphs to stack"):
        encode_dataset(toy_model, [])


def test_encode_noise_free_deterministic(random_toy_model):
    g = toy_training_graphs(1, seed=1)[0]
    a = encode_dataset(random_toy_model, [g])
    b = encode_dataset(random_toy_model, [g])
    assert np.array_equal(a, b)


def test_encode_decode_recovers_molecule(random_toy_model):
    for g in toy_training_graphs(20, seed=2):
        [sample] = decode(random_toy_model, encode_dataset(random_toy_model, [g]))
        assert sample.graph == g


def test_encode_with_rng_uses_noise(random_toy_model):
    g = toy_training_graphs(1, seed=3)[0]
    a, _ = random_toy_model.eval_forward(*dequantize([g], 0.9, make_rng(0)))
    b, _ = random_toy_model.eval_forward(*dequantize([g], 0.9, make_rng(1)))
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the one decode path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_qm9_model():
    """A randomized qm9lite model small enough to decode quickly; its decodes
    include both valid and over-bonded molecules."""
    config = ModelConfig(adjacency_layers=9, node_layers=9, mlp_hidden=(16,), gcn_hidden=8, gcn_rounds=1)
    return randomize_model(FlowModel(qm9lite_spec(), config, seed=3), seed=5, scale=0.5)


def _decode_runs(model):
    """``(name, run, number of latents it decodes)`` for every decoding entry
    point; each run decodes one batch."""
    dataset = [to_graph(parse_smiles_lite(t), model.spec) for t in ("CCO", "C1CC1N", "FC=O")]
    u, v = random_grid_axes(model.spec.latent_dim, make_rng(30))
    grid = GridSpec(center=dataset[1], axis_u=u, axis_v=v, extent=2, step=1.5)
    regressor = PropertyRegressor(
        "heavy_atom_count", make_rng(31).normal(size=model.spec.latent_dim), 0.0, 1.0, False
    )
    config = SampleConfig(num_samples=40, temperature=1.0, seed=32)
    return [
        ("generate", lambda: generate(model, config), 40),
        ("grid_decode", lambda: [c for row in grid_decode(model, grid) for c in row], 25),
        ("optimize_along", lambda: optimize_along(model, regressor, dataset[0], 11, 1.5), 12),
    ]


def test_decode_checks_each_batch_and_each_molecule_once(monkeypatch, small_qm9_model):
    import graphnvp.chem as chem
    import graphnvp.graphs as graphs
    import graphnvp.latent as latent
    import graphnvp.sampling as sampling

    batches, molecules, limits = [], [], []
    check_original, failures_original = chem.check_validity, graphs.first_failures
    limit_original = chem._valence_limit

    def counted_failures(spec, adjacency, features):
        batches.append(np.shape(features)[:-2])
        return failures_original(spec, adjacency, features)

    def counted_check(molecule, *args):
        molecules.append(molecule)
        return check_original(molecule, *args)

    def counted_limit(symbol):
        limits.append(symbol)
        return limit_original(symbol)

    for module in (graphs, sampling):
        monkeypatch.setattr(module, "first_failures", counted_failures)
    for module in (chem, sampling, latent):
        monkeypatch.setattr(module, "check_validity", counted_check)
    monkeypatch.setattr(chem, "_valence_limit", counted_limit)
    for name, run, count in _decode_runs(small_qm9_model):
        batches.clear()
        molecules.clear()
        limits.clear()
        out = run()
        assert len(out) == count, name
        assert batches == [(count,)], name
        # One valence check per decoded molecule, on that molecule object.
        assert len(molecules) == count, name
        assert all(checked is item.molecule for checked, item in zip(molecules, out)), name
        # Every valence limit read comes from those checks: no other pass.
        assert limits == [symbol for m in molecules for symbol in m.atoms], name


def test_valid_flags_equal_the_valence_check(small_qm9_model):
    flags = []
    for name, run, _ in _decode_runs(small_qm9_model):
        for item in run():
            assert item.valid == check_validity(item.molecule).ok, name
            if isinstance(item, GeneratedSample):
                assert item.violations == check_validity(item.molecule).violations
            flags.append(item.valid)
    assert True in flags and False in flags


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_axes_orthonormal():
    u, v = random_grid_axes(24, make_rng(4))
    assert abs(np.linalg.norm(u) - 1.0) < 1e-10
    assert abs(np.linalg.norm(v) - 1.0) < 1e-10
    assert abs(u @ v) < 1e-10


def test_grid_spec_validates_axes():
    g = toy_training_graphs(1, seed=5)[0]
    u, v = random_grid_axes(TOY_SPEC.latent_dim, make_rng(5))
    GridSpec(center=g, axis_u=u, axis_v=v, extent=1, step=0.5)
    with pytest.raises(GnvpError):
        GridSpec(center=g, axis_u=2 * u, axis_v=v, extent=1, step=0.5)
    with pytest.raises(GnvpError):
        GridSpec(center=g, axis_u=u, axis_v=u, extent=1, step=0.5)
    for step in (0.0, float("nan"), float("inf")):
        with pytest.raises(GnvpError):
            GridSpec(center=g, axis_u=u, axis_v=v, extent=1, step=step)


def test_grid_one_by_one_is_center(random_toy_model):
    g = toy_training_graphs(1, seed=6)[0]
    u, v = random_grid_axes(TOY_SPEC.latent_dim, make_rng(6))
    grid = GridSpec(center=g, axis_u=u, axis_v=v, extent=0, step=0.5)
    cells = grid_decode(random_toy_model, grid)
    assert len(cells) == 1 and len(cells[0]) == 1
    center_molecule = from_graph(g)
    got = cells[0][0].molecule
    assert sorted(got.atoms) == sorted(center_molecule.atoms)
    assert len(got.bonds) == len(center_molecule.bonds)


def test_grid_center_cell_reproduces_molecule(random_toy_model):
    for seed, g in enumerate(toy_training_graphs(20, seed=7)):
        u, v = random_grid_axes(TOY_SPEC.latent_dim, make_rng(100 + seed))
        grid = GridSpec(center=g, axis_u=u, axis_v=v, extent=1, step=0.3)
        cells = grid_decode(random_toy_model, grid)
        center = cells[1][1]
        assert center.i == 0 and center.j == 0
        recovered = to_graph(center.molecule, TOY_SPEC) if center.molecule.atoms else None
        # compare as canonical text when the center is a valid molecule
        if center.valid and from_graph(g).atoms:
            assert write_smiles_canonical(center.molecule) == write_smiles_canonical(from_graph(g))


def test_grid_dimensions(random_toy_model):
    g = toy_training_graphs(1, seed=8)[0]
    u, v = random_grid_axes(TOY_SPEC.latent_dim, make_rng(8))
    grid = GridSpec(center=g, axis_u=u, axis_v=v, extent=2, step=0.4)
    cells = grid_decode(random_toy_model, grid)
    assert len(cells) == 5 and all(len(row) == 5 for row in cells)
    assert cells[0][0].i == -2 and cells[0][0].j == -2
    assert cells[4][4].i == 2 and cells[4][4].j == 2


def test_grid_decodes_each_point_once(monkeypatch, random_toy_model):
    calls = []
    original = random_toy_model._inverse  # inverse_batch and decode both run it

    def counted(z):
        calls.append(z.shape[0])
        return original(z)

    monkeypatch.setattr(random_toy_model, "_inverse", counted)
    g = toy_training_graphs(1, seed=9)[0]
    u, v = random_grid_axes(TOY_SPEC.latent_dim, make_rng(9))
    grid = GridSpec(center=g, axis_u=u, axis_v=v, extent=1, step=0.5)
    grid_decode(random_toy_model, grid)
    # one encode (the center) plus one batched decode of all 9 points
    assert sum(calls) == 9


def test_grid_axes_must_have_the_latent_length(random_toy_model):
    g = toy_training_graphs(1, seed=11)[0]
    u, v = random_grid_axes(5, make_rng(11))
    grid = GridSpec(center=g, axis_u=u, axis_v=v, extent=1, step=0.5)
    with pytest.raises(ShapeError) as err:
        grid_decode(random_toy_model, grid)
    assert str(err.value) == f"grid axis_u has shape (5,), the model's latent vectors ({TOY_SPEC.latent_dim},)"


def test_grid_csv(tmp_path, random_toy_model):
    g = toy_training_graphs(1, seed=10)[0]
    u, v = random_grid_axes(TOY_SPEC.latent_dim, make_rng(10))
    grid = GridSpec(center=g, axis_u=u, axis_v=v, extent=1, step=0.5)
    cells = grid_decode(random_toy_model, grid)
    path = tmp_path / "grid.csv"
    write_grid_csv(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,smiles"
    assert len(lines) == 10


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def test_property_values_single_carbon():
    m = parse_smiles_lite("C")
    assert compute_property(m, "heavy_atom_count") == 1.0
    assert compute_property(m, "ring_count") == 0.0
    assert compute_property(m, "hetero_fraction") == 0.0


def test_property_ring_count_cyclohexane():
    assert compute_property(parse_smiles_lite("C1CCCCC1"), "ring_count") == 1.0


def test_property_ring_count_disconnected():
    m = parse_smiles_lite("C1CC1.C1CC1")
    assert compute_property(m, "ring_count") == 2.0


def test_property_logp_carbon_dioxide():
    value = compute_property(parse_smiles_lite("O=C=O"), "logp_proxy")
    assert value == pytest.approx(0.34 + 2 * (-0.71), abs=1e-12)


def test_property_hetero_fraction():
    assert compute_property(parse_smiles_lite("CO"), "hetero_fraction") == 0.5


def test_property_unknown_name_and_invalid_molecule():
    with pytest.raises(ChemError):
        compute_property(parse_smiles_lite("C"), "qed")
    from graphnvp.chem import Molecule

    with pytest.raises(ChemError):
        compute_property(Molecule(["F", "F", "F"], [(0, 1, 1), (1, 2, 1)]), "heavy_atom_count")


def test_property_permutation_invariant():
    rng = make_rng(11)
    m = parse_smiles_lite("CC(=O)NC1CC1F")
    for name in ("heavy_atom_count", "ring_count", "hetero_fraction", "logp_proxy"):
        reference = compute_property(m, name)
        for _ in range(10):
            perm = list(rng.permutation(len(m.atoms)))
            atoms = [None] * len(m.atoms)
            for old, new in enumerate(perm):
                atoms[new] = m.atoms[old]
            bonds = [(perm[i], perm[j], o) for i, j, o in m.bonds]
            from graphnvp.chem import Molecule

            assert compute_property(Molecule(atoms, bonds), name) == reference


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------


def test_fit_regressor_recovers_planted_relation():
    """Planted-solution oracle: y = <w*, z> + b* must be recovered exactly
    once the design matrix has full column rank (n > D with a nonlinear map)."""
    from conftest import REG_CONFIG, REG_SPEC, random_nonempty_graph
    from graphnvp.latent import fit_linear_latent_model

    model = randomize_model(FlowModel(REG_SPEC, REG_CONFIG, seed=7), seed=11)
    rng = make_rng(12)
    graphs = [random_nonempty_graph(REG_SPEC, rng) for _ in range(200)]
    latents = encode_dataset(model, graphs)
    w_rng = make_rng(13)
    w_true = w_rng.normal(size=REG_SPEC.latent_dim)
    b_true = 0.7
    targets = latents @ w_true + b_true

    regressor = fit_linear_latent_model(latents, targets, "planted")
    assert not regressor.used_ridge
    relative = np.abs(regressor.weights - w_true).max() / np.abs(w_true).max()
    assert relative < 1e-6
    assert abs(regressor.bias - b_true) < 1e-6
    assert regressor.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_regressor_on_property_values(random_toy_model):
    graphs = toy_training_graphs(80, seed=14)
    regressor = fit_regressor(random_toy_model, graphs, "heavy_atom_count")
    assert 0.0 <= regressor.r_squared <= 1.0 + 1e-12
    assert regressor.weights.shape == (TOY_SPEC.latent_dim,)


def test_fit_regressor_constant_property_rejected(random_toy_model):
    graphs = toy_training_graphs(10, seed=15)
    # every toy molecule is all-carbon: hetero_fraction is constant 0
    with pytest.raises(GnvpError):
        fit_regressor(random_toy_model, graphs, "hetero_fraction")


@pytest.mark.slow
def test_fit_regressor_ridge_fallback_on_qm9(qm9_corpus):
    # 256 samples < 370 columns: the design is rank-deficient by counting
    model = FlowModel(qm9lite_spec(), seed=0)
    regressor = fit_regressor(model, qm9_corpus, "heavy_atom_count")
    assert regressor.used_ridge
    assert 0.0 <= regressor.r_squared <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# direction search
# ---------------------------------------------------------------------------


def _any_valid_seed_graph():
    spec = qm9lite_spec()
    return to_graph(parse_smiles_lite("CCO"), spec)


def test_optimize_zero_steps_returns_seed(random_toy_model):
    g = toy_training_graphs(1, seed=16)[0]
    regressor = PropertyRegressor(
        property_name="heavy_atom_count",
        weights=np.ones(TOY_SPEC.latent_dim),
        bias=0.0,
        r_squared=1.0,
        used_ridge=False,
    )
    steps = optimize_along(random_toy_model, regressor, g, num_steps=0, step_size=0.5)
    assert len(steps) == 1
    assert steps[0].step == 0
    # the seed decodes back to itself (flow bijectivity)
    assert to_graph(steps[0].molecule, TOY_SPEC) == g if steps[0].molecule.atoms else True


def test_optimize_step_zero_equals_seed_and_predictions_increase(random_toy_model):
    g = toy_training_graphs(1, seed=17)[0]
    rng = make_rng(18)
    regressor = PropertyRegressor(
        property_name="heavy_atom_count",
        weights=rng.normal(size=TOY_SPEC.latent_dim),
        bias=0.1,
        r_squared=0.9,
        used_ridge=False,
    )
    steps = optimize_along(random_toy_model, regressor, g, num_steps=6, step_size=0.4)
    assert len(steps) == 7
    seed_molecule = from_graph(g)
    assert sorted(steps[0].molecule.atoms) == sorted(seed_molecule.atoms)
    predictions = [s.predicted for s in steps]
    assert all(b > a for a, b in zip(predictions, predictions[1:]))
    # predicted increments follow <w, step * w/||w||> = step * ||w||
    increment = 0.4 * np.linalg.norm(regressor.weights)
    diffs = np.diff(predictions)
    assert np.allclose(diffs, increment, atol=1e-9)


def test_optimize_rejects_bad_arguments(random_toy_model):
    g = toy_training_graphs(1, seed=19)[0]
    regressor = PropertyRegressor("heavy_atom_count", np.ones(TOY_SPEC.latent_dim), 0.0, 1.0, False)
    for step_size in (0.0, float("nan"), float("inf")):
        with pytest.raises(GnvpError):
            optimize_along(random_toy_model, regressor, g, num_steps=3, step_size=step_size)
    with pytest.raises(GnvpError):
        optimize_along(random_toy_model, regressor, g, num_steps=-1, step_size=0.5)


def test_optimize_weights_must_have_the_latent_length(random_toy_model):
    g = toy_training_graphs(1, seed=21)[0]
    regressor = PropertyRegressor("heavy_atom_count", np.ones(5), 0.0, 1.0, False)
    with pytest.raises(ShapeError) as err:
        optimize_along(random_toy_model, regressor, g, num_steps=3, step_size=0.5)
    assert str(err.value) == f"regressor weights have shape (5,), the model's latent vectors ({TOY_SPEC.latent_dim},)"


def test_optimization_csv(tmp_path, random_toy_model):
    g = toy_training_graphs(1, seed=20)[0]
    regressor = PropertyRegressor("heavy_atom_count", np.ones(TOY_SPEC.latent_dim), 0.0, 1.0, False)
    steps = optimize_along(random_toy_model, regressor, g, num_steps=3, step_size=0.5)
    path = tmp_path / "optimize.csv"
    write_optimization_csv(steps, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,smiles,predicted_property,realized_property"
    assert len(lines) == 5
