"""The package's public surface: one batched model API, without the
helpers only tests use (``finite_difference_gradient``, ``split_dataset`` and
``permute_nodes`` live in ``tests/conftest.py``)."""
import types

import graphnvp

# The complete export list.  The single-graph wrappers, the latent-point and
# dequantized-graph classes and the single-graph encoder are not part of it.
EXPORTS = {
    "AdjacencyCouplingLayer", "FlowModel", "GaussianPrior", "GradientTape", "GraphSpec",
    "GridSpec", "MetricsReport", "ModelConfig", "MolecularGraph", "Molecule",
    "NodeFeatureCouplingLayer", "PropertyRegressor", "SampleConfig", "Tensor", "TrainConfig",
    "TrainState", "adam_step", "bundled_corpus_path",
    "check_validity", "compute_metrics", "compute_property", "decode", "default_model_config",
    "dequantize", "discretize_argmax", "encode_dataset",
    "fit_regressor", "from_graph", "generate", "grid_decode", "load_checkpoint",
    "load_dataset", "make_rng", "nll_loss", "optimize_along", "parse_smiles_lite",
    "qm9lite_spec", "requantize", "save_checkpoint",
    "temperature_sweep", "to_graph", "train", "write_smiles_canonical", "zinclite_spec",
}


def test_every_export_resolves_and_nothing_else_is_public():
    assert len(graphnvp.__all__) == len(set(graphnvp.__all__))
    assert set(graphnvp.__all__) == EXPORTS
    for name in graphnvp.__all__:
        assert getattr(graphnvp, name) is not None, name
    public = {
        name
        for name, value in vars(graphnvp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS
    assert not hasattr(graphnvp, "encode")
    assert not hasattr(graphnvp, "backward")  # GradientTape.gradients is the one replay
    for name in ("finite_difference_gradient", "split_dataset", "permute_nodes"):
        assert not hasattr(graphnvp, name), name
