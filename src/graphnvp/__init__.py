"""Invertible flow model for attributed molecular graphs.

Exact-likelihood training on (adjacency tensor, feature matrix) pairs,
two-step reverse generation, generation-quality metrics, and latent-space
tooling, with a small numpy-backed autodiff core.
"""

from .chem import (
    Molecule,
    bundled_corpus_path,
    check_validity,
    from_graph,
    load_dataset,
    parse_smiles_lite,
    to_graph,
    write_smiles_canonical,
)
from .flow import (
    AdjacencyCouplingLayer,
    FlowModel,
    GaussianPrior,
    ModelConfig,
    NodeFeatureCouplingLayer,
    default_model_config,
    load_checkpoint,
    save_checkpoint,
)
from .graphs import (
    GraphSpec,
    MolecularGraph,
    dequantize,
    discretize_argmax,
    qm9lite_spec,
    requantize,
    zinclite_spec,
)
from .latent import (
    GridSpec,
    PropertyRegressor,
    compute_property,
    encode_dataset,
    fit_regressor,
    grid_decode,
    optimize_along,
)
from .sampling import (
    MetricsReport,
    SampleConfig,
    compute_metrics,
    decode,
    generate,
    temperature_sweep,
)
from .tensor import GradientTape, Tensor, make_rng
from .train import TrainConfig, TrainState, adam_step, nll_loss, train

__version__ = "0.1.0"

__all__ = [
    "AdjacencyCouplingLayer",
    "FlowModel",
    "GaussianPrior",
    "GradientTape",
    "GraphSpec",
    "GridSpec",
    "MetricsReport",
    "ModelConfig",
    "MolecularGraph",
    "Molecule",
    "NodeFeatureCouplingLayer",
    "PropertyRegressor",
    "SampleConfig",
    "Tensor",
    "TrainConfig",
    "TrainState",
    "adam_step",
    "bundled_corpus_path",
    "check_validity",
    "compute_metrics",
    "compute_property",
    "decode",
    "default_model_config",
    "dequantize",
    "discretize_argmax",
    "encode_dataset",
    "fit_regressor",
    "from_graph",
    "generate",
    "grid_decode",
    "load_checkpoint",
    "load_dataset",
    "make_rng",
    "nll_loss",
    "optimize_along",
    "parse_smiles_lite",
    "qm9lite_spec",
    "requantize",
    "save_checkpoint",
    "temperature_sweep",
    "to_graph",
    "train",
    "write_smiles_canonical",
    "zinclite_spec",
]
