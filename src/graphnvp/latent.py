"""Latent encoding, grid decoding, proxy properties, and direction search.

Encoding is deterministic: instead of random dequantization noise every
entry gets the midpoint offset ``DEQUANT_NOISE / 2``, so a molecule always
maps to the same latent point.  Grid and line searches decode every latent
point exactly once, through :func:`graphnvp.sampling.decode`, and take each
point's validity from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chem import Molecule, check_validity, from_graphs, write_smiles_canonical
from .errors import ChemError, GnvpError, ShapeError
from .flow import FlowModel, write_csv
from .graphs import DEQUANT_NOISE, MolecularGraph, stack_graphs
from .sampling import decode

# Fixed per-atom hydrophobicity-style contributions; documented constants.
LOGP_CONTRIBUTIONS = {"C": 0.34, "N": -0.60, "O": -0.71, "F": 0.22, "S": 0.26, "Cl": 0.61}

PROPERTY_NAMES = ("heavy_atom_count", "ring_count", "hetero_fraction", "logp_proxy")

# Ridge penalty of the fallback fit when the latent design is rank-deficient.
RIDGE_LAMBDA = 1e-6


# ---------------------------------------------------------------------------
# 2-D neighborhood grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Center molecule plus two orthonormal latent directions and extents."""

    center: MolecularGraph
    axis_u: np.ndarray
    axis_v: np.ndarray
    extent: int
    step: float

    def __post_init__(self):
        u = np.asarray(self.axis_u, dtype=np.float64)
        v = np.asarray(self.axis_v, dtype=np.float64)
        object.__setattr__(self, "axis_u", u)
        object.__setattr__(self, "axis_v", v)
        if self.extent < 0 or not (np.isfinite(self.step) and self.step > 0):
            raise GnvpError("grid extent must be >= 0 and step finite and > 0")
        for name, axis in (("axis_u", u), ("axis_v", v)):
            # Every comparison with a NaN is False, so the checks below
            # would pass an axis that is not finite.
            if not np.isfinite(axis).all():
                raise GnvpError(f"{name} is not finite")
            if abs(np.linalg.norm(axis) - 1.0) > 1e-10:
                raise GnvpError(f"{name} is not a unit vector")
        if abs(float(u @ v)) > 1e-10:
            raise GnvpError("grid axes are not orthogonal")


def random_grid_axes(dimension: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two random orthonormal directions via Gram-Schmidt on Gaussian draws."""
    u = rng.standard_normal(dimension)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dimension)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    return u, v


@dataclass(frozen=True)
class GridCell:
    i: int
    j: int
    molecule: Molecule
    valid: bool


def grid_decode(model: FlowModel, grid: GridSpec) -> list[list[GridCell]]:
    """Decode the (2*extent+1)^2 lattice around the center's latent point.

    Each point is decoded exactly once; the (0, 0) cell reproduces the center
    molecule exactly because the flow is bijective.  An axis that is not
    of the model's latent shape raises :class:`ShapeError`.
    """
    dim = model.spec.latent_dim
    for name, axis in (("axis_u", grid.axis_u), ("axis_v", grid.axis_v)):
        if axis.shape != (dim,):
            raise ShapeError(f"grid {name} has shape {axis.shape}, the model's latent vectors ({dim},)")
    center_z = encode_dataset(model, [grid.center])[0]
    offsets = range(-grid.extent, grid.extent + 1)
    pairs = [(i, j) for i in offsets for j in offsets]
    points = np.stack(
        [center_z + i * grid.step * grid.axis_u + j * grid.step * grid.axis_v for i, j in pairs]
    )
    cells = [
        GridCell(i=i, j=j, molecule=sample.molecule, valid=sample.valid)
        for (i, j), sample in zip(pairs, decode(model, points))
    ]
    side = len(offsets)
    return [cells[k : k + side] for k in range(0, len(cells), side)]


def _smiles_or_invalid(molecule: Molecule, valid: bool) -> str:
    return write_smiles_canonical(molecule) if valid else "INVALID"


def write_grid_csv(rows: Sequence[Sequence[GridCell]], path) -> None:
    write_csv(
        path,
        ["i", "j", "smiles"],
        ([cell.i, cell.j, _smiles_or_invalid(cell.molecule, cell.valid)] for row in rows for cell in row),
    )


# ---------------------------------------------------------------------------
# proxy chemical properties
# ---------------------------------------------------------------------------


def compute_property(molecule: Molecule, name: str) -> float:
    """Exact proxy properties; permutation-invariant over atom ordering."""
    if name in PROPERTY_NAMES and not check_validity(molecule).ok:
        raise ChemError("property requested for an invalid molecule")
    return _property(molecule, name)


def _property(molecule: Molecule, name: str) -> float:
    """:func:`compute_property` of a molecule already known to be valid."""
    if name not in PROPERTY_NAMES:
        raise ChemError(f"unknown property {name!r}; choose from {PROPERTY_NAMES}")
    if name == "heavy_atom_count":
        return float(len(molecule.atoms))
    if name == "ring_count":
        return float(len(molecule.bonds) - len(molecule.atoms) + len(molecule.components()))
    if name == "hetero_fraction":
        non_carbon = sum(1 for a in molecule.atoms if a != "C")
        return non_carbon / len(molecule.atoms)
    # exactly rounded sum keeps the value independent of atom ordering
    return math.fsum(LOGP_CONTRIBUTIONS[a] for a in molecule.atoms)


# ---------------------------------------------------------------------------
# linear property regression and direction search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyRegressor:
    property_name: str
    weights: np.ndarray
    bias: float
    r_squared: float
    used_ridge: bool

    def predict(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=np.float64) + self.bias)


def encode_dataset(model: FlowModel, dataset: Sequence[MolecularGraph]) -> np.ndarray:
    """Noise-free latent matrix [n, D] for a list of graphs: every entry is
    offset by the midpoint ``DEQUANT_NOISE / 2``."""
    adjacency, features = stack_graphs(dataset)
    return model.eval_forward(adjacency + DEQUANT_NOISE / 2.0, features + DEQUANT_NOISE / 2.0)[0]


def fit_linear_latent_model(
    latents: np.ndarray, targets: np.ndarray, property_name: str
) -> PropertyRegressor:
    """Least squares of ``targets`` on latent rows.

    Exact OLS when the intercept-augmented design matrix has full column
    rank; otherwise the ridge penalty :data:`RIDGE_LAMBDA` (intercept
    unpenalized) with the fallback reported in the result.
    """
    latents = np.asarray(latents, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if np.unique(targets).size < 2:
        raise GnvpError(f"property {property_name!r} is constant over the dataset")
    n, dim = latents.shape

    design = np.hstack([latents, np.ones((n, 1))])
    solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    used_ridge = rank < dim + 1
    if used_ridge:
        z_mean = latents.mean(axis=0)
        y_mean = targets.mean()
        centered = latents - z_mean
        gram = centered.T @ centered + RIDGE_LAMBDA * np.eye(dim)
        weights = np.linalg.solve(gram, centered.T @ (targets - y_mean))
        bias = float(y_mean - z_mean @ weights)
    else:
        weights, bias = solution[:dim], float(solution[dim])

    predictions = latents @ weights + bias
    ss_res = float(np.sum((targets - predictions) ** 2))
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    return PropertyRegressor(
        property_name=property_name,
        weights=weights,
        bias=bias,
        r_squared=1.0 - ss_res / ss_tot,
        used_ridge=used_ridge,
    )


def fit_regressor(
    model: FlowModel, dataset: Sequence[MolecularGraph], property_name: str
) -> PropertyRegressor:
    """Fit a property's linear model on noise-free latent vectors."""
    if len(dataset) < 2:
        raise GnvpError("fit_regressor needs at least two molecules")
    targets = np.array(
        [compute_property(m, property_name) for m in from_graphs(dataset)], dtype=np.float64
    )
    return fit_linear_latent_model(encode_dataset(model, dataset), targets, property_name)


@dataclass(frozen=True)
class OptimizationStep:
    step: int
    molecule: Molecule
    valid: bool
    predicted: float
    realized: float | None


def optimize_along(
    model: FlowModel,
    regressor: PropertyRegressor,
    seed_graph: MolecularGraph,
    num_steps: int,
    step_size: float,
) -> list[OptimizationStep]:
    """Walk the latent space along the regressor's normalized weight direction.

    Step 0 is the seed molecule itself; each of the ``num_steps`` following
    points is decoded once.  The realized property is reported only for valid
    decodes.  Weights that are not of the model's latent shape raise
    :class:`ShapeError`; weights that are all zero or not finite give no
    direction and raise :class:`GnvpError`.
    """
    dim, shape = model.spec.latent_dim, np.shape(regressor.weights)
    if shape != (dim,):
        raise ShapeError(f"regressor weights have shape {shape}, the model's latent vectors ({dim},)")
    if not (np.isfinite(regressor.weights).all() and np.any(regressor.weights)):
        raise GnvpError("regressor weights must be finite and not all zero")
    if not (np.isfinite(step_size) and step_size > 0):
        raise GnvpError("step_size must be finite and > 0")
    if num_steps < 0:
        raise GnvpError("num_steps must be >= 0")
    direction = regressor.weights / np.linalg.norm(regressor.weights)
    z0 = encode_dataset(model, [seed_graph])[0]
    points = np.stack([z0 + k * step_size * direction for k in range(num_steps + 1)])
    return [
        OptimizationStep(
            step=k,
            molecule=sample.molecule,
            valid=sample.valid,
            predicted=regressor.predict(points[k]),
            realized=_property(sample.molecule, regressor.property_name) if sample.valid else None,
        )
        for k, sample in enumerate(decode(model, points))
    ]


def write_optimization_csv(steps: Sequence[OptimizationStep], path) -> None:
    rows = []
    for item in steps:
        realized = "" if item.realized is None else f"{item.realized:.6g}"
        rows.append([item.step, _smiles_or_invalid(item.molecule, item.valid), f"{item.predicted:.6g}", realized])
    write_csv(path, ["step", "smiles", "predicted_property", "realized_property"], rows)
