"""Discrete molecular graphs and their dequantization.

A graph is an (adjacency tensor, feature matrix) pair padded to a fixed node
count.  The adjacency tensor has one channel per bond kind including an
explicit "virtual" (no-bond) channel, so each node pair is one-hot across
channels; the feature matrix is one-hot across atom kinds including a virtual
padding atom.  Adding sub-unit uniform noise turns a batch of discrete graphs
into continuous arrays and the elementwise floor recovers them exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GraphError

QM9LITE_ATOMS = ("C", "N", "O", "F", "*")
ZINCLITE_ATOMS = ("C", "N", "O", "F", "S", "Cl", "*")
BOND_SYMBOLS = ("single", "double", "triple", "virtual")

# Maximum total bond order per atom symbol; shared by both bundled vocabularies.
DEFAULT_VALENCES = {"C": 4, "N": 3, "O": 2, "F": 1, "S": 6, "Cl": 1}

# The dequantization noise scale c: training adds ``c * U[0, 1)`` to every
# entry, and the noise-free encoder adds the midpoint ``c / 2``.
DEQUANT_NOISE = 0.9


@dataclass(frozen=True)
class GraphSpec:
    """Fixed dimensions and vocabularies for one graph family.

    The virtual atom symbol and the virtual bond channel always occupy the
    last index of their vocabulary.  Real bond channel ``k`` holds bond order
    ``k + 1``, so there are at most three, and every real atom symbol needs
    an entry in :data:`DEFAULT_VALENCES`: decoding reads no other.
    """

    num_nodes: int
    atom_vocab: tuple[str, ...]
    bond_vocab: tuple[str, ...] = BOND_SYMBOLS

    def __post_init__(self):
        if self.num_nodes < 1:
            raise GraphError("num_nodes must be positive")
        if len(self.atom_vocab) < 2 or len(self.bond_vocab) < 2:
            raise GraphError("vocabularies need at least one real and one virtual symbol")
        if len(self.bond_vocab) > 4:
            raise GraphError(f"bond_vocab has {len(self.bond_vocab) - 1} real channels; bond orders are 1..3")
        for symbol in self.atom_vocab[:-1]:
            if symbol not in DEFAULT_VALENCES:
                raise GraphError(f"atom symbol {symbol!r} in atom_vocab has no valence entry")

    @property
    def num_atom_types(self) -> int:
        return len(self.atom_vocab)

    @property
    def num_bond_types(self) -> int:
        return len(self.bond_vocab)

    @property
    def virtual_atom(self) -> int:
        return len(self.atom_vocab) - 1

    @property
    def virtual_bond(self) -> int:
        return len(self.bond_vocab) - 1

    @property
    def latent_dim(self) -> int:
        n, m, r = self.num_nodes, self.num_atom_types, self.num_bond_types
        return n * n * r + n * m

    def adjacency_shape(self) -> tuple[int, int, int]:
        return (self.num_nodes, self.num_nodes, self.num_bond_types)

    def feature_shape(self) -> tuple[int, int]:
        return (self.num_nodes, self.num_atom_types)


def qm9lite_spec() -> GraphSpec:
    """9-node spec over C, N, O, F with single/double/triple bond channels."""
    return GraphSpec(num_nodes=9, atom_vocab=QM9LITE_ATOMS)


def zinclite_spec() -> GraphSpec:
    """38-node spec adding S and Cl to the atom vocabulary."""
    return GraphSpec(num_nodes=38, atom_vocab=ZINCLITE_ATOMS)


# The structural invariants of a discrete graph, in the order they are
# checked; each text is the GraphError message of a graph failing it first.
INVARIANT_ERRORS = (
    "graph entries must be 0 or 1",
    "each node needs exactly one atom type",
    "each node pair needs exactly one bond channel",
    "adjacency must be symmetric per channel",
    "diagonal pairs must use the virtual bond channel",
    "virtual nodes may only carry virtual bonds",
)


def first_failures(spec: GraphSpec, adjacency: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Index into :data:`INVARIANT_ERRORS` of each graph's first failing
    invariant, or -1 where all hold, over the leading (batch) axes of
    ``[..., N, N, R]`` and ``[..., N, M]``.

    A shape that does not fit the spec raises :class:`GraphError`.
    """
    a = np.asarray(adjacency)
    x = np.asarray(features)
    lead = a.shape[:-3]
    if a.shape[len(lead):] != spec.adjacency_shape():
        raise GraphError(f"adjacency shape {a.shape} != {spec.adjacency_shape()}")
    if x.shape != lead + spec.feature_shape():
        raise GraphError(f"features shape {x.shape} != {spec.feature_shape()}")
    pairs, nodes = (-3, -2, -1), (-2, -1)
    a_one, x_one = a == 1.0, x == 1.0
    # One column per invariant, then an always-false sentinel, so argmin
    # finds the first failure.  Past the first column only graphs with 0/1
    # entries count, so the later columns read the ones alone.
    holds = np.zeros(lead + (len(INVARIANT_ERRORS) + 1,), dtype=bool)
    holds[..., 0] = (a_one | (a == 0.0)).all(axis=pairs) & (x_one | (x == 0.0)).all(axis=nodes)
    holds[..., 1] = (x_one.sum(axis=-1) == 1).all(axis=-1)
    holds[..., 2] = (a_one.sum(axis=-1) == 1).all(axis=nodes)
    holds[..., 3] = (a_one == np.swapaxes(a_one, -3, -2)).all(axis=pairs)
    virtual_bonds = a_one[..., spec.virtual_bond]
    holds[..., 4] = np.diagonal(virtual_bonds, axis1=-2, axis2=-1).all(axis=-1)
    holds[..., 5] = (virtual_bonds | ~x_one[..., spec.virtual_atom, None]).all(axis=nodes)
    first = holds.argmin(axis=-1)
    return np.where(first < len(INVARIANT_ERRORS), first, -1)


def check_graphs(spec: GraphSpec, adjacency: np.ndarray, features: np.ndarray) -> None:
    """Raise :class:`GraphError` for the first graph, in row-major order of
    the leading axes, that breaks an invariant (see :func:`first_failures`)."""
    failures = first_failures(spec, adjacency, features).ravel()
    bad = np.flatnonzero(failures >= 0)
    if bad.size:
        raise GraphError(INVARIANT_ERRORS[failures[bad[0]]])


@dataclass(frozen=True)
class MolecularGraph:
    """Discrete graph: binary adjacency [N, N, R] and features [N, M]."""

    spec: GraphSpec
    adjacency: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        adj = np.ascontiguousarray(self.adjacency, dtype=np.float64)
        feat = np.ascontiguousarray(self.features, dtype=np.float64)
        adj.flags.writeable = False
        feat.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "features", feat)

    def validate(self) -> "MolecularGraph":
        """Raise :class:`GraphError` unless every structural invariant holds."""
        check_graphs(self.spec, self.adjacency, self.features)
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MolecularGraph)
            and self.spec == other.spec
            and np.array_equal(self.adjacency, other.adjacency)
            and np.array_equal(self.features, other.features)
        )

    def __hash__(self):
        return hash((self.spec, self.adjacency.tobytes(), self.features.tobytes()))


def stack_graphs(graphs: Sequence[MolecularGraph]) -> tuple[np.ndarray, np.ndarray]:
    """Stack ``graphs`` into (adjacency [B, N, N, R], features [B, N, M]).
    An empty list raises :class:`GraphError`."""
    if not graphs:
        raise GraphError("no graphs to stack")
    return np.stack([g.adjacency for g in graphs]), np.stack([g.features for g in graphs])


def dequantize(
    graphs: Sequence[MolecularGraph], c: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Stack ``graphs`` into (adjacency [B, N, N, R], features [B, N, M]) and
    add i.i.d. noise ``c * u`` with ``u ~ U[0, 1)`` to every entry.

    The adjacency block's noise is drawn first, then the feature block's.
    Because ``c < 1``, the floor of the result recovers the discrete graphs.
    """
    if not 0.0 < c < 1.0:
        raise GraphError(f"noise scale must lie in (0, 1), got {c}")
    adjacency, features = stack_graphs(graphs)
    adjacency = adjacency + c * rng.random(adjacency.shape)
    features = features + c * rng.random(features.shape)
    return adjacency, features


def requantize(spec: GraphSpec, adjacency: np.ndarray, features: np.ndarray) -> MolecularGraph:
    """Recover one discrete graph by elementwise floor; validate the result."""
    for name, arr in (("adjacency", adjacency), ("features", features)):
        if (arr < 0.0).any() or (arr >= 2.0).any():
            raise GraphError(f"requantize: {name} entries must lie in [0, 2)")
    graph = MolecularGraph(spec, np.floor(adjacency), np.floor(features))
    try:
        return graph.validate()
    except GraphError as exc:
        raise GraphError(f"requantize produced a corrupted graph: {exc}") from exc


def argmax_adjacency(spec: GraphSpec, scores: np.ndarray) -> np.ndarray:
    """One-hot adjacency from continuous scores ``[..., N, N, R]``.

    Leading axes are a batch; each graph is handled independently.  Channel
    scores are symmetrized as ``(a[i, j] + a[j, i]) / 2`` before the argmax so
    the result is symmetric; diagonal pairs are forced to the virtual channel.
    Ties resolve to the lowest channel index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[scores.ndim - 3 :] != spec.adjacency_shape():
        raise GraphError(f"adjacency scores shape {scores.shape} does not end in {spec.adjacency_shape()}")
    if not np.isfinite(scores).all():
        raise GraphError("adjacency scores must be finite")
    n = spec.num_nodes
    sym = (scores + np.swapaxes(scores, -3, -2)) / 2.0
    idx = sym.argmax(axis=-1)
    idx[..., np.arange(n), np.arange(n)] = spec.virtual_bond
    return (idx[..., None] == np.arange(spec.num_bond_types)).astype(np.float64)


def discretize_argmax(
    spec: GraphSpec, adjacency: np.ndarray, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project continuous scores ``[..., N, N, R]`` and ``[..., N, M]`` onto
    valid one-hot (adjacency, features) arrays of the same shapes.

    Leading axes are a batch; each graph is handled independently.  Atom
    types are the per-node argmax; bond channels come from
    :func:`argmax_adjacency`; any pair touching a node whose argmax type is
    virtual is forced to the virtual channel, so every graph satisfies the
    graph invariants, which are checked once for the whole batch.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[features.ndim - 2 :] != spec.feature_shape():
        raise GraphError(f"feature scores shape {features.shape} does not end in {spec.feature_shape()}")
    lead = features.shape[:-2]
    if np.shape(adjacency)[:-3] != lead:
        raise GraphError(
            f"adjacency scores shape {np.shape(adjacency)} and feature scores shape "
            f"{features.shape} have different leading axes"
        )
    if not np.isfinite(features).all():
        raise GraphError("feature scores must be finite")
    return _discretized(spec, argmax_adjacency(spec, adjacency), features)


def _discretized(spec: GraphSpec, bonds: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`discretize_argmax` of finite feature scores and of the
    adjacency scores whose :func:`argmax_adjacency` is ``bonds``.  The
    adjacency returned is ``bonds`` itself when it is C-contiguous, else a
    C-contiguous copy."""
    atom_idx = features.argmax(axis=-1)
    x = (atom_idx[..., None] == np.arange(spec.num_atom_types)).astype(np.float64)

    a = np.ascontiguousarray(bonds)
    virtual = atom_idx == spec.virtual_atom
    wipe = np.zeros(spec.num_bond_types)
    wipe[spec.virtual_bond] = 1.0
    a[virtual[..., :, None] | virtual[..., None, :]] = wipe

    check_graphs(spec, a, x)
    return a, x
