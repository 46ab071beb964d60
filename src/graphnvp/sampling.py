"""Temperature sampling, two-step generation, and quality metrics.

Sampling draws latents from the prior with a temperature-scaled standard
deviation (``z ~ N(0, (T*sigma)^2 I)``).  :func:`decode` is the one path from
latents to molecules: it inverts the adjacency stack first, discretizes, then
inverts the node-feature stack, checks each decoded batch's graph invariants
once on the arrays, and checks each decoded molecule's valences once with
:func:`~graphnvp.chem.check_validity`.  Metrics follow the usual validity /
novelty / uniqueness / reconstruction definitions with canonical strings as
keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chem import Molecule, _molecules, check_validity, from_graphs, write_smiles_canonical
from .errors import GnvpError
from .flow import FlowModel, GaussianPrior, _atomic_open, write_csv
from .graphs import DEQUANT_NOISE, MolecularGraph, _discretized, dequantize, first_failures, stack_graphs
from .tensor import make_rng

SWEEP_COLUMNS = ("temp", "validity", "novelty", "uniqueness", "reconstruction", "seed_count")

# Seeded repetitions per temperature in :func:`temperature_sweep`.
SWEEP_RUNS = 5

# A sweep decodes, or reconstructs, consecutive runs together in passes of at
# most this many items, unless one run alone is larger.  Blocks of 256 or
# more latents decode to the same bits however a batch is split.
SWEEP_PASS_ITEMS = 512


@dataclass(frozen=True)
class SampleConfig:
    num_samples: int = 1000
    temperature: float = 0.85
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1 or self.seed < 0:
            raise GnvpError("num_samples must be >= 1 and seed >= 0")
        _check_temperature(self.temperature)


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature > 0):
        raise GnvpError(f"temperature must be finite and > 0, got {temperature!r}")


def sample_latent_batch(
    prior: GaussianPrior, temperature: float, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` latent draws [count, D] with standard deviation ``temperature * sigma``."""
    _check_temperature(temperature)
    return rng.standard_normal((count, prior.dimension)) * (temperature * prior.sigma)


@dataclass(frozen=True)
class GeneratedSample:
    graph: MolecularGraph
    molecule: Molecule
    valid: bool
    violations: tuple[str, ...]


def decode(model: FlowModel, latents: np.ndarray) -> list[GeneratedSample]:
    """Invert latent vectors [batch, D], project each onto a discrete graph
    and read off its molecule; invalid molecules are kept and flagged with
    the valid flag and violation texts of their :func:`check_validity`."""
    spec = model.spec
    # The one-hot adjacency that conditioned the node-feature stack is the
    # argmax discretization needs; the adjacency scores are dropped at once.
    # _discretized has checked these graphs' invariants.
    features, bonds = model._inverse(latents)[1:]
    adjacency, features = _discretized(spec, bonds, features)
    del bonds  # the chemistry below reads only its C-order copy
    samples = []
    for a, x, molecule in zip(adjacency, features, _molecules(spec, adjacency, features)):
        report = check_validity(molecule)
        samples.append(GeneratedSample(MolecularGraph(spec, a, x), molecule, report.ok, report.violations))
    return samples


def generate(model: FlowModel, config: SampleConfig) -> list[GeneratedSample]:
    """Decode ``num_samples`` latents drawn at ``temperature`` from ``seed``."""
    rng = make_rng(config.seed)
    latents = sample_latent_batch(model.prior, config.temperature, rng, config.num_samples)
    return decode(model, latents)


def write_generated_smiles(samples: Sequence[GeneratedSample], path) -> None:
    """One line per sample: canonical text for valid molecules, a comment for
    the rest, so the file stays loadable as a dataset."""
    lines = []
    for sample in samples:
        if sample.valid:
            lines.append(write_smiles_canonical(sample.molecule))
        else:
            lines.append("# invalid")
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class MetricsReport:
    validity: float
    novelty: float
    uniqueness: float
    reconstruction: float
    total: int
    valid_count: int
    novel_count: int
    unique_count: int
    reconstructed_count: int
    seed: int


def reconstruction_rate(
    model: FlowModel,
    training_set: Sequence[MolecularGraph],
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Count training graphs whose encode/decode round trip is exact.

    Dequantization noise of scale :data:`~graphnvp.graphs.DEQUANT_NOISE` is
    drawn once per graph; the decoded continuous tensors are floored back
    and compared discretely, so the result is an exact yes/no per molecule.
    A hit is a floor equal to its input graph, where that input keeps every
    graph invariant; such a floor lies in [0, 2) and is a valid graph, so
    this is what :func:`requantize` accepts.
    """
    return _reconstruction_counts(model, training_set, [rng])[0]


def _reconstruction_counts(
    model: FlowModel,
    training_set: Sequence[MolecularGraph],
    rngs: Sequence[np.random.Generator],
) -> list[tuple[int, int]]:
    """:func:`reconstruction_rate` for each generator of ``rngs``, in one
    pass: one dequantized copy of the training set per generator, encoded
    and decoded as one batch."""
    batch = len(training_set)
    if not batch:
        return [(0, 0)] * len(rngs)
    copies = [dequantize(training_set, DEQUANT_NOISE, rng) for rng in rngs]
    adjacency = np.concatenate([a for a, _ in copies])
    features = np.concatenate([x for _, x in copies])
    a_cont, x_cont = model.inverse_batch(model.eval_forward(adjacency, features)[0])
    a_in, x_in = stack_graphs(training_set)
    runs = len(rngs)
    hits = (
        (np.floor(a_cont).reshape(runs, batch, -1) == a_in.reshape(batch, -1)).all(axis=2)
        & (np.floor(x_cont).reshape(runs, batch, -1) == x_in.reshape(batch, -1)).all(axis=2)
        & (first_failures(model.spec, a_in, x_in) < 0)
    ).sum(axis=1)
    return [(int(h), batch) for h in hits]


def _training_keys(training_set: Sequence[MolecularGraph]) -> set[str]:
    return {write_smiles_canonical(m) for m in from_graphs(training_set)}


def _metrics_report(
    valid_molecules: Sequence[Molecule],
    total: int,
    train_keys: set[str],
    reconstruction: tuple[int, int],
    seed: int,
) -> MetricsReport:
    """Report for ``total`` generated molecules of which ``valid_molecules``
    pass the valence check, given the canonical keys of the training set and
    its ``(hits, total)`` reconstruction count."""
    valid_keys = [write_smiles_canonical(m) for m in valid_molecules]
    valid = len(valid_keys)
    novel = sum(1 for key in valid_keys if key not in train_keys)
    unique = len(set(valid_keys))
    hits, n_train = reconstruction

    def pct(num: int, den: int) -> float:
        return 100.0 * num / den if den else 0.0

    return MetricsReport(
        validity=pct(valid, total),
        novelty=pct(novel, valid),
        uniqueness=pct(unique, valid),
        reconstruction=pct(hits, n_train),
        total=total,
        valid_count=valid,
        novel_count=novel,
        unique_count=unique,
        reconstructed_count=hits,
        seed=seed,
    )


def compute_metrics(
    generated: Sequence[Molecule],
    training_set: Sequence[MolecularGraph],
    model: FlowModel,
    seed: int = 0,
) -> MetricsReport:
    """Validity, novelty, uniqueness, and reconstruction percentages.

    Novelty and uniqueness are fractions of the *valid* generated molecules;
    reconstruction is the fraction of training molecules with an exact
    encode/decode round trip.
    """
    if not generated:
        raise GnvpError("compute_metrics needs at least one generated molecule")
    return _metrics_report(
        [m for m in generated if check_validity(m).ok],
        len(generated),
        _training_keys(training_set),
        reconstruction_rate(model, training_set, make_rng(seed)),
        seed,
    )


@dataclass(frozen=True)
class SweepRow:
    temp: float
    validity: float
    novelty: float
    uniqueness: float
    reconstruction: float
    seed_count: int


def _sweep_passes(seeds: Sequence[int], run_size: int) -> list[Sequence[int]]:
    """Split a sweep's seeded runs of ``run_size`` items each into passes of
    ``min(SWEEP_RUNS, max(1, SWEEP_PASS_ITEMS // run_size))`` runs, so a
    pass holds at most ``max(run_size, SWEEP_PASS_ITEMS)`` items."""
    per_pass = min(SWEEP_RUNS, max(1, SWEEP_PASS_ITEMS // max(run_size, 1)))
    return [seeds[k : k + per_pass] for k in range(0, len(seeds), per_pass)]


def temperature_sweep(
    model: FlowModel,
    training_set: Sequence[MolecularGraph],
    temps: Sequence[float],
    config: SampleConfig,
) -> list[SweepRow]:
    """Metric means over :data:`SWEEP_RUNS` seeded repetitions per temperature.

    Run ``k`` uses seed ``config.seed + k`` at every temperature, so rows are
    paired across temperatures.  Rows come back sorted by temperature.  Only
    ``config.num_samples`` and ``config.seed`` are read; ``temps`` sets every
    temperature, and ``config.temperature`` is ignored.

    Each run draws its latents from its own seed, as :func:`generate` does,
    and its metrics are those :func:`compute_metrics` reports for it.  The
    runs are decoded, and the seeds' reconstruction copies of the training
    set encoded and decoded, in passes of several runs at once (see
    :func:`_sweep_passes`).
    """
    if not temps:
        raise GnvpError("temperature_sweep needs at least one temperature")
    for temp in temps:
        _check_temperature(temp)
    train_keys = _training_keys(training_set)
    seeds = [config.seed + k for k in range(SWEEP_RUNS)]
    # Reconstruction depends on the seed alone, not on the temperature.
    reconstruction = {}
    for group in _sweep_passes(seeds, len(training_set)):
        counts = _reconstruction_counts(model, training_set, [make_rng(seed) for seed in group])
        reconstruction.update(zip(group, counts))
    n = config.num_samples
    rows = []
    for temp in sorted(temps):
        reports = []
        for group in _sweep_passes(seeds, n):
            latents = np.concatenate([sample_latent_batch(model.prior, temp, make_rng(seed), n) for seed in group])
            samples = decode(model, latents)
            for k, seed in enumerate(group):
                run = samples[k * n : (k + 1) * n]
                reports.append(
                    _metrics_report([s.molecule for s in run if s.valid], n, train_keys, reconstruction[seed], seed)
                )
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


def _metric_fields(temp: float, r) -> list[str]:
    """The temperature and the four percentages of a :class:`MetricsReport`
    or :class:`SweepRow`, as CSV fields."""
    return [f"{temp:g}"] + [f"{v:.4f}" for v in (r.validity, r.novelty, r.uniqueness, r.reconstruction)]


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    write_csv(path, SWEEP_COLUMNS, (_metric_fields(row.temp, row) + [row.seed_count] for row in rows))
