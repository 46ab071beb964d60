"""Exact negative-log-likelihood training with Adam.

The objective is the per-graph negative log likelihood of freshly dequantized
inputs: ``-(prior log density + Jacobian log-det)``, averaged over the batch.
The constant volume term introduced by the noise scale does not depend on the
parameters and is excluded from reported values (see the metrics CSV header).
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import NumericError, TrainingError, check_count
from .flow import FlowModel, _atomic_open, _read_checkpoint, save_checkpoint
from .graphs import DEQUANT_NOISE, GraphSpec, MolecularGraph, dequantize
from .nets import parameters_changed
from .tensor import GradientTape, Tensor, make_rng

METRICS_COLUMNS = ("epoch", "mean_nll", "sigma")
METRICS_HEADER_NOTE = "# mean_nll excludes the constant dequantization volume term"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    adam_alpha: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        for key, low in (("epochs", 0), ("batch_size", 1), ("seed", 0), ("checkpoint_every", 0)):
            check_count(getattr(self, key), key, low, TrainingError)
        # A beta of 1 zeroes Adam's bias correction at the first step.
        if not (
            0 < self.adam_alpha < math.inf
            and 0 < self.adam_eps < math.inf
            and 0 < self.adam_beta1 < 1
            and 0 < self.adam_beta2 < 1
        ):
            raise TrainingError(
                "Adam needs finite adam_alpha, adam_eps > 0 and adam_beta1, adam_beta2 in (0, 1)"
            )


@dataclass
class TrainState:
    """Optimizer state: parameter values and the two Adam moments as flat
    vectors in the model's :attr:`~graphnvp.flow.FlowModel.layout` (each
    layer group contiguous, so :func:`train` updates a group's slice as soon
    as its gradients are final), and ``params`` is the model's own vector
    once :func:`train` binds it; plus counters and the generator state,
    empty in a :meth:`fresh` state: :func:`train` then starts the generator
    from ``config.seed``, as a run without a state does.  :func:`adam_step`
    pairs the vectors element by element."""

    params: np.ndarray
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    epoch: int = 0
    rng_state: dict = field(default_factory=dict)

    @staticmethod
    def fresh(model: FlowModel) -> "TrainState":
        """The model's own vector, not a copy, and zero moments."""
        return TrainState(model.vector, np.zeros(model.vector.size), np.zeros(model.vector.size))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_nll: float
    sigma: float
    wall_seconds: float


def nll_loss(model: FlowModel, batch: Sequence[MolecularGraph], rng: np.random.Generator) -> Tensor:
    """Mean negative log likelihood of a batch under fresh dequantization
    noise of scale :data:`~graphnvp.graphs.DEQUANT_NOISE`, through the
    training forward, which updates batch norm's running statistics."""
    if not batch:
        raise TrainingError("nll_loss needs a non-empty batch")
    adjacency, features = dequantize(batch, DEQUANT_NOISE, rng)
    z, log_det = model.forward_batch(adjacency, features)
    log_prob = model.prior.log_prob(z)
    per_graph = T.mul(T.add(log_prob, log_det), Tensor(-1.0))
    return T.mean_axis(per_graph, axis=0)


# Elements per Adam block: the block's slices of the four vectors and the two
# temporaries stay in cache while every pass over them runs.
_ADAM_BLOCK = 32768


def adam_step(state: TrainState, gradient: np.ndarray, config: TrainConfig, start: int) -> None:
    """One bias-corrected Adam update of a slice of ``state``'s three
    vectors, in place: ``gradient`` covers the ``gradient.size`` elements
    from ``start`` on, which are updated as step ``state.step``, already
    counted.  The caller counts the step and calls
    :func:`~graphnvp.nets.parameters_changed` once the step is done;
    :func:`train` updates one layer group at a time so.

    The update runs over blocks of ``_ADAM_BLOCK`` elements.  Each element
    keeps the operation order of ``(alpha*m_hat) / (sqrt(v_hat) + eps)``
    with ``m = b1*m + (1-b1)*g`` and ``v = b2*v + ((1-b2)*g)*g``, so the
    result depends neither on the blocking nor on the split into slices.  A
    gradient that is not one-dimensional, or a slice outside the state or
    before its first step, raises :class:`TrainingError` and leaves the
    state untouched."""
    size = gradient.size
    if gradient.ndim != 1 or not 0 <= start <= state.params.size - size or state.step < 1:
        raise TrainingError(
            f"gradient of shape {gradient.shape} at {start} does not fit the state's"
            f" {state.params.size} values at step {state.step}"
        )
    b1, b2, alpha, eps = config.adam_beta1, config.adam_beta2, config.adam_alpha, config.adam_eps
    c1, c2 = 1.0 - b1**state.step, 1.0 - b2**state.step
    params, m, v = (a[start : start + size] for a in (state.params, state.first_moment, state.second_moment))
    scratch = np.empty((2, min(size, _ADAM_BLOCK)))
    for lo in range(0, size, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, size)
        g, mb, vb = gradient[lo:hi], m[lo:hi], v[lo:hi]
        t, u = scratch[:, : hi - lo]
        np.multiply(g, 1.0 - b1, out=t)
        mb *= b1
        mb += t
        np.multiply(g, 1.0 - b2, out=t)
        t *= g
        vb *= b2
        vb += t
        np.divide(vb, c2, out=t)
        np.sqrt(t, out=t)
        t += eps
        np.divide(mb, c1, out=u)
        u *= alpha
        u /= t
        params[lo:hi] -= u


def _group(name: str) -> str:
    """The layer group of a parameter: its coupling layer (``adjacency_3``,
    ``node_0``) or the prior."""
    return name.split(".", 1)[0]


def _adam_by_group(model: FlowModel, state: TrainState, config: TrainConfig):
    """A tape consumer that applies :func:`adam_step` to each layer group's
    slice of ``state`` as soon as the group's gradients are final.  Each
    group is contiguous in the sorted layout; its gradients are laid out in
    one buffer of the largest group's size, reused by every group and step."""
    layout, slices = model.layout, {}
    for name, (lo, shape) in layout.items():
        start, size = slices.get(_group(name), (lo, 0))
        slices[_group(name)] = (start, size + math.prod(shape))
    buffer = np.empty(max(size for _, size in slices.values()))

    def update(group: str, gradients: list) -> None:
        start, size = slices[group]
        for name, g in gradients:
            lo, shape = layout[name]
            buffer[lo - start : lo - start + math.prod(shape)] = 0.0 if g is None else g.reshape(-1)
        adam_step(state, buffer[:size], config, start)

    return update


def _train_step(
    model: FlowModel,
    state: TrainState,
    batch: Sequence[MolecularGraph],
    rng: np.random.Generator,
    update: Callable,
    watched: list[tuple[str, Tensor, str]],
    epoch: int,
) -> float:
    """Forward, then the replay that hands each layer group's gradients to
    ``update`` (:func:`_adam_by_group`) as it finishes them; returns the
    batch loss.  ``watched`` lists each parameter's name, tensor and layer
    group in sorted name order.  The step's tape and loss are freed when it
    returns, before the next step's forward."""
    step = state.step + 1
    try:
        with GradientTape(update) as tape:
            for name, p, group in watched:
                tape.watch(name, p, group)
            loss = nll_loss(model, batch, rng)
        state.step = step
        tape.gradients(loss)
    except NumericError as exc:
        raise TrainingError(f"non-finite value at epoch {epoch} step {step}: {exc}") from exc
    finally:
        parameters_changed()
    return loss.item()


def train(
    model: FlowModel,
    dataset: Sequence[MolecularGraph],
    config: TrainConfig,
    checkpoint_dir=None,
    resume_state: TrainState | None = None,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> tuple[TrainState, list[EpochRecord]]:
    """Minibatch NLL minimization; per-epoch shuffling from the seeded generator.

    ``state.params`` is bound as the model's vector.  In each step the
    gradient replay hands every coupling layer's gradients, and the prior's,
    to :func:`adam_step` as soon as they are final, which updates that layer's
    slice of the state (and model) in place; no full gradient vector is ever
    held.  The final-epoch parameters are the evaluation model.  With ``checkpoint_dir`` set, a checkpoint is written every
    ``config.checkpoint_every`` epochs (if nonzero) and always at the end.
    ``on_epoch`` is called with each epoch's record when that epoch ends.

    Only a state that ``train`` returned or :meth:`TrainState.fresh` made,
    or one :func:`load_train_state` read, resumes bit-exactly, in ``model``
    or another model of its structure.  Every step updates the state in
    place, so a run that raises or is interrupted leaves the state it was
    given part-way: its vectors and step count as they were at that moment,
    its epoch and generator state as they were at the end of the last
    finished epoch.  So a state saved from ``on_epoch`` resumes bit-exactly
    from that epoch.  A non-finite gradient raises :class:`TrainingError`
    naming the epoch, the step and the layer before that layer is updated,
    and writes no file; the layers the replay updated before it stay
    updated, and the step is counted.
    """
    if not dataset:
        raise TrainingError("training dataset is empty")
    rng = make_rng(config.seed)
    state = TrainState.fresh(model) if resume_state is None else resume_state
    if state.rng_state:  # empty before the first step: the seed's generator
        rng.bit_generator.state = state.rng_state
    if resume_state is not None:  # a fresh state holds the model's vector already
        model._bind(state.params)
    update = _adam_by_group(model, state, config)
    watched = [(name, p, _group(name)) for name, p in sorted(model.named_parameters())]

    records: list[EpochRecord] = []
    n = len(dataset)
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    for epoch in range(state.epoch + 1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        total_nll = 0.0
        for lo in range(0, n, config.batch_size):
            batch = [dataset[i] for i in order[lo : lo + config.batch_size]]
            total_nll += _train_step(model, state, batch, rng, update, watched, epoch) * len(batch)
        state.epoch, state.rng_state = epoch, rng.bit_generator.state
        records.append(
            EpochRecord(
                epoch=epoch,
                mean_nll=total_nll / n,
                sigma=model.prior.sigma,
                wall_seconds=time.perf_counter() - started,
            )
        )
        if (
            checkpoint_dir is not None
            and config.checkpoint_every > 0
            and epoch % config.checkpoint_every == 0
        ):
            _save_finite(model, state, checkpoint_dir / f"epoch_{epoch:04d}.gnvp")
        if on_epoch is not None:
            on_epoch(records[-1])
    if checkpoint_dir is not None:
        _save_finite(model, state, checkpoint_dir / "model.gnvp")
    return state, records


def _save_finite(model: FlowModel, state: TrainState, path: Path) -> None:
    """Write ``model``'s checkpoint, unless an Adam step has made ``state``'s
    parameters non-finite: then raise :class:`TrainingError` and write
    nothing."""
    if not np.isfinite(state.params).all():
        raise TrainingError(
            f"non-finite parameters at epoch {state.epoch} step {state.step}; {path.name} not written"
        )
    save_checkpoint(model, path)


def write_metrics_csv(records: Sequence[EpochRecord], path) -> None:
    """Epoch log as CSV.  It holds no wall times, so fixed-seed runs write
    byte-identical files."""
    with _atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER_NOTE + "\n")
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for rec in records:
            writer.writerow([rec.epoch, f"{rec.mean_nll:.10g}", f"{rec.sigma:.10g}"])


# ---------------------------------------------------------------------------
# train-state serialization (resume support)
# ---------------------------------------------------------------------------


def save_train_state(path, state: TrainState, model: FlowModel) -> None:
    """Write ``model`` as a checkpoint plus an optimizer section: the Adam
    moments as ``m:``/``v:`` entries, and step, epoch and generator state.
    ``model`` holds ``state``'s parameters after :func:`train` returns."""
    block = {"step": state.step, "epoch": state.epoch, "rng_state": state.rng_state}
    save_checkpoint(model, path, (block, state.first_moment, state.second_moment))


def load_train_state(path, spec: GraphSpec) -> tuple[FlowModel, TrainState]:
    """The model and the state in a file written by :func:`save_train_state`,
    built from the file alone: the stored spec must match ``spec`` exactly.

    Each ``p:``/``m:``/``v:`` entry is read straight into its slice of the
    state's three vectors, the first the model's own.  A plain checkpoint, a
    refused entry or a generator state that cannot resume (empty past step
    0, or one numpy cannot load) raises :class:`CheckpointError`."""
    model, vectors, block = _read_checkpoint(path, spec, moments=True)
    return model, TrainState(*vectors, block["step"], block["epoch"], block["rng_state"])
