"""Exact negative-log-likelihood training with Adam.

The objective is the per-graph negative log likelihood of freshly dequantized
inputs: ``-(prior log density + Jacobian log-det)``, averaged over the batch.
The constant volume term introduced by the noise scale does not depend on the
parameters and is excluded from reported values (see the metrics CSV header).
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import NumericError, TrainingError
from .flow import FlowModel, _atomic_open, save_checkpoint
from .graphs import MolecularGraph, dequantize
from .tensor import GradientTape, Tensor, make_rng

METRICS_COLUMNS = ("epoch", "mean_nll", "sigma", "wall_seconds")
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
    dequant_noise: float = 0.9
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise TrainingError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 < self.dequant_noise < 1.0:
            raise TrainingError("dequant_noise must lie in (0, 1)")
        if min(self.adam_alpha, self.adam_beta1, self.adam_beta2, self.adam_eps) <= 0:
            raise TrainingError("Adam hyperparameters must be positive")


@dataclass
class TrainState:
    """Optimizer state: parameters, Adam moments, counters, generator state."""

    params: dict[str, Tensor]
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step: int = 0
    epoch: int = 0
    rng_state: dict = field(default_factory=dict)

    @staticmethod
    def fresh(model: FlowModel) -> "TrainState":
        params = model.parameter_dict()
        return TrainState(
            params=params,
            first_moment={n: np.zeros(p.shape) for n, p in params.items()},
            second_moment={n: np.zeros(p.shape) for n, p in params.items()},
        )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_nll: float
    sigma: float
    wall_seconds: float


def nll_loss(
    model: FlowModel,
    batch: Sequence[MolecularGraph],
    rng: np.random.Generator,
    noise_scale: float = 0.9,
    training: bool = True,
) -> Tensor:
    """Mean negative log likelihood of a batch under fresh dequantization noise."""
    if not batch:
        raise TrainingError("nll_loss needs a non-empty batch")
    adjacency, features = dequantize(batch, noise_scale, rng)
    z, log_det = model.forward_batch(adjacency, features, training=training)
    log_prob = model.prior.log_prob(z)
    per_graph = T.mul(T.add(log_prob, log_det), Tensor(-1.0))
    return T.mean_axis(per_graph, axis=0)


def adam_step(state: TrainState, gradients: dict[str, Tensor], config: TrainConfig) -> TrainState:
    """One bias-corrected Adam update; returns the advanced state."""
    if set(gradients) != set(state.params):
        missing = set(state.params) ^ set(gradients)
        raise TrainingError(f"gradient names do not match parameters: {sorted(missing)[:3]}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    step = state.step + 1
    params: dict[str, Tensor] = {}
    m_out: dict[str, np.ndarray] = {}
    v_out: dict[str, np.ndarray] = {}
    for name in sorted(state.params):
        g = gradients[name].data
        if g.shape != state.params[name].shape:
            raise TrainingError(f"gradient shape mismatch for {name}")
        m = b1 * state.first_moment[name] + (1.0 - b1) * g
        v = b2 * state.second_moment[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**step)
        v_hat = v / (1.0 - b2**step)
        update = config.adam_alpha * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        params[name] = Tensor(state.params[name].data - update)
        m_out[name] = m
        v_out[name] = v
    return TrainState(
        params=params,
        first_moment=m_out,
        second_moment=v_out,
        step=step,
        epoch=state.epoch,
        rng_state=state.rng_state,
    )


def train(
    model: FlowModel,
    dataset: Sequence[MolecularGraph],
    config: TrainConfig,
    checkpoint_dir=None,
    resume_state: TrainState | None = None,
) -> tuple[TrainState, list[EpochRecord]]:
    """Minibatch NLL minimization; per-epoch shuffling from the seeded generator.

    The model is updated in place; the final-epoch parameters are the
    evaluation model.  With ``checkpoint_dir`` set, a checkpoint is written
    every ``config.checkpoint_every`` epochs (if nonzero) and always at the
    end.  Passing the state saved from an interrupted run resumes it
    bit-exactly.
    """
    if not dataset:
        raise TrainingError("training dataset is empty")
    if resume_state is not None:
        state = resume_state
        model.load_parameters(state.params)
        rng = make_rng(config.seed)
        rng.bit_generator.state = state.rng_state
    else:
        state = TrainState.fresh(model)
        rng = make_rng(config.seed)

    records: list[EpochRecord] = []
    n = len(dataset)
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    for epoch in range(state.epoch + 1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        total_nll = 0.0
        for lo in range(0, n, config.batch_size):
            batch = [dataset[i] for i in order[lo : lo + config.batch_size]]
            try:
                with GradientTape() as tape:
                    for name, p in model.named_parameters():
                        tape.watch(name, p)
                    loss = nll_loss(model, batch, rng, config.dequant_noise, training=True)
                grads = tape.gradients(loss)
            except NumericError as exc:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} step {state.step + 1}: {exc}"
                ) from exc
            total_nll += loss.item() * len(batch)
            state = adam_step(state, grads, config)
            model.load_parameters(state.params)
        state.epoch = epoch
        state.rng_state = rng.bit_generator.state
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
            save_checkpoint(model, checkpoint_dir / f"epoch_{epoch:04d}.gnvp")
    state.rng_state = rng.bit_generator.state
    if checkpoint_dir is not None:
        save_checkpoint(model, checkpoint_dir / "model.gnvp")
    return state, records


def split_dataset(
    dataset: Sequence[MolecularGraph], seed: int, holdout_fraction: float = 0.1
) -> tuple[list[MolecularGraph], list[MolecularGraph]]:
    """Deterministic train/holdout split by seeded shuffle."""
    order = make_rng(seed).permutation(len(dataset))
    n_holdout = int(round(len(dataset) * holdout_fraction))
    holdout_idx = set(order[:n_holdout].tolist())
    train_part = [dataset[i] for i in range(len(dataset)) if i not in holdout_idx]
    holdout = [dataset[i] for i in sorted(holdout_idx)]
    return train_part, holdout


def write_metrics_csv(records: Sequence[EpochRecord], path, include_timing: bool = False) -> None:
    """Epoch log as CSV; timing values are blank unless requested so that
    fixed-seed runs produce byte-identical files."""
    with _atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER_NOTE + "\n")
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for rec in records:
            wall = f"{rec.wall_seconds:.3f}" if include_timing else ""
            writer.writerow([rec.epoch, f"{rec.mean_nll:.10g}", f"{rec.sigma:.10g}", wall])


# ---------------------------------------------------------------------------
# train-state serialization (resume support)
# ---------------------------------------------------------------------------


def save_train_state(path, state: TrainState, model: FlowModel) -> None:
    """Write optimizer state plus model buffers for bit-exact resumption."""
    arrays: dict[str, np.ndarray] = {}
    for name, p in state.params.items():
        arrays["p/" + name] = p.data
    for name, m in state.first_moment.items():
        arrays["m/" + name] = m
    for name, v in state.second_moment.items():
        arrays["v/" + name] = v
    for name, b in model.named_buffers():
        arrays["b/" + name] = b
    meta = {
        "step": state.step,
        "epoch": state.epoch,
        "rng_state": _encode_rng_state(state.rng_state),
    }
    arrays["meta/json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8).copy()
    with _atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_train_state(path, model: FlowModel) -> TrainState:
    """Restore optimizer state saved by :func:`save_train_state` into ``model``."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta/json"]).decode("utf-8"))
        params, m, v = {}, {}, {}
        for key in data.files:
            kind, _, name = key.partition("/")
            if kind == "p":
                params[name] = Tensor(data[key])
            elif kind == "m":
                m[name] = np.asarray(data[key], dtype=np.float64)
            elif kind == "v":
                v[name] = np.asarray(data[key], dtype=np.float64)
            elif kind == "b":
                model.set_buffer(name, data[key])
    model.load_parameters(params)
    return TrainState(
        params=params,
        first_moment=m,
        second_moment=v,
        step=int(meta["step"]),
        epoch=int(meta["epoch"]),
        rng_state=_decode_rng_state(meta["rng_state"]),
    )


def _encode_rng_state(state: dict) -> dict:
    def convert(value):
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            return {"__array__": value.tolist(), "dtype": str(value.dtype)}
        if isinstance(value, (np.integer,)):
            return int(value)
        return value

    return convert(state)


def _decode_rng_state(state: dict) -> dict:
    def convert(value):
        if isinstance(value, dict):
            if "__array__" in value:
                return np.array(value["__array__"], dtype=value["dtype"])
            return {k: convert(v) for k, v in value.items()}
        return value

    return convert(state)
