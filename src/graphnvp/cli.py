"""Command-line entry point.

Subcommands: train, generate, eval, encode, grid, optimize, sweep.  Every run
is reproducible byte-for-byte given the same inputs and seed; figure-style
outputs (grids, sweeps, traces) are CSV files for external plotting.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Failures print one machine-parsable line: ``gnvp:error:<kind>: <message>``.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .chem import bundled_corpus_path, load_dataset
from .errors import (
    CheckpointError,
    ChemError,
    DatasetError,
    GnvpError,
    GraphError,
    NumericError,
    ShapeError,
    SmilesParseError,
    TrainingError,
)
from .flow import FlowModel, load_checkpoint, write_csv
from .graphs import GraphSpec, qm9lite_spec, zinclite_spec
from .latent import (
    PROPERTY_NAMES,
    GridSpec,
    encode_dataset,
    fit_regressor,
    grid_decode,
    optimize_along,
    random_grid_axes,
    write_grid_csv,
    write_optimization_csv,
)
from .sampling import (
    SampleConfig,
    _metric_fields,
    compute_metrics,
    generate,
    temperature_sweep,
    write_generated_smiles,
    write_sweep_csv,
)
from .tensor import make_rng
from .train import TrainConfig, train, write_metrics_csv

_SPECS = {"qm9lite": qm9lite_spec, "zinclite": zinclite_spec}
_DEFAULT_TEMPS = {"qm9lite": 0.85, "zinclite": 0.75}
_DEFAULT_BATCH = {"qm9lite": 256, "zinclite": 128}

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3

_DATA_ERRORS = (DatasetError, ChemError, SmilesParseError, CheckpointError, GraphError, OSError)
_NUMERIC_ERRORS = (NumericError, TrainingError, ShapeError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    """argparse type: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _count(low: int):
    """argparse type: an integer >= ``low``."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value

    return count


_seed_value = _count(0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gnvp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, *, dataset=False, checkpoint=False, seeded=True):
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--spec", choices=sorted(_SPECS), default="qm9lite", help="graph family (default: qm9lite)")
        if seeded:
            p.add_argument("--seed", type=_seed_value, default=None, help="random seed (default: $GNVP_SEED or 0)")
            p.add_argument("--config", default=None, help="key=value config file; flags override it")
        if dataset:
            p.add_argument("--dataset", default=None, help="SMILES file (default: the bundled corpus for --spec)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint file")

    p = sub.add_parser("train", help="fit a model and write checkpoint + metrics log")
    common(p, dataset=True)
    p.add_argument("--epochs", type=_count(0), default=None, help="training epochs (default 200)")
    p.add_argument(
        "--batch-size", type=_count(1), default=None, help="minibatch size (default 256 for qm9lite, 128 for zinclite)"
    )

    p = sub.add_parser("generate", help="sample molecules into a SMILES file")
    common(p, checkpoint=True)
    p.add_argument("--samples", type=_count(1), default=1000, help="number of latents to decode (default 1000)")
    p.add_argument("--temp", type=_positive_float, default=None, help="sampling temperature (default per spec)")

    p = sub.add_parser("eval", help="generate and score validity/novelty/uniqueness/reconstruction")
    common(p, dataset=True, checkpoint=True)
    p.add_argument("--samples", type=_count(1), default=1000)
    p.add_argument("--temp", type=_positive_float, default=None)

    p = sub.add_parser("encode", help="write noise-free latent vectors for a dataset")
    common(p, dataset=True, checkpoint=True, seeded=False)

    p = sub.add_parser("grid", help="decode a 2-D latent neighborhood of one molecule")
    common(p, dataset=True, checkpoint=True)
    p.add_argument("--steps", type=_count(0), default=2, help="grid extent per axis (default 2)")
    p.add_argument("--step-size", type=_positive_float, default=0.5, help="latent grid spacing (default 0.5)")

    p = sub.add_parser("optimize", help="walk the latent space along a property direction")
    common(p, dataset=True, checkpoint=True)
    p.add_argument("--property", choices=PROPERTY_NAMES, default="logp_proxy", help="(default logp_proxy)")
    p.add_argument("--steps", type=_count(0), default=10)
    p.add_argument("--step-size", type=_positive_float, default=0.5)

    p = sub.add_parser("sweep", help="average metrics over seeds for several temperatures")
    common(p, dataset=True, checkpoint=True)
    p.add_argument("--samples", type=_count(1), default=1000)
    p.add_argument("--temps", default="0.3,0.6,0.9", help="comma-separated temperatures")

    return parser


# The keys a --config file may set, with the parser of each value: train
# reads these, every other subcommand with a --config flag reads only seed.
_TRAIN_KEYS = {
    "epochs": _count(0),
    "batch_size": _count(1),
    "adam_alpha": _positive_float,
    "adam_beta1": _positive_float,
    "adam_beta2": _positive_float,
    "adam_eps": _positive_float,
    "checkpoint_every": _count(0),
    "seed": _seed_value,
}
_SEED_KEYS = {"seed": _seed_value}


def _load_config_file(args, keys: dict) -> dict:
    """Parsed ``key=value`` lines of the ``--config`` file.  A key outside
    ``keys`` or a value its parser rejects is a usage error naming the key,
    with the reason argparse gives for the matching flag."""
    path = args.config
    if path is None:
        return {}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(f"{path} line {lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise _UsageError(
                f"{path} line {lineno}: {args.command} does not read config key {key!r} "
                f"(it reads {', '.join(keys)})"
            )
        try:
            values[key] = keys[key](value)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"{path} line {lineno}: bad value for config key {key!r}: {exc}") from None
    return values


def _resolve_seed(args, file_values: dict) -> int:
    """``--seed``, else the config file's seed, else ``$GNVP_SEED``, else 0."""
    if args.seed is not None:
        return args.seed
    if "seed" in file_values:
        return file_values["seed"]
    env = os.environ.get("GNVP_SEED")
    if not env:
        return 0
    try:
        return _seed_value(env)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"GNVP_SEED {exc}") from None


def _load_dataset(args, spec: GraphSpec) -> list:
    """The ``--dataset`` file, else the bundled corpus for ``--spec``; a file
    with no molecules is a data error."""
    path = Path(args.dataset) if args.dataset else bundled_corpus_path(args.spec)
    dataset = load_dataset(path, spec)
    if not dataset:
        raise DatasetError(f"dataset {path} holds no molecules")
    return dataset


def _inputs(args) -> tuple:
    """``(seed, model, dataset)`` of a subcommand, each None where it has no
    flag for it: the seed first, so usage errors come before the checkpoint's
    errors, and those before the dataset's."""
    spec = _SPECS[args.spec]()
    seed = _resolve_seed(args, _load_config_file(args, _SEED_KEYS)) if hasattr(args, "seed") else None
    model = load_checkpoint(args.checkpoint, spec) if hasattr(args, "checkpoint") else None
    dataset = _load_dataset(args, spec) if hasattr(args, "dataset") else None
    return seed, model, dataset


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _default_temp(args) -> float:
    return _DEFAULT_TEMPS[args.spec] if args.temp is None else args.temp


def _cmd_train(args) -> int:
    file_values = _load_config_file(args, _TRAIN_KEYS)
    spec = _SPECS[args.spec]()
    seed = _resolve_seed(args, file_values)
    # Defaults, then the config file, then the flags.
    values = {"epochs": 200, "batch_size": _DEFAULT_BATCH[args.spec], **file_values, "seed": seed}
    values.update((key, getattr(args, key)) for key in ("epochs", "batch_size") if getattr(args, key) is not None)
    try:
        config = TrainConfig(**values)
    except TrainingError as exc:
        raise _UsageError(str(exc)) from None
    dataset = _load_dataset(args, spec)
    out = _out_dir(args)
    model = FlowModel(spec, seed=seed)

    def show(rec) -> None:
        print(
            f"epoch {rec.epoch}: mean_nll={rec.mean_nll:.6f} sigma={rec.sigma:.6f} seconds={rec.wall_seconds:.3f}",
            flush=True,
        )

    _, records = train(model, dataset, config, checkpoint_dir=out, on_epoch=show)
    write_metrics_csv(records, out / "metrics.csv")
    print(f"wrote {out / 'model.gnvp'} and {out / 'metrics.csv'}")
    return 0


def _cmd_generate(args) -> int:
    seed, model, _ = _inputs(args)
    config = SampleConfig(num_samples=args.samples, temperature=_default_temp(args), seed=seed)
    samples = generate(model, config)
    out = _out_dir(args)
    write_generated_smiles(samples, out / "generated.smi")
    n_valid = sum(1 for s in samples if s.valid)
    print(f"generated {len(samples)} samples ({n_valid} valid) -> {out / 'generated.smi'}")
    return 0


def _cmd_eval(args) -> int:
    seed, model, dataset = _inputs(args)
    config = SampleConfig(num_samples=args.samples, temperature=_default_temp(args), seed=seed)
    samples = generate(model, config)
    report = compute_metrics([s.molecule for s in samples], dataset, model, seed=seed)
    out = _out_dir(args)
    write_csv(
        out / "metrics.csv",
        ["temp", "validity", "novelty", "uniqueness", "reconstruction", "samples", "seed"],
        [_metric_fields(config.temperature, report) + [report.total, seed]],
    )
    print("  %V      %N      %U      %R")
    print(
        f"{report.validity:6.2f}  {report.novelty:6.2f}  "
        f"{report.uniqueness:6.2f}  {report.reconstruction:6.2f}"
    )
    return 0


def _cmd_encode(args) -> int:
    _, model, dataset = _inputs(args)
    latents = encode_dataset(model, dataset)
    out = _out_dir(args)
    write_csv(
        out / "latents.csv",
        ["index"] + [f"z{k}" for k in range(latents.shape[1])],
        ([idx] + [f"{v:.12g}" for v in row] for idx, row in enumerate(latents)),
    )
    print(f"encoded {latents.shape[0]} molecules -> {out / 'latents.csv'}")
    return 0


def _cmd_grid(args) -> int:
    seed, model, dataset = _inputs(args)
    rng = make_rng(seed)
    center = dataset[int(rng.integers(len(dataset)))]
    axis_u, axis_v = random_grid_axes(model.spec.latent_dim, rng)
    grid = GridSpec(center=center, axis_u=axis_u, axis_v=axis_v, extent=args.steps, step=args.step_size)
    cells = grid_decode(model, grid)
    out = _out_dir(args)
    write_grid_csv(cells, out / "grid.csv")
    print(f"decoded {(2 * args.steps + 1) ** 2} grid points -> {out / 'grid.csv'}")
    return 0


def _cmd_optimize(args) -> int:
    seed, model, dataset = _inputs(args)
    regressor = fit_regressor(model, dataset, args.property)
    rng = make_rng(seed)
    seed_graph = dataset[int(rng.integers(len(dataset)))]
    steps = optimize_along(model, regressor, seed_graph, args.steps, args.step_size)
    out = _out_dir(args)
    write_optimization_csv(steps, out / "optimize.csv")
    ridge_note = " (ridge fallback)" if regressor.used_ridge else ""
    print(
        f"{args.property}: R^2={regressor.r_squared:.4f}{ridge_note}; "
        f"trace -> {out / 'optimize.csv'}"
    )
    return 0


def _cmd_sweep(args) -> int:
    try:
        temps = [float(t) for t in args.temps.split(",") if t.strip()]
    except ValueError:
        raise _UsageError(f"--temps must be comma-separated numbers, got {args.temps!r}")
    if not temps:
        raise _UsageError(f"--temps needs at least one temperature, got {args.temps!r}")
    if not all(math.isfinite(t) and t > 0 for t in temps):
        raise _UsageError(f"--temps must be finite numbers > 0, got {args.temps!r}")
    seed, model, dataset = _inputs(args)
    config = SampleConfig(num_samples=args.samples, temperature=max(temps), seed=seed)
    rows = temperature_sweep(model, dataset, temps, config)
    out = _out_dir(args)
    write_sweep_csv(rows, out / "sweep.csv")
    print(f"swept {len(temps)} temperatures x {rows[0].seed_count} seeds -> {out / 'sweep.csv'}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "encode": _cmd_encode,
    "grid": _cmd_grid,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"gnvp:error:usage: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except _DATA_ERRORS as exc:
        print(f"gnvp:error:data: {exc}", file=sys.stderr)
        return DATA_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"gnvp:error:numeric: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except GnvpError as exc:
        print(f"gnvp:error:data: {exc}", file=sys.stderr)
        return DATA_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
