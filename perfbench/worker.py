"""One benchmark workload, run in its own single-threaded process.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
BLAS thread variables are pinned before numpy is imported.  The workload
drives only the public calls the ``gnvp`` subcommands make, in a closed loop
with one client: each op starts when the previous one has finished.

    python3 perfbench/worker.py --workload train-qm9 --seed 0 --seconds 10 --trace 0 --t0 <monotonic>
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import graphnvp as g  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference_nll.json"

# Loose enough for a change of summation order (a 1- vs 2-thread BLAS run
# differs near 1e-16 relative), tight enough to catch any change of objective.
NLL_RTOL = 1e-6

TRAIN_WORKLOADS = {"train-qm9": ("qm9lite", 64), "train-zinc": ("zinclite", 32)}

# infer-qm9 sizes.  The corpus is every 4th qm9lite graph (64 of 256) so that
# one sweep (15 reconstruction passes over it) fits a run; it does not depend
# on the seed, which would change the amount of work from run to run.  Eval
# and the sweep temperatures follow the CLI defaults.
INFER_CORPUS_STRIDE = 4
EVAL_SAMPLES = 1000
EVAL_TEMP = 0.85
SWEEP_TEMPS = (0.3, 0.6, 0.9)
SWEEP_RUNS = 5  # temperature_sweep's default, as the CLI uses it
SWEEP_SAMPLES = 100
OPT_PROPERTY = "logp_proxy"
OPT_STEPS = 10
OPT_STEP_SIZE = 0.5

# infer-qm9's fixture: trained by the code under test, checked like train-qm9.
FIXTURE_EPOCHS = 3
FIXTURE_BATCH = 64
FIXTURE_SEED = 0


class CheckFailed(Exception):
    pass


def load_reference(spec_name: str) -> dict[int, list[float]]:
    """Per-seed, per-epoch mean NLL recorded by ``make_reference.py``."""
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[spec_name]
    return {int(seed): values for seed, values in table["mean_nll"].items()}


def check_nll(value: float, expected: float, what: str) -> None:
    if not math.isfinite(value):
        raise CheckFailed(f"{what}: mean_nll is {value}")
    if abs(value - expected) > NLL_RTOL * abs(expected):
        raise CheckFailed(f"{what}: mean_nll {value!r} != reference {expected!r}")


def train_one_epoch(model, dataset, seed: int, batch_size: int, state):
    """One epoch of ``train()``, resumed from ``state`` (None for epoch 1)."""
    epoch = 0 if state is None else state.epoch
    config = g.TrainConfig(epochs=epoch + 1, batch_size=batch_size, seed=seed)
    return g.train(model, dataset, config, resume_state=state)


def spec_for(name: str):
    return {"qm9lite": g.qm9lite_spec, "zinclite": g.zinclite_spec}[name]()


class TrainWorkload:
    """One op is one epoch of ``train()`` resumed from the previous epoch.

    The model restarts from ``FlowModel(seed)`` once the trajectory reaches the
    last epoch recorded in the reference table, so every epoch is checked.
    """

    def __init__(self, name: str, seed: int):
        spec_name, self.batch_size = TRAIN_WORKLOADS[name]
        reference = load_reference(spec_name)
        self.model_seed = sorted(reference)[seed % len(reference)]
        self.reference = reference[self.model_seed]
        self.spec = spec_for(spec_name)
        self.dataset = g.load_dataset(g.bundled_corpus_path(spec_name), self.spec)
        self._restart()

    def _restart(self) -> None:
        self.model = g.FlowModel(self.spec, seed=self.model_seed)
        self.state = None

    def next_op(self):
        if self.state is not None and self.state.epoch == len(self.reference):
            self._restart()
        return [("train", self._epoch, len(self.dataset), self._check)]

    warm_up_op = next_op

    def _epoch(self):
        self.state, records = train_one_epoch(
            self.model, self.dataset, self.model_seed, self.batch_size, self.state
        )
        return records

    def _check(self, records) -> None:
        if len(records) != 1:
            raise CheckFailed(f"expected one epoch record, got {len(records)}")
        rec = records[0]
        check_nll(rec.mean_nll, self.reference[rec.epoch - 1], f"epoch {rec.epoch}")


class InferWorkload:
    """One op is one pass of eval, encode, optimize and sweep, each timed."""

    def __init__(self, seed: int, fixture: Path, out_dir: Path):
        self.seed = seed
        self.spec = g.qm9lite_spec()
        corpus = g.load_dataset(g.bundled_corpus_path("qm9lite"), self.spec)
        self.dataset = corpus[::INFER_CORPUS_STRIDE]
        self.opt_graph = self.dataset[seed % len(self.dataset)]
        self.model = g.load_checkpoint(fixture, self.spec)
        self.smiles_path = out_dir / "generated.smi"
        self.iteration = 0

    def next_op(self):
        sample_seed = self.seed * 1000 + self.iteration
        self.iteration += 1
        n = len(self.dataset)
        sweep_graphs = len(SWEEP_TEMPS) * SWEEP_RUNS * (SWEEP_SAMPLES + 2 * n)
        return [
            ("eval", lambda: self._eval(sample_seed), EVAL_SAMPLES + 2 * n, self._check_eval),
            ("encode", self._encode, n, self._check_encode),
            ("optimize", self._optimize, n + 1 + OPT_STEPS + 1, self._check_optimize),
            ("sweep", lambda: self._sweep(sample_seed), sweep_graphs, self._check_sweep),
        ]

    def warm_up_op(self):
        """Only eval: it runs every layer the other three kinds use."""
        return self.next_op()[:1]

    def _eval(self, seed: int):
        config = g.SampleConfig(num_samples=EVAL_SAMPLES, temperature=EVAL_TEMP, seed=seed)
        samples = g.generate(self.model, config)
        report = g.compute_metrics([s.molecule for s in samples], self.dataset, self.model, seed=seed)
        g.sampling.write_generated_smiles(samples, self.smiles_path)
        return samples, report

    def _check_eval(self, result) -> None:
        samples, report = result
        if len(samples) != EVAL_SAMPLES or report.total != EVAL_SAMPLES:
            raise CheckFailed(f"eval: {len(samples)} samples, report total {report.total}")
        if report.reconstructed_count != len(self.dataset):
            raise CheckFailed(f"eval: reconstruction {report.reconstruction}% is not exact")
        lines = self.smiles_path.read_text(encoding="utf-8").splitlines()
        if len(lines) != EVAL_SAMPLES:
            raise CheckFailed(f"eval: wrote {len(lines)} SMILES lines")

    def _encode(self):
        return g.latent.encode_dataset(self.model, self.dataset)

    def _check_encode(self, latents) -> None:
        if latents.shape != (len(self.dataset), self.spec.latent_dim):
            raise CheckFailed(f"encode: latent shape {latents.shape}")
        adjacency, features = self.model.inverse_batch(latents)
        for i, graph in enumerate(self.dataset):
            if not (
                np.array_equal(np.floor(adjacency[i]), graph.adjacency)
                and np.array_equal(np.floor(features[i]), graph.features)
            ):
                raise CheckFailed(f"encode: latent {i} does not decode to its graph")

    def _optimize(self):
        regressor = g.fit_regressor(self.model, self.dataset, OPT_PROPERTY)
        steps = g.optimize_along(self.model, regressor, self.opt_graph, OPT_STEPS, OPT_STEP_SIZE)
        return regressor, steps

    def _check_optimize(self, result) -> None:
        regressor, steps = result
        if len(steps) != OPT_STEPS + 1:
            raise CheckFailed(f"optimize: {len(steps)} rows for {OPT_STEPS} steps")
        if not math.isfinite(regressor.r_squared):
            raise CheckFailed(f"optimize: R^2 is {regressor.r_squared}")

    def _sweep(self, seed: int):
        config = g.SampleConfig(num_samples=SWEEP_SAMPLES, temperature=max(SWEEP_TEMPS), seed=seed)
        return g.temperature_sweep(self.model, self.dataset, list(SWEEP_TEMPS), config)

    def _check_sweep(self, rows) -> None:
        if [row.temp for row in rows] != sorted(SWEEP_TEMPS):
            raise CheckFailed(f"sweep: temperatures {[row.temp for row in rows]}")
        for row in rows:
            if row.seed_count != SWEEP_RUNS:
                raise CheckFailed(f"sweep: {row.seed_count} seeds at T={row.temp}")
            if row.reconstruction != 100.0:
                raise CheckFailed(f"sweep: reconstruction {row.reconstruction}% at T={row.temp}")


class Runner:
    """Runs ops, times each step, checks outputs outside the timed region."""

    def __init__(self, workload, tracer: Tracer | None):
        self.workload = workload
        self.tracer = tracer
        self.ops: list[dict[str, float]] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_op(self, steps, traced: bool, record: bool) -> None:
        self.attempted += 1
        times: dict[str, float] = {}
        items_done = 0
        ok = True
        for kind, run, items, check in steps:
            if traced:
                self.tracer.install()
            try:
                start = time.perf_counter()
                result = run()
                times[kind] = time.perf_counter() - start
            except Exception as exc:  # an op that raises counts as failed
                ok = False
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced:
                    self.tracer.uninstall()
            try:
                check(result)
            except CheckFailed as exc:
                ok = False
                self.errors.append(str(exc))
            items_done += items
        if not ok:
            self.failed += 1
        elif record:
            self.ops.append(times)
            self.items += items_done

    def loop(self, seconds: float, traced: bool) -> list[dict[str, float]]:
        """Closed loop for ``seconds`` (at least one op); returns its op timings."""
        first = len(self.ops)
        start = time.perf_counter()
        while True:
            if traced:
                self.tracer.op_id += 1
            self.run_op(self.workload.next_op(), traced, record=True)
            if time.perf_counter() - start >= seconds:
                return self.ops[first:]


def build_workload(args):
    if args.workload in TRAIN_WORKLOADS:
        return TrainWorkload(args.workload, args.seed)
    if args.workload == "infer-qm9":
        return InferWorkload(args.seed, Path(args.fixture), Path(args.out_dir))
    raise SystemExit(f"unknown workload {args.workload!r}")


def warm_up(runner: Runner) -> None:
    runner.run_op(runner.workload.warm_up_op(), traced=False, record=False)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fixture", default=None)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = build_workload(args)
    runner = Runner(workload, tracer)
    if tracer:
        tracer.uninstall()
    warm_up(runner)
    ready = time.monotonic()
    result = {"setup_s": ready - args.t0}
    if tracer:
        # Spans so far are the traced set-up.  A second untimed op lets the
        # heap reach its steady size (a zinclite epoch has only two steps), so
        # the untraced and traced phases compare like with like.
        setup_end = len(tracer.spans)
        warm_up(runner)
        untraced = runner.loop(args.seconds / 2, traced=False)
        ops_start = len(tracer.spans)
        traced = runner.loop(args.seconds / 2, traced=True)
        result["trace"] = {
            "setup": tracer.summary(0, setup_end),
            "ops": tracer.summary(ops_start),
            "untraced_ops": untraced,
            "traced_ops": traced,
            "tape_records": tracer.tape_records,
            "generated": tracer.generated,
            "generated_valid": tracer.generated_valid,
        }
        tracer.write(Path(args.out_dir) / f"spans-{args.workload}.jsonl.gz")
    elif not args.setup_only:
        runner.loop(args.seconds, traced=False)
    result.update(
        ops=runner.ops,
        items=runner.items,
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
