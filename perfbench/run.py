"""graphnvp benchmark: one command, one workload per single-threaded process.

    python3 perfbench/run.py --workload train-qm9 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in a child process that pins
OPENBLAS/OMP/MKL_NUM_THREADS to 1 before numpy loads and drives the public
calls the ``gnvp`` subcommands make, in a closed loop with one client.

Workloads (why each was chosen is in ``WORKLOADS``):

* ``train-qm9``  one op = one qm9lite epoch of ``train()`` at batch 64,
  resumed from the previous epoch's ``TrainState``;
* ``infer-qm9``  one op = eval + encode + optimize + sweep with a 3-epoch
  qm9lite checkpoint that an untimed prepare step trains with the code under
  test and caches under ``.bench_build/``;
* ``train-zinc`` (unlisted, run on request) the train-qm9 op on zinclite
  (60M parameters) at batch 32.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` runs from process
start to ready (imports, corpus, model or checkpoint, one untimed warm-up op)
and is the median of three set-ups in fresh processes.  ``--trace 1`` first
runs half the time untraced, then half traced with span wrappers around every
library boundary (see ``tracing.py``), and reports per-layer metrics per
traced op plus the tracing overhead.

Run workloads one after another and never alongside the test suite:
train-zinc alone peaks near 6 GB.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
earlier lines hold the environment and every other figure by name and unit.
Every op's output is checked outside the timed region; an op that raises or
fails its check counts in ``failed``.  Exits non-zero without a result when
the checkout has no ``src/graphnvp``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import BOUNDARIES, TENSOR_OPS

BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
RUN_SECONDS = 30
DEADLINE_S = 175.0  # a run must end within 180 s
FIXTURE_TIMEOUT_S = 600.0

WORKLOADS = {
    "train-qm9": "qm9lite epochs: tape and per-op overhead on small tensors, node-feature stack heaviest",
    "infer-qm9": "eval, encode, optimize, sweep on a trained checkpoint: inverse path and chemistry, no tape",
}
# Run on request only, not listed in BENCHMARK.json: with three set-ups per
# run it needs about 50 s and peaks near 6 GB, so ten-run sets of it do not
# fit the suite's time budget on an 8 GB machine shared with other jobs.
UNLISTED_WORKLOADS = {
    "train-zinc": "zinclite epochs: 60M parameters, large GEMMs, Adam parameter rebuild and peak memory",
}

# On a shared 2-core VM, op times drift by 10-20% between runs a minute
# apart whatever the run length, so the time bounds are wide and each run
# measures 30 s to take the median of several ops.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "graphs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Per-layer times listed in BENCHMARK.json are those of layers every workload
# runs; a layer one workload never enters would read exactly 0 s on every
# run there.  Its time is still printed on the info line, and its call count
# (which may be 0) is listed.
COMMON_TIMES = [
    *(f"tensor.forward.{op}_s" for op in (
        "add", "sub", "mul", "matmul", "exp", "tanh", "relu", "power", "sum_axis",
        "concat", "slice_axis", "index_axis", "masked_assign", "reshape",
    )),
    "nets.rgcn_s", "nets.mlp_s", "nets.batchnorm_s",
    "flow.node_forward_s", "flow.adj_forward_s", "flow.forward_batch_s",
    "chem.load_dataset_s",
    "self.tensor_s", "self.nets_s", "self.flow_s",
]


def per_layer_spec() -> list[dict]:
    times = [{"name": n, "unit": "s", "better": "lower"} for n in COMMON_TIMES]
    counts = [{"name": "tensor.tape_records", "unit": "count", "better": "lower"}]
    counts += [{"name": f"{b}.calls", "unit": "count", "better": "lower"} for b in BOUNDARIES]
    counts += [{"name": f"tensor.backward.{op}.calls", "unit": "count", "better": "lower"} for op in TENSOR_OPS]
    extra = [
        {"name": "sampling.valid_fraction", "unit": "fraction", "better": "higher"},
        {"name": "sampling.generated", "unit": "count", "better": "higher"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
    ]
    return times + counts + extra


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_spec(),
    }


class BenchError(Exception):
    pass


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "graphnvp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Children:
    """Starts benchmark child processes one at a time, within one deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, script: str, args: list[str], timeout: float | None = None) -> dict:
        """Run a child to completion and return its last stdout line as JSON."""
        if timeout is None:
            timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left to start {script}")
        t0 = time.monotonic()
        cmd = [sys.executable, str(BENCH_DIR / script), *args]
        if script == "worker.py":
            cmd += ["--t0", repr(t0)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{script} {' '.join(args)} did not finish within {timeout:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"{script} {' '.join(args)} exited with code {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{script} printed no result")
        return json.loads(lines[-1])


def prepare_fixture(children: Children, out_dir: Path) -> tuple[Path, dict]:
    """Train (once per source tree) the checkpoint infer-qm9 loads."""
    key = source_digest(children.root)[:16]
    path = out_dir / f"fixture-{key}.gnvp"
    meta_path = out_dir / f"fixture-{key}.json"
    if not (path.exists() and meta_path.exists()):
        tmp = out_dir / f"fixture-{key}.tmp.gnvp"
        meta = children.run("fixture.py", ["--out", str(tmp)], timeout=FIXTURE_TIMEOUT_S)
        os.replace(tmp, path)
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return path, json.loads(meta_path.read_text(encoding="utf-8"))


def environment(root: Path, worker_env: dict) -> dict:
    commit = None
    if (root / ".git").exists():  # benchmark checkouts are usually not git repositories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": source_digest(root),
        **worker_env,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_totals(ops: list[dict]) -> list[float]:
    return [sum(op.values()) for op in ops]


def end_to_end(result: dict, setups: list[float], workload: str) -> tuple[dict, dict]:
    """Returns (BENCHMARK.json end-to-end metrics, every other figure)."""
    totals = op_totals(result["ops"])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_s.p50": metric(statistics.median(totals), "s"),
        "graphs_per_s": metric(result["items"] / sum(totals), "1/s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }
    info = {
        "error_rate": metric(result["failed"] / result["attempted"], "fraction"),
        "ops": metric(len(totals), "count"),
        "op_s.samples": metric(totals, "s"),
        "setup_s.samples": metric(setups, "s"),
    }
    if workload in ("train-qm9", "train-zinc"):
        info["train_graphs_per_s"] = metrics["graphs_per_s"]
        info["train_epoch_s.p50"] = metrics["op_s.p50"]
    else:
        for kind in ("eval", "encode", "optimize", "sweep"):
            info[f"{kind}_s.p50"] = metric(statistics.median(op[kind] for op in result["ops"]), "s")
    return metrics, info


# Boundaries that run only while setting up; reported per set-up, not per op.
SETUP_BOUNDARIES = ("chem.load_dataset", "flow.load_checkpoint")


def per_layer(result: dict) -> dict:
    """Every per-layer figure, per traced op (set-up boundaries per set-up)."""
    trace = result["trace"]
    n = len(trace["traced_ops"])
    ops, setup = trace["ops"], trace["setup"]
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}
    names = list(BOUNDARIES) + [f"tensor.backward.{op}" for op in TENSOR_OPS]
    for name in names:
        if name in SETUP_BOUNDARIES:
            row, per = setup.get(name, zero), 1
        else:
            row, per = ops.get(name, zero), n
        out[f"{name}_s"] = metric(row["busy_s"] / per, "s")
        out[f"{name}.self_s"] = metric(row["self_s"] / per, "s")
        out[f"{name}.calls"] = metric(row["calls"] / per, "count")
    for module in sorted({name.split(".")[0] for name in BOUNDARIES}):
        self_s = sum(row["self_s"] for name, row in ops.items() if name.split(".")[0] == module)
        out[f"self.{module}_s"] = metric(self_s / n, "s")
    steps = ops.get("tensor.backward", zero)["calls"]
    out["tensor.tape_records"] = metric(trace["tape_records"] / steps if steps else 0, "count")
    generated = trace["generated"]
    out["sampling.generated"] = metric(generated / n, "count")
    out["sampling.valid_fraction"] = metric(trace["generated_valid"] / generated if generated else 0.0, "fraction")
    untraced = statistics.median(op_totals(trace["untraced_ops"]))
    traced = statistics.median(op_totals(trace["traced_ops"]))
    out["trace.overhead_ratio"] = metric(traced / untraced, "ratio")
    out["trace.untraced_op_s.p50"] = metric(untraced, "s")
    out["trace.traced_op_s.p50"] = metric(traced, "s")
    return out


def run(args, root: Path) -> tuple[dict, dict, dict]:
    children = Children(root, time.monotonic() + DEADLINE_S)
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", str(out_dir)]
    extra_failed = 0
    fixture_info = None
    if args.workload == "infer-qm9":
        fixture, fixture_info = prepare_fixture(children, out_dir)
        # the deadline covers the measured run, not the one-off fixture training
        children.deadline = time.monotonic() + DEADLINE_S
        common += ["--fixture", str(fixture)]
        extra_failed = 1 if fixture_info["error"] else 0

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(children.run("worker.py", common + ["--seconds", "0", "--setup-only"])["setup_s"])
    result = children.run(
        "worker.py", common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    setups.append(result["setup_s"])

    phases = [result["trace"]["untraced_ops"], result["trace"]["traced_ops"]] if args.trace else [result["ops"]]
    if not all(phases):
        raise BenchError(f"no measured op succeeded: {result['errors']}")
    if args.trace:
        layer = per_layer(result)
        listed = {m["name"] for m in per_layer_spec()}
        metrics = {k: v for k, v in layer.items() if k in listed}
        info = layer
    else:
        metrics, info = end_to_end(result, setups, args.workload)
    if fixture_info is not None:
        info["fixture"] = fixture_info
    if result["errors"] or extra_failed:
        info["errors"] = result["errors"] + ([fixture_info["error"]] if extra_failed else [])
    attempted = result["attempted"] + extra_failed
    failed = result["failed"] + extra_failed
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return environment(root, result["env"]), info, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS | UNLISTED_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true", help="write BENCHMARK.json to the current directory and exit")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if args.write_benchmark_json:
        (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (root / "src" / "graphnvp" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/graphnvp; run from the root of a source checkout", file=sys.stderr)
        return 2
    try:
        env, info, summary = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
