"""The benchmark's paths run against the package: ``perfbench/fixture.py``
trains and saves infer-qm9's checkpoint, and ``perfbench/worker.py`` runs one
op of each workload after its warm-up op, in child processes as
``perfbench/run.py`` starts them, and each workload once more with
``--trace 1``.
``tests/test_trace_contract.py`` covers the names the tracer wraps; this
covers the calls the workloads make themselves."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _run(script: str, *args: str) -> dict:
    """Run a perfbench script with the package on its path; its last stdout
    line, parsed, once the process has exited 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / script), *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    """A directory holding infer-qm9's fixture checkpoint, built once."""
    out = tmp_path_factory.mktemp("bench")
    result = _run("fixture.py", "--out", str(out / "fixture.gnvp"))
    assert result["error"] is None and len(result["mean_nll"]) == 3
    return out


@pytest.mark.parametrize("workload", ["train-qm9", "infer-qm9"])
def test_worker_runs_one_untraced_op(bench_dir, workload):
    args = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    args += ["--t0", repr(time.monotonic()), "--out-dir", str(bench_dir)]
    if workload == "infer-qm9":
        args += ["--fixture", str(bench_dir / "fixture.gnvp")]
    result = _run("worker.py", *args)
    assert (result["failed"], result["errors"]) == (0, [])
    assert result["attempted"] == 2 and len(result["ops"]) == 1  # the warm-up op, then one timed op


def test_worker_runs_one_traced_op(tmp_path):
    """``--trace 1`` runs the warm-up op twice, then one untraced and one
    traced op, and records both."""
    args = ["--workload", "train-qm9", "--seed", "0", "--seconds", "0", "--trace", "1"]
    result = _run("worker.py", *args, "--t0", repr(time.monotonic()), "--out-dir", str(tmp_path))
    assert (result["failed"], result["errors"]) == (0, [])
    assert result["attempted"] == 4 and len(result["ops"]) == 2
    trace = result["trace"]
    assert len(trace["untraced_ops"]) == 1 and len(trace["traced_ops"]) == 1
    assert trace["ops"]["train.adam_step"]["calls"] > 0 and trace["tape_records"] > 0
    assert (tmp_path / "spans-train-qm9.jsonl.gz").exists()


def test_worker_runs_one_traced_infer_op(bench_dir):
    """A traced infer-qm9 op checks every decoded molecule's valences once,
    so the wrapped ``check_validity`` runs at least once per generated sample."""
    args = ["--workload", "infer-qm9", "--seed", "0", "--seconds", "0", "--trace", "1"]
    args += ["--t0", repr(time.monotonic()), "--out-dir", str(bench_dir), "--fixture", str(bench_dir / "fixture.gnvp")]
    result = _run("worker.py", *args)
    assert (result["failed"], result["errors"]) == (0, [])
    trace = result["trace"]
    assert len(trace["traced_ops"]) == 1 and trace["generated"] > 0
    assert trace["ops"]["chem.check_validity"]["calls"] >= trace["generated"]
