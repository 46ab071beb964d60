"""The ``gnvp`` workflows reproduce the outputs recorded by
``scripts/make_golden.py`` bit for bit: every artifact's sha256, the sha256
of the raw float64 arrays ``inverse_batch`` and ``encode_dataset`` return,
and the epoch NLLs.  Generation and encoding also write the same bytes with one BLAS
thread and with two.  The bits depend on the build, so on any build but the
recorded one the tests skip and name both."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from graphnvp.flow import FlowModel
from graphnvp.graphs import qm9lite_spec
from graphnvp.train import TrainConfig, train

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_golden.py"


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden_on_this_build(make_golden) -> dict:
    """The golden file, or a skip naming both builds if it was recorded on
    another one."""
    golden = json.loads(make_golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    here = make_golden.build()
    if here != golden["build"]:
        pytest.skip(f"golden outputs were recorded on {golden['build']}; this build is {here}")
    return golden


def test_workflows_reproduce_the_golden_outputs(tmp_path):
    make_golden = _make_golden()
    golden = _golden_on_this_build(make_golden)
    got = make_golden.record(tmp_path)
    arrays = {"inverse_batch/adjacency", "inverse_batch/features", "encode_dataset/latents"}
    assert arrays <= golden["sha256"].keys()
    assert got["epoch_nll"] == golden["epoch_nll"]
    assert got["sha256"] == golden["sha256"]


def test_generate_and_encode_write_the_same_bytes_at_one_and_two_threads(tmp_path, qm9_corpus):
    """From one checkpoint (qm9lite, 2 epochs at seed 3, batch 64), ``gnvp
    generate --seed 5`` and ``gnvp encode`` run in child processes with
    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
    to 1, then to 2, and write byte-identical files."""
    make_golden = _make_golden()
    _golden_on_this_build(make_golden)
    checkpoint = tmp_path / "model.gnvp"
    train(FlowModel(qm9lite_spec(), seed=3), qm9_corpus, TrainConfig(epochs=2, batch_size=64, seed=3), tmp_path)
    written = {}
    for threads in ("1", "2"):
        env = make_golden._env()
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        for command, args, artifact in (("generate", ["--seed", "5"], "generated.smi"), ("encode", [], "latents.csv")):
            out = tmp_path / f"{command}_{threads}"
            argv = [command, "--checkpoint", str(checkpoint), "--out", str(out), *args]
            subprocess.run([sys.executable, "-m", "graphnvp.cli", *argv], env=env, capture_output=True, check=True)
            written[command, threads] = (out / artifact).read_bytes()
    for command in ("generate", "encode"):
        assert written[command, "1"] == written[command, "2"], command


def test_sweep_writes_the_same_bytes_at_one_and_two_threads(tmp_path, qm9_corpus):
    """From the same checkpoint, ``gnvp sweep --samples 100`` writes a
    byte-identical ``sweep.csv`` with one BLAS thread and with two.  Its five
    runs of 100 at each temperature decode as one batch, and its five
    reconstruction copies of the corpus as two, two and one."""
    make_golden = _make_golden()
    _golden_on_this_build(make_golden)
    checkpoint = tmp_path / "model.gnvp"
    train(FlowModel(qm9lite_spec(), seed=3), qm9_corpus, TrainConfig(epochs=2, batch_size=64, seed=3), tmp_path)
    written = {}
    for threads in ("1", "2"):
        env = make_golden._env()
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        out = tmp_path / f"sweep_{threads}"
        argv = ["sweep", "--checkpoint", str(checkpoint), "--out", str(out), "--samples", "100"]
        subprocess.run([sys.executable, "-m", "graphnvp.cli", *argv], env=env, capture_output=True, check=True)
        written[threads] = (out / "sweep.csv").read_bytes()
    assert written["1"] == written["2"]
