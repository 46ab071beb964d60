"""The ``gnvp`` workflows reproduce the outputs recorded by
``scripts/make_golden.py`` bit for bit: every artifact's sha256, the sha256
of the raw float64 arrays ``inverse_batch`` and ``encode_dataset`` return,
and the epoch NLLs.  Generation, encoding and the sweep also write the same
bytes with one BLAS thread and with two.  The bits depend on the build, so
on any build but the recorded one the tests skip and name both."""
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


@pytest.fixture(scope="module")
def thread_checkpoint(tmp_path_factory, qm9_corpus):
    """The checkpoint both thread tests run from (qm9lite, 2 epochs at seed 3,
    batch 64), trained once for the module."""
    _golden_on_this_build(_make_golden())
    out = tmp_path_factory.mktemp("thread_checkpoint")
    train(FlowModel(qm9lite_spec(), seed=3), qm9_corpus, TrainConfig(epochs=2, batch_size=64, seed=3), out)
    return out / "model.gnvp"


def _written_at_one_and_two_threads(tmp_path, checkpoint, commands) -> dict:
    """Run each ``(command, args, artifact)`` in a child process with
    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
    to 1, then to 2, and return the artifact's bytes by command and count."""
    make_golden = _make_golden()
    written = {}
    for threads in ("1", "2"):
        env = make_golden._env()
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        for command, args, artifact in commands:
            out = tmp_path / f"{command}_{threads}"
            argv = [command, "--checkpoint", str(checkpoint), "--out", str(out), *args]
            subprocess.run([sys.executable, "-m", "graphnvp.cli", *argv], env=env, capture_output=True, check=True)
            written[command, threads] = (out / artifact).read_bytes()
    return written


def test_generate_and_encode_write_the_same_bytes_at_one_and_two_threads(tmp_path, thread_checkpoint):
    """From the module's checkpoint, ``gnvp generate --seed 5`` and ``gnvp
    encode`` write byte-identical files with one BLAS thread and with two."""
    commands = (("generate", ["--seed", "5"], "generated.smi"), ("encode", [], "latents.csv"))
    written = _written_at_one_and_two_threads(tmp_path, thread_checkpoint, commands)
    for command in ("generate", "encode"):
        assert written[command, "1"] == written[command, "2"], command


def test_sweep_writes_the_same_bytes_at_one_and_two_threads(tmp_path, thread_checkpoint):
    """From the same checkpoint, ``gnvp sweep --samples 100`` writes a
    byte-identical ``sweep.csv`` with one BLAS thread and with two.  Its five
    runs of 100 at each temperature decode as one batch, and its five
    reconstruction copies of the corpus as two, two and one."""
    written = _written_at_one_and_two_threads(tmp_path, thread_checkpoint, (("sweep", ["--samples", "100"], "sweep.csv"),))
    assert written["sweep", "1"] == written["sweep", "2"]
