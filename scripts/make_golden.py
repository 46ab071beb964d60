#!/usr/bin/env python3
"""Record the outputs of the ``gnvp`` workflows in ``tests/data/golden.json``.

Trains a qm9lite model with ``gnvp train --epochs 2 --seed 3 --batch-size 64``,
then runs ``generate``, ``eval``, ``encode``, ``grid``, ``optimize`` and a
small ``sweep`` from that checkpoint.  Each subcommand runs in a child
process with one BLAS thread, since the bits of a GEMM depend on the thread
count.  The artifacts are text, rounded or discrete, so a last-bit change in
eval would not show in them; a further child, also with one BLAS thread,
records the raw float64 bytes of ``inverse_batch`` on 1,000 latents drawn at
T = 0.85 and of ``encode_dataset`` on the bundled corpus, from the same
checkpoint.  The file holds the sha256 of every artifact and array, the epoch
NLLs as ``repr`` strings, and the build they were made on: the same code
gives other bits on another Python, numpy, BLAS or CPU, so
``tests/test_golden.py`` compares only on the recorded build.

    python3 scripts/make_golden.py
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "data" / "golden.json"

SEED = "3"
# (subcommand, arguments after --out, artifacts it writes)
WORKFLOWS = [
    ("train", ["--epochs", "2", "--seed", SEED, "--batch-size", "64"], ["model.gnvp", "metrics.csv"]),
    ("generate", ["--checkpoint", "{model}", "--seed", SEED], ["generated.smi"]),
    ("eval", ["--checkpoint", "{model}", "--seed", SEED], ["metrics.csv"]),
    ("encode", ["--checkpoint", "{model}"], ["latents.csv"]),
    ("grid", ["--checkpoint", "{model}", "--seed", SEED], ["grid.csv"]),
    ("optimize", ["--checkpoint", "{model}", "--seed", SEED], ["optimize.csv"]),
    ("sweep", ["--checkpoint", "{model}", "--seed", SEED, "--samples", "100", "--temps", "0.5,0.9"], ["sweep.csv"]),
]

# Runs ``gnvp`` with ``train`` wrapped to print each epoch's mean NLL as a
# ``repr``: the CLI prints six digits and ``metrics.csv`` ten.
_CHILD = """
import json, sys
import graphnvp.cli as cli
real_train = cli.train
def train(*args, **kwargs):
    state, records = real_train(*args, **kwargs)
    print("epoch_nll " + json.dumps([repr(r.mean_nll) for r in records]))
    return state, records
cli.train = train
sys.exit(cli.run(sys.argv[1:]))
"""

# Prints the sha256 of the raw bytes of each continuous eval output: the two
# arrays ``inverse_batch`` returns for ``ARRAY_SAMPLES`` latents drawn at
# ``ARRAY_TEMP`` from seed ``SEED``, and the latents of the bundled corpus.
ARRAY_SAMPLES, ARRAY_TEMP = 1000, 0.85
_ARRAYS_CHILD = """
import hashlib, json, sys
import numpy as np
import graphnvp as g
from graphnvp.sampling import sample_latent_batch
checkpoint, seed, samples, temp = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
spec = g.qm9lite_spec()
model = g.load_checkpoint(checkpoint, spec)
latents = sample_latent_batch(model.prior, temp, g.make_rng(seed), samples)
adjacency, features = model.inverse_batch(latents)
encoded = g.encode_dataset(model, g.load_dataset(g.bundled_corpus_path("qm9lite"), spec))
arrays = {"inverse_batch/adjacency": adjacency, "inverse_batch/features": features,
          "encode_dataset/latents": encoded}
print(json.dumps({k: hashlib.sha256(np.ascontiguousarray(v, dtype=np.float64).tobytes()).hexdigest()
                  for k, v in arrays.items()}))
"""


def build() -> dict:
    """What the bits of the outputs depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": [blas.get("name"), blas.get("version"), blas.get("openblas configuration")],
        "cpu_features": config["SIMD Extensions"]["found"],
    }


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GNVP_SEED"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(work: Path) -> dict:
    """Run every workflow under the directory ``work`` and return what
    ``golden.json`` holds, without the build."""
    env = _env()
    model = work / "train" / "model.gnvp"
    digests, epoch_nll = {}, None
    for command, args, artifacts in WORKFLOWS:
        out = work / command
        argv = [command, "--out", str(out)] + [a.format(model=model) for a in args]
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, *argv], env=env, capture_output=True, text=True, check=False
        )
        if done.returncode != 0:
            raise RuntimeError(f"gnvp {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
        for line in done.stdout.splitlines():
            if line.startswith("epoch_nll "):
                epoch_nll = json.loads(line.partition(" ")[2])
        for name in artifacts:
            digests[f"{command}/{name}"] = _sha256(out / name)
    argv = [str(model), SEED, str(ARRAY_SAMPLES), str(ARRAY_TEMP)]
    done = subprocess.run(
        [sys.executable, "-c", _ARRAYS_CHILD, *argv], env=env, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"eval array digests exited {done.returncode}: {done.stderr.strip()}")
    digests.update(json.loads(done.stdout))
    return {"sha256": digests, "epoch_nll": epoch_nll}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        golden = {"build": build(), **record(Path(work))}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
