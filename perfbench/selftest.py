"""Self-test of the benchmark's tracing: a missed boundary reads as missing, not as 0 s.

1. Installs the tracer in-process and asserts that no graphnvp namespace
   still holds an unwrapped boundary function, then that uninstalling
   restores every original.
2. Runs each workload briefly with ``--trace 1`` and asserts that every
   boundary the workload passes through recorded at least one span, and
   that together the workloads cover every boundary.

    python3 perfbench/selftest.py        # from the root of a source checkout
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from tracing import BOUNDARIES, FUNCTIONS, METHODS, TENSOR_OPS, Tracer  # noqa: E402

# The model never calls tensor.log, so no workload reaches it.
UNUSED = {"tensor.forward.log", "tensor.backward.log"}
FORWARD = {f"tensor.forward.{op}" for op in TENSOR_OPS} - UNUSED
BACKWARD = {f"tensor.backward.{op}" for op in TENSOR_OPS} - UNUSED
TRAIN = (
    FORWARD | BACKWARD
    | {"tensor.backward", "nets.rgcn", "nets.mlp", "nets.batchnorm", "nets.load_parameters"}
    | {"flow.node_forward", "flow.adj_forward", "flow.forward_batch"}
    | {"train.nll_loss", "train.adam_step", "chem.load_dataset"}
)
INFER = (
    FORWARD - {"tensor.forward.mean_axis"}
    | {"nets.rgcn", "nets.mlp", "nets.batchnorm"}
    | {name for name in BOUNDARIES if name.split(".")[0] in ("flow", "graphs", "chem", "sampling", "latent")}
)
EXPECTED = {"train-qm9": TRAIN, "train-zinc": TRAIN, "infer-qm9": INFER}


def check_installation() -> None:
    import graphnvp  # noqa: F401

    namespaces = {n: m for n, m in sys.modules.items() if n == "graphnvp" or n.startswith("graphnvp.")}
    originals = {id(getattr(sys.modules[mod], attr)): f"{mod}.{attr}" for mod, attr, _ in FUNCTIONS}
    methods = {(mod, cls, attr): getattr(sys.modules[mod], cls).__dict__[attr] for mod, cls, attr, _ in METHODS}
    tracer = Tracer()
    tracer.install()
    try:
        for name, ns in namespaces.items():
            for key, value in vars(ns).items():
                assert id(value) not in originals, f"{name}.{key} still holds {originals[id(value)]}"
        for (mod, cls, attr), original in methods.items():
            assert getattr(sys.modules[mod], cls).__dict__[attr] is not original, f"{cls}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for mod, attr, _ in FUNCTIONS:
        assert id(getattr(sys.modules[mod], attr)) in originals, f"{mod}.{attr} not restored"
    for (mod, cls, attr), original in methods.items():
        assert getattr(sys.modules[mod], cls).__dict__[attr] is original, f"{cls}.{attr} not restored"


def recorded_boundaries(workload: str) -> set[str]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, f"{workload}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"], f"{workload}: an op failed: {lines[-2]}"
    info = json.loads(lines[-2])["info"]
    return {key[: -len(".calls")] for key, m in info.items() if key.endswith(".calls") and m["value"] > 0}


def main() -> int:
    check_installation()
    print("installation: every binding wrapped and restored")
    seen: set[str] = set()
    for workload, expected in EXPECTED.items():
        recorded = recorded_boundaries(workload)
        missing = expected - recorded
        assert not missing, f"{workload}: no span for {sorted(missing)}"
        seen |= recorded
        print(f"{workload}: {len(recorded)} boundaries recorded spans")
    uncovered = set(BOUNDARIES) - UNUSED - seen
    assert not uncovered, f"no workload recorded {sorted(uncovered)}"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
