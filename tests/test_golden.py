"""The ``gnvp`` workflows reproduce the outputs recorded by
``scripts/make_golden.py`` bit for bit: every artifact's sha256 and the epoch
NLLs.  The bits depend on the build, so on any build but the recorded one the
test skips and names both."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_golden.py"


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workflows_reproduce_the_golden_outputs(tmp_path):
    make_golden = _make_golden()
    golden = json.loads(make_golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    here = make_golden.build()
    if here != golden["build"]:
        pytest.skip(f"golden outputs were recorded on {golden['build']}; this build is {here}")
    got = make_golden.record(tmp_path)
    assert got["epoch_nll"] == golden["epoch_nll"]
    assert got["sha256"] == golden["sha256"]
