"""Every writer replaces its target atomically: a write that fails partway
leaves the previous file byte-for-byte and no temporary file behind."""
import os
import stat

import pytest

import graphnvp.flow
from conftest import TOY_CONFIG, TOY_SPEC
from graphnvp.chem import parse_smiles_lite
from graphnvp.flow import FlowModel, save_checkpoint
from graphnvp.latent import GridCell, OptimizationStep, write_grid_csv, write_optimization_csv
from graphnvp.sampling import SampleConfig, SweepRow, generate, write_generated_smiles, write_sweep_csv
from graphnvp.tensor import Tensor
from graphnvp.train import EpochRecord, TrainState, save_train_state, write_metrics_csv


def _checkpoint(path, version):
    model = FlowModel(TOY_SPEC, TOY_CONFIG, seed=version)
    model.prior.set_parameter("log_sigma", Tensor(0.1 * version))
    save_checkpoint(model, path)


def _metrics(path, version):
    write_metrics_csv([EpochRecord(1, 10.0 + version, 1.0, 0.5)], path)


def _smiles(path, version):
    model = FlowModel(TOY_SPEC, TOY_CONFIG, seed=0)
    write_generated_smiles(generate(model, SampleConfig(num_samples=3 + version, seed=version)), path)


def _sweep(path, version):
    write_sweep_csv([SweepRow(0.5, 90.0 + version, 50.0, 40.0, 100.0, 5)], path)


def _grid(path, version):
    molecule = parse_smiles_lite("C" * (1 + version))
    write_grid_csv([[GridCell(0, 0, molecule, True)]], path)


def _optimization(path, version):
    molecule = parse_smiles_lite("CO")
    write_optimization_csv([OptimizationStep(0, molecule, True, 1.5 + version, None)], path)


def _train_state(path, version):
    model = FlowModel(TOY_SPEC, TOY_CONFIG, seed=version)
    save_train_state(path, TrainState.fresh(model), model)


WRITERS = [_checkpoint, _metrics, _smiles, _sweep, _grid, _optimization, _train_state]


@pytest.mark.parametrize("write", WRITERS, ids=[w.__name__[1:] for w in WRITERS])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.file"
    write(path, 0)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(graphnvp.flow.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        write(path, 1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.file"]

    monkeypatch.undo()
    write(path, 1)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["out.file"]


def test_writer_error_midway_keeps_previous_file(tmp_path):
    path = tmp_path / "sweep.csv"
    good = [SweepRow(0.5, 90.0, 50.0, 40.0, 100.0, 5)]
    write_sweep_csv(good, path)
    before = path.read_bytes()
    bad = good + [SweepRow("hot", 1.0, 1.0, 1.0, 1.0, 5)]  # fails after the first rows are written
    with pytest.raises(ValueError):
        write_sweep_csv(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]



def test_write_syncs_file_then_directory(tmp_path, monkeypatch):
    synced = []
    original = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        original(fd)

    monkeypatch.setattr(graphnvp.flow.os, "fsync", recording_fsync)
    _checkpoint(tmp_path / "model.gnvp", 0)
    assert synced == [False, True]
