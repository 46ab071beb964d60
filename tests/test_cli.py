import importlib
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import graphnvp
from conftest import edit_checkpoint_meta, randomize_model
from graphnvp.cli import run
from graphnvp.flow import FlowModel, load_checkpoint, save_checkpoint
from graphnvp.graphs import qm9lite_spec


def run_child(argv):
    """``gnvp argv`` in a child process with one BLAS thread."""
    src = str(Path(graphnvp.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "graphnvp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def zero_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("train0")
    code = run(["train", "--out", str(out), "--epochs", "0", "--seed", "0"])
    assert code == 0
    return out / "model.gnvp"


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--dataset", "--out", "--seed", "--epochs", "--batch-size", "--spec", "--config"):
        assert flag in text
    assert "default" in text


def test_unknown_flag_usage_error(capsys):
    code = run(["generate", "--not-a-flag"])
    assert code == 1
    assert capsys.readouterr().err.startswith("gnvp:error:usage:")


def test_missing_subcommand_usage_error(capsys):
    assert run([]) == 1


def test_missing_checkpoint_is_data_error(tmp_path, capsys):
    code = run(["generate", "--checkpoint", str(tmp_path / "none.gnvp"), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("gnvp:error:data:")


def test_bad_dataset_is_data_error(tmp_path, zero_checkpoint, capsys):
    bad = tmp_path / "bad.smi"
    bad.write_text("C\nC1CC\n")
    code = run(
        ["eval", "--checkpoint", str(zero_checkpoint), "--dataset", str(bad), "--out", str(tmp_path), "--samples", "5"]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, args",
    [
        ("train", ["--epochs", "1"]),
        ("eval", ["--checkpoint", "{checkpoint}", "--samples", "5"]),
        ("encode", ["--checkpoint", "{checkpoint}"]),
        ("grid", ["--checkpoint", "{checkpoint}"]),
        ("optimize", ["--checkpoint", "{checkpoint}"]),
        ("sweep", ["--checkpoint", "{checkpoint}", "--samples", "5"]),
    ],
)
def test_dataset_with_no_molecules_is_data_error(tmp_path, zero_checkpoint, command, args):
    """Every subcommand that takes ``--dataset`` refuses a file of comments
    alone with one data-error line naming it, and writes nothing."""
    empty = tmp_path / "empty.smi"
    empty.write_text("# no molecules here\n\n")
    out = tmp_path / "out"
    argv = [command, "--dataset", str(empty), "--out", str(out)]
    done = run_child(argv + [a.format(checkpoint=zero_checkpoint) for a in args])
    assert done.returncode == 2
    assert done.stderr == f"gnvp:error:data: dataset {empty} holds no molecules\n"
    assert done.stdout == ""
    assert not out.exists() or not any(out.iterdir())


def test_non_finite_checkpoint_is_data_error(tmp_path, zero_checkpoint, capsys):
    """A CRC-valid checkpoint with an Inf parameter is refused as it loads,
    with the file and the entry named."""
    data = bytearray(zero_checkpoint.read_bytes())
    # overwrite the first parameter's first float with inf and fix the CRC
    marker = data.find(b"p:adjacency_0")
    assert marker > 0
    name_len = struct.unpack("<I", data[marker - 4 : marker])[0]
    pos = marker + name_len
    ndim = struct.unpack("<I", data[pos : pos + 4])[0]
    payload = pos + 4 + 4 * ndim
    data[payload : payload + 8] = struct.pack("<d", float("inf"))
    payload = bytes(data[:-4])
    data[-4:] = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    bad = tmp_path / "inf.gnvp"
    bad.write_bytes(bytes(data))
    code = run(["generate", "--checkpoint", str(bad), "--out", str(tmp_path), "--samples", "2"])
    assert code == 2
    name = data[marker : marker + name_len].decode()
    assert capsys.readouterr().err == f"gnvp:error:data: {bad}: entry {name!r} holds a non-finite value\n"


def test_checkpoint_missing_a_model_key_is_data_error(tmp_path, zero_checkpoint, capsys):
    bad = tmp_path / "no_rounds.gnvp"
    bad.write_bytes(zero_checkpoint.read_bytes())
    edit_checkpoint_meta(bad, lambda meta: meta["model"].pop("gcn_rounds"))
    code = run(["generate", "--checkpoint", str(bad), "--out", str(tmp_path), "--samples", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("gnvp:error:data:") and "model.gcn_rounds" in err
    assert "Traceback" not in err


def test_checkpoint_with_a_zero_count_is_data_error(tmp_path, zero_checkpoint):
    """A CRC-valid checkpoint with ``gcn_rounds`` 0 is refused at load, in
    one data-error line naming the key, not a numpy traceback later."""
    bad = tmp_path / "zero_rounds.gnvp"
    bad.write_bytes(zero_checkpoint.read_bytes())
    edit_checkpoint_meta(bad, lambda meta: meta["model"].update(gcn_rounds=0))
    out = tmp_path / "out"
    done = run_child(["generate", "--checkpoint", str(bad), "--out", str(out), "--samples", "2"])
    assert done.returncode == 2
    assert done.stderr == f"gnvp:error:data: {bad}: checkpoint metadata model.gcn_rounds is 0, not an integer >= 1\n"
    assert done.stdout == "" and not out.exists()


def test_train_zero_epochs_writes_zero_init_checkpoint(zero_checkpoint):
    loaded = load_checkpoint(zero_checkpoint, qm9lite_spec())
    reference = FlowModel(qm9lite_spec(), seed=0)
    params = dict(loaded.named_parameters())
    for name, p in reference.named_parameters():
        assert np.array_equal(p.data, params[name].data), name
    metrics = zero_checkpoint.parent / "metrics.csv"
    lines = metrics.read_text().splitlines()
    assert lines[1] == "epoch,mean_nll,sigma"
    assert len(lines) == 2  # no epochs -> no rows


def test_train_prints_each_epoch_line_when_the_epoch_ends(tmp_path, capsys, monkeypatch):
    dataset = tmp_path / "four.smi"
    dataset.write_text("C\nCC\nCO\nCN\n")
    train_module = importlib.import_module("graphnvp.train")
    nll_loss = train_module.nll_loss
    before_step = []  # what was printed before each training step

    def watched(*args, **kwargs):
        before_step.append(capsys.readouterr().out)
        return nll_loss(*args, **kwargs)

    monkeypatch.setattr(train_module, "nll_loss", watched)
    out = tmp_path / "out"
    argv = ["train", "--out", str(out), "--dataset", str(dataset), "--epochs", "2", "--batch-size", "4"]
    assert run(argv) == 0
    rest = capsys.readouterr().out
    assert before_step[0] == ""
    assert re.fullmatch(r"epoch 1: mean_nll=-?\d+\.\d{6} sigma=\d+\.\d{6} seconds=\d+\.\d{3}\n", before_step[1])
    assert len(before_step) == 2 and rest.startswith("epoch 2: ")
    assert rest.endswith(f"wrote {out / 'model.gnvp'} and {out / 'metrics.csv'}\n")


def test_generate_bytes_equal_across_processes(tmp_path):
    """The reproducibility promise across fresh processes: the same
    checkpoint, seed and BLAS thread count give the same generated.smi,
    whatever the string-hash seed."""
    checkpoint = tmp_path / "random.gnvp"
    save_checkpoint(randomize_model(FlowModel(qm9lite_spec(), seed=3), seed=13, scale=0.2), checkpoint)
    src = str(Path(graphnvp.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"hash{hash_seed}"
        argv = ["generate", "--checkpoint", str(checkpoint), "--out", str(out), "--samples", "500",
                "--temp", "0.3", "--seed", "4"]
        done = subprocess.run([sys.executable, "-m", "graphnvp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append((out / "generated.smi").read_bytes())
    lines = outputs[0].decode().splitlines()
    assert len(lines) == 500
    assert sum(1 for line in lines if not line.startswith("#")) >= 5  # valid molecules, canonicalized
    assert outputs[0] == outputs[1]


def test_generate_deterministic_bytes(tmp_path, zero_checkpoint):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run(
            [
                "generate",
                "--checkpoint",
                str(zero_checkpoint),
                "--out",
                str(out),
                "--samples",
                "40",
                "--temp",
                "0.85",
                "--seed",
                "11",
            ]
        )
        assert code == 0
    assert (out1 / "generated.smi").read_bytes() == (out2 / "generated.smi").read_bytes()


def test_eval_writes_metrics_and_table(tmp_path, zero_checkpoint, capsys):
    code = run(
        [
            "eval",
            "--checkpoint",
            str(zero_checkpoint),
            "--out",
            str(tmp_path),
            "--samples",
            "20",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "%V" in out and "%R" in out
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "temp,validity,novelty,uniqueness,reconstruction,samples,seed"
    row = lines[1].split(",")
    assert row[0] == "0.85"  # spec default temperature
    assert float(row[4]) == 100.0  # reconstruction is exact by construction


def test_encode_writes_latents(tmp_path, zero_checkpoint):
    dataset = tmp_path / "three.smi"
    dataset.write_text("C\nCC\nCO\n")
    code = run(
        ["encode", "--checkpoint", str(zero_checkpoint), "--dataset", str(dataset), "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "latents.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("index,z0,")
    assert len(lines[0].split(",")) == qm9lite_spec().latent_dim + 1


def test_grid_csv_shape(tmp_path, zero_checkpoint):
    code = run(
        [
            "grid",
            "--checkpoint",
            str(zero_checkpoint),
            "--out",
            str(tmp_path),
            "--steps",
            "1",
            "--step-size",
            "0.4",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "i,j,smiles"
    assert len(lines) == 10


def test_optimize_trace(tmp_path, zero_checkpoint):
    code = run(
        [
            "optimize",
            "--checkpoint",
            str(zero_checkpoint),
            "--out",
            str(tmp_path),
            "--property",
            "heavy_atom_count",
            "--steps",
            "3",
            "--step-size",
            "0.5",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    lines = (tmp_path / "optimize.csv").read_text().splitlines()
    assert lines[0] == "step,smiles,predicted_property,realized_property"
    assert len(lines) == 5


def test_sweep_csv(tmp_path, zero_checkpoint):
    code = run(
        [
            "sweep",
            "--checkpoint",
            str(zero_checkpoint),
            "--out",
            str(tmp_path),
            "--samples",
            "10",
            "--temps",
            "0.9,0.3",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "temp,validity,novelty,uniqueness,reconstruction,seed_count"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.3  # ascending temperatures


def test_sweep_bad_temps_usage_error(tmp_path, zero_checkpoint, capsys):
    code = run(
        ["sweep", "--checkpoint", str(zero_checkpoint), "--out", str(tmp_path), "--temps", "a,b"]
    )
    assert code == 1


@pytest.mark.parametrize("temps", [",", ""])
def test_sweep_empty_temps_usage_error(tmp_path, zero_checkpoint, capsys, temps):
    code = run(["sweep", "--checkpoint", str(zero_checkpoint), "--out", str(tmp_path), "--temps", temps])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("gnvp:error:usage: --temps")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("generate", "--temp", "nan"),
        ("generate", "--temp", "inf"),
        ("eval", "--temp", "-inf"),
        ("sweep", "--temps", "0.3,inf"),
        ("sweep", "--temps", "nan"),
        ("grid", "--step-size", "nan"),
        ("optimize", "--step-size", "inf"),
        ("generate", "--temp", "-1"),
        ("generate", "--temp", "0"),
        ("eval", "--temp", "-0.5"),
        ("sweep", "--temps", "0.3,-0.6"),
        ("sweep", "--temps", "0,0.9"),
        ("grid", "--step-size", "-1"),
        ("grid", "--step-size", "0"),
        ("optimize", "--step-size", "-0.25"),
    ],
)
def test_non_finite_temperature_or_step_size_usage_error(tmp_path, zero_checkpoint, capsys, command, flag, value):
    """Non-finite and non-positive values alike are usage errors, found
    before any file is touched."""
    out = tmp_path / "out"
    code = run([command, "--checkpoint", str(zero_checkpoint), "--out", str(out), f"{flag}={value}"])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("gnvp:error:usage:") and flag in line and value in line
    assert not out.exists()


def test_non_numeric_temperature_keeps_its_usage_message(tmp_path, zero_checkpoint, capsys):
    code = run(["generate", "--checkpoint", str(zero_checkpoint), "--out", str(tmp_path), "--temp", "warm"])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "gnvp:error:usage: argument --temp: invalid float value: 'warm'"


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=5\nbatch_size=16\nseed=9\n")
    out = tmp_path / "out"
    # --epochs 0 overrides the config's epochs=5
    code = run(["train", "--out", str(out), "--config", str(config), "--epochs", "0"])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2


# Each bad config line, with the reason its flag's parser gives.
_BAD_VALUES = {
    "epochs=abc": "must be an integer, got 'abc'",
    "adam_alpha=x": "invalid float value: 'x'",
    "adam_eps=nan": "must be a finite number > 0, got 'nan'",
    "adam_beta1=0": "must be a finite number > 0, got '0'",
    "batch_size=1.5": "must be an integer, got '1.5'",
    "seed=s": "must be an integer, got 's'",
}


@pytest.mark.parametrize("line", list(_BAD_VALUES))
def test_config_file_bad_value_usage_error(tmp_path, capsys, line):
    """A bad config value is reported with its line, its key and the reason
    the matching flag gives, where there is one."""
    reason = _BAD_VALUES[line]
    config = tmp_path / "run.cfg"
    config.write_text(f"# a comment\n{line}\n")
    out = tmp_path / "out"
    assert run(["train", "--out", str(out), "--config", str(config)]) == 1
    [err] = capsys.readouterr().err.splitlines()
    key, value = line.split("=")
    assert err == f"gnvp:error:usage: {config} line 2: bad value for config key {key!r}: {reason}"
    assert not out.exists()
    if key in ("epochs", "batch_size", "seed"):
        flag = "--" + key.replace("_", "-")
        assert run(["train", "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err == f"gnvp:error:usage: argument {flag}: {reason}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--config", "epochs=-1"], "{config} line 1: bad value for config key 'epochs': must be >= 0, got '-1'"),
        (["--epochs", "-1"], "argument --epochs: must be >= 0, got '-1'"),
        (["--batch-size", "0"], "argument --batch-size: must be >= 1, got '0'"),
        (["--config", "adam_beta1=1"], "Adam needs finite adam_alpha, adam_eps > 0 and adam_beta1, adam_beta2 in (0, 1)"),
        (["--config", "adam_beta2=1.5"], "Adam needs finite adam_alpha, adam_eps > 0 and adam_beta1, adam_beta2 in (0, 1)"),
        (["--seed", "-1"], "argument --seed: must be >= 0, got '-1'"),
        (["--config", "seed=-1"], "{config} line 1: bad value for config key 'seed': must be >= 0, got '-1'"),
        (
            ["--config", "checkpoint_every=-2"],
            "{config} line 1: bad value for config key 'checkpoint_every': must be >= 0, got '-2'",
        ),
    ],
)
def test_train_config_out_of_range_usage_error(tmp_path, capsys, argv, message):
    """Out-of-range training settings, from flags or the config file, are
    usage errors found before anything is written.  A beta of 1 used to
    write a checkpoint of NaN parameters and exit 0; a negative seed ended
    in a traceback, and a negative ``checkpoint_every`` trained and wrote
    no intermediate checkpoint."""
    if argv[0] == "--config":
        config = tmp_path / "run.cfg"
        config.write_text(argv[1] + "\n")
        argv = ["--config", str(config)]
        message = message.format(config=config)
    out = tmp_path / "out"
    assert run(["train", "--out", str(out), *argv]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"gnvp:error:usage: {message}"
    assert not out.exists()


# Each count flag with an out-of-range or non-integer value, and the reason
# argparse gives; every command's checkpoint is a file that does not exist.
_BAD_FLAGS = [
    ("train", "--epochs", "-1", "must be >= 0, got '-1'"),
    ("train", "--batch-size", "0", "must be >= 1, got '0'"),
    ("train", "--batch-size", "2.5", "must be an integer, got '2.5'"),
    ("generate", "--samples", "0", "must be >= 1, got '0'"),
    ("eval", "--samples", "0", "must be >= 1, got '0'"),
    ("sweep", "--samples", "-3", "must be >= 1, got '-3'"),
    ("sweep", "--samples", "many", "must be an integer, got 'many'"),
    ("grid", "--steps", "-1", "must be >= 0, got '-1'"),
    ("optimize", "--steps", "-1", "must be >= 0, got '-1'"),
    ("optimize", "--property", "nope", "invalid choice: 'nope' (choose from "),
]


@pytest.mark.parametrize("command, flag, value, reason", _BAD_FLAGS)
def test_out_of_range_flag_is_a_usage_error_naming_it(tmp_path, command, flag, value, reason):
    """An out-of-range count flag is one usage-error line that names the
    flag, found before the checkpoint or the dataset is read."""
    out = tmp_path / "out"
    argv = [command, "--out", str(out), flag, value]
    if command != "train":
        argv += ["--checkpoint", str(tmp_path / "missing.gnvp")]
    done = run_child(argv)
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert line.startswith(f"gnvp:error:usage: argument {flag}: {reason}")
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not out.exists()


def test_config_file_unknown_key_usage_error(tmp_path, capsys):
    """A typo such as ``epoch=5`` is refused, not silently ignored."""
    config = tmp_path / "run.cfg"
    config.write_text("epochs=0\nepoch=5\n")
    out = tmp_path / "out"
    assert run(["train", "--out", str(out), "--config", str(config)]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"gnvp:error:usage: {config} line 2: train does not read config key 'epoch'")
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "eval", "grid", "optimize", "sweep"])
def test_config_file_reads_only_seed_outside_train(tmp_path, zero_checkpoint, capsys, command):
    config = tmp_path / "run.cfg"
    config.write_text("seed=2\nepochs=5\n")
    out = tmp_path / "out"
    assert run([command, "--checkpoint", str(zero_checkpoint), "--out", str(out), "--config", str(config)]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"gnvp:error:usage: {config} line 2: {command} does not read config key 'epochs' (it reads seed)"
    assert not out.exists()


def test_config_file_seed_equals_seed_flag(tmp_path, zero_checkpoint):
    config = tmp_path / "run.cfg"
    config.write_text("seed=17\n")
    base = ["eval", "--checkpoint", str(zero_checkpoint), "--samples", "5"]
    assert run([*base, "--out", str(tmp_path / "file"), "--config", str(config)]) == 0
    assert run([*base, "--out", str(tmp_path / "flag"), "--seed", "17"]) == 0
    file_csv, flag_csv = ((tmp_path / name / "metrics.csv").read_text() for name in ("file", "flag"))
    assert file_csv == flag_csv and file_csv.splitlines()[1].endswith(",17")


@pytest.mark.parametrize("flag", ["--seed", "--config"])
def test_encode_takes_no_seed_or_config(tmp_path, zero_checkpoint, capsys, flag):
    out = tmp_path / "out"
    assert run(["encode", "--checkpoint", str(zero_checkpoint), "--out", str(out), flag, "3"]) == 1
    assert capsys.readouterr().err.startswith(f"gnvp:error:usage: unrecognized arguments: {flag}")
    assert not out.exists()


def test_non_integer_env_seed_usage_error(tmp_path, zero_checkpoint, monkeypatch, capsys):
    monkeypatch.setenv("GNVP_SEED", "abc")
    out = tmp_path / "out"
    assert run(["generate", "--checkpoint", str(zero_checkpoint), "--out", str(out), "--samples", "5"]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err == "gnvp:error:usage: GNVP_SEED must be an integer, got 'abc'"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--seed", "-5"], None, "argument --seed: must be >= 0, got '-5'"),
        ([], "-2", "GNVP_SEED must be >= 0, got '-2'"),
    ],
)
def test_negative_seed_usage_error(tmp_path, zero_checkpoint, monkeypatch, capsys, argv, env, message):
    """A negative seed, from the flag or ``GNVP_SEED``, is a usage error
    found before anything is written; it used to end in a traceback."""
    if env is not None:
        monkeypatch.setenv("GNVP_SEED", env)
    out = tmp_path / "out"
    assert run(["generate", "--checkpoint", str(zero_checkpoint), "--out", str(out), "--samples", "5", *argv]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"gnvp:error:usage: {message}"
    assert not out.exists()


def test_env_seed_fallback(tmp_path, zero_checkpoint, monkeypatch):
    monkeypatch.setenv("GNVP_SEED", "17")
    out1 = tmp_path / "env"
    code = run(
        ["generate", "--checkpoint", str(zero_checkpoint), "--out", str(out1), "--samples", "5"]
    )
    assert code == 0
    monkeypatch.delenv("GNVP_SEED")
    out2 = tmp_path / "flag"
    run(
        [
            "generate",
            "--checkpoint",
            str(zero_checkpoint),
            "--out",
            str(out2),
            "--samples",
            "5",
            "--seed",
            "17",
        ]
    )
    assert (out1 / "generated.smi").read_bytes() == (out2 / "generated.smi").read_bytes()
