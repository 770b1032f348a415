import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_csv
from tgcn import cli, models, training
from tgcn.graph import build_propagation

FAST = ["--hidden", "4", "--seq-len", "4", "--epochs", "3", "--batch", "32",
        "--eval-every", "1", "--seed", "7"]


def run(argv):
    return cli.main(argv)


def read_json(path):
    return json.loads(path.read_text())


def test_train_tgcn_writes_artifacts(tmp_path, ring_files):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    metrics = tmp_path / "metrics.json"
    history = tmp_path / "history.csv"
    rc = run(["train", "--adj", adj, "--features", feat, "--model", "tgcn",
              *FAST, "--out", str(ckpt), "--metrics-out", str(metrics),
              "--history-out", str(history)])
    assert rc == 0
    assert ckpt.exists() and ckpt.with_suffix(".ckpt.final").exists()
    payload = read_json(metrics)
    assert payload["model"] == "tgcn"
    assert payload["dataset"] == "speed"
    assert payload["horizon_steps"] == 1
    assert set(payload) >= {"rmse", "mae", "accuracy", "r2", "var",
                            "n_points", "timestamp"}
    lines = history.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,rmse,mae,accuracy,r2,var"
    assert len(lines) == 4


def test_train_ha_no_training_needed(tmp_path, ring_files):
    adj, feat = ring_files
    metrics = tmp_path / "metrics.json"
    rc = run(["train", "--features", feat, "--model", "ha", "--seq-len", "4",
              "--metrics-out", str(metrics)])
    assert rc == 0
    payload = read_json(metrics)
    assert payload["model"] == "ha"
    assert payload["rmse"] > 0


def test_train_ha_writes_checkpoint_that_eval_reads(tmp_path, ring_files):
    _, feat = ring_files
    ckpt = tmp_path / "ha.ckpt"
    m_train = tmp_path / "train_metrics.json"
    m_eval = tmp_path / "eval_metrics.json"
    rc = run(["train", "--features", feat, "--model", "ha", "--seq-len", "4",
              "--out", str(ckpt), "--metrics-out", str(m_train)])
    assert rc == 0
    assert ckpt.exists() and ckpt.with_suffix(".ckpt.final").exists()
    rc = run(["eval", "--features", feat, "--model", "ha", "--seq-len", "4",
              "--checkpoint", str(ckpt), "--metrics-out", str(m_eval)])
    assert rc == 0
    a, b = read_json(m_train), read_json(m_eval)
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


@pytest.mark.parametrize("model", ["ha", "gcn"])
def test_transposed_features_same_metrics(tmp_path, ring_files, model):
    adj, feat = ring_files
    feat_t = write_csv(tmp_path / "speed_t.csv",
                       np.loadtxt(feat, delimiter=",").T)
    payloads = []
    for path, extra in ((feat, []), (feat_t, ["--transpose"])):
        metrics = tmp_path / "metrics.json"
        rc = run(["train", "--adj", adj, "--features", path, "--model", model,
                  *FAST, "--seq-len", "12", "--horizon-steps", "3", *extra,
                  "--metrics-out", str(metrics)])
        assert rc == 0
        payload = read_json(metrics)
        payload.pop("timestamp"), payload.pop("dataset")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_ha_horizon_invariant(tmp_path, ring_files):
    _, feat = ring_files
    values = []
    for horizon in ("1", "2"):
        metrics = tmp_path / f"m{horizon}.json"
        run(["train", "--features", feat, "--model", "ha", "--seq-len", "4",
             "--horizon-steps", horizon, "--metrics-out", str(metrics)])
        values.append(read_json(metrics)["rmse"])
    assert values[0] == pytest.approx(values[1], rel=0.02)


def test_missing_adj_usage_error(ring_files):
    _, feat = ring_files
    with pytest.raises(SystemExit) as exc:
        run(["train", "--features", feat, "--model", "tgcn", *FAST])
    assert exc.value.code == 2


def test_eval_reproduces_training_metrics(tmp_path, ring_files):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    m_train = tmp_path / "train_metrics.json"
    m_eval = tmp_path / "eval_metrics.json"
    run(["train", "--adj", adj, "--features", feat, "--model", "tgcn", *FAST,
         "--out", str(ckpt), "--metrics-out", str(m_train)])
    rc = run(["eval", "--adj", adj, "--features", feat, "--model", "tgcn",
              "--seq-len", "4", "--checkpoint", str(ckpt),
              "--metrics-out", str(m_eval)])
    assert rc == 0
    a, b = read_json(m_train), read_json(m_eval)
    for key in ("rmse", "mae", "accuracy", "r2", "var", "n_points"):
        assert a[key] == b[key]


def test_eval_scores_and_writes_one_forward_pass(tmp_path, ring_files,
                                                 monkeypatch):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    metrics, preds = tmp_path / "m.json", tmp_path / "p.csv"
    run(["train", "--adj", adj, "--features", feat, "--model", "tgcn", *FAST,
         "--out", str(ckpt)])
    calls = []
    predict_windows = training.predict_windows

    def counted(model, inputs):
        calls.append(len(inputs))
        return predict_windows(model, inputs)

    monkeypatch.setattr(training, "predict_windows", counted)
    rc = run(["eval", "--adj", adj, "--features", feat, "--model", "tgcn",
              "--seq-len", "4", "--checkpoint", str(ckpt),
              "--metrics-out", str(metrics), "--predictions-out", str(preds)])
    assert rc == 0
    assert len(calls) == 1
    # the written rows are the ones scored
    table = np.loadtxt(preds, delimiter=",")
    assert table.shape == (calls[0], 10)
    truth = np.loadtxt(feat, delimiter=",")[-calls[0]:]
    rmse = np.sqrt(np.mean((table - truth) ** 2))
    assert rmse == pytest.approx(read_json(metrics)["rmse"], rel=1e-8)


def test_eval_horizon_mismatch_fails(tmp_path, ring_files):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    run(["train", "--adj", adj, "--features", feat, "--model", "tgcn", *FAST,
         "--out", str(ckpt)])
    rc = run(["eval", "--adj", adj, "--features", feat, "--model", "tgcn",
              "--seq-len", "4", "--horizon-steps", "2",
              "--checkpoint", str(ckpt)])
    assert rc == 1


def test_predict_writes_csv(tmp_path, ring_files):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    preds = tmp_path / "preds.csv"
    run(["train", "--adj", adj, "--features", feat, "--model", "tgcn", *FAST,
         "--out", str(ckpt)])
    rc = run(["predict", "--adj", adj, "--features", feat, "--seq-len", "4",
              "--checkpoint", str(ckpt), "--predictions-out", str(preds)])
    assert rc == 0
    table = np.loadtxt(preds, delimiter=",")
    assert table.ndim == 2 and table.shape[1] == 10  # nodes * horizon


def test_perturb_single_setting(tmp_path, ring_files):
    adj, feat = ring_files
    metrics = tmp_path / "metrics.json"
    rc = run(["perturb", "--adj", adj, "--features", feat, "--model", "tgcn",
              *FAST, "--dist", "gaussian", "--param", "0.2",
              "--metrics-out", str(metrics)])
    assert rc == 0
    payload = read_json(metrics)
    assert payload["perturbation"] == {"dist": "gaussian", "param": 0.2,
                                       "seed": 7}


def test_perturb_poisson_runs(tmp_path, ring_files):
    adj, feat = ring_files
    metrics = tmp_path / "metrics.json"
    rc = run(["perturb", "--adj", adj, "--features", feat, "--model", "gru",
              *FAST, "--dist", "poisson", "--param", "16",
              "--metrics-out", str(metrics)])
    assert rc == 0
    assert read_json(metrics)["perturbation"]["dist"] == "poisson"


def test_perturb_zero_param_config_error(tmp_path, ring_files, capsys):
    adj, feat = ring_files
    rc = run(["perturb", "--adj", adj, "--features", feat, "--model", "tgcn",
              *FAST, "--dist", "gaussian", "--param", "0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


def test_perturb_nan_param_config_error(ring_files, capsys):
    adj, feat = ring_files
    rc = run(["perturb", "--adj", adj, "--features", feat, "--model", "tgcn",
              *FAST, "--dist", "gaussian", "--param", "nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"
    assert "got nan" in payload["message"]


def test_perturb_sweep(tmp_path, ring_files):
    adj, feat = ring_files
    metrics = tmp_path / "metrics.json"
    sweep = tmp_path / "sweep.csv"
    rc = run(["perturb", "--adj", adj, "--features", feat, "--model", "gru",
              "--hidden", "4", "--seq-len", "4", "--epochs", "1",
              "--batch", "64", "--eval-every", "1", "--seed", "7",
              "--dist", "gaussian", "--sweep",
              "--metrics-out", str(metrics), "--sweep-out", str(sweep)])
    assert rc == 0
    lines = sweep.read_text().strip().split("\n")
    assert lines[0] == "param,rmse,mae,accuracy,r2,var"
    assert len(lines) == 6  # five sigma settings
    assert [line.split(",")[0] for line in lines[1:]] == [
        "0.2", "0.4", "0.8", "1", "2"]
    for sigma in ("0.2", "0.4", "0.8", "1", "2"):
        assert (tmp_path / f"metrics_gaussian_{sigma}.json").exists()


def test_gradcheck_command(capsys):
    rc = run(["gradcheck", "--model", "tgcn", "--nodes", "4", "--hidden", "3",
              "--seq-len", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_command_gcn_horizon_3(capsys):
    # the GCN baseline folds its head into W1, so a multi-column head
    # exercises the folded product's gradient
    rc = run(["gradcheck", "--model", "gcn", "--horizon-steps", "3"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_metrics_json_deterministic(tmp_path, ring_files):
    adj, feat = ring_files
    payloads = []
    for i in range(2):
        metrics = tmp_path / f"m{i}.json"
        run(["train", "--adj", adj, "--features", feat, "--model", "tgcn",
             *FAST, "--metrics-out", str(metrics)])
        p = read_json(metrics)
        p.pop("timestamp")
        payloads.append(json.dumps(p, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_parse_error_reported_structured(tmp_path, ring_files, capsys):
    adj, _ = ring_files
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,nope\n")
    rc = run(["train", "--adj", adj, "--features", str(bad), "--model", "tgcn",
              *FAST])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ParseError"
    assert "row 2" in err["message"]


@pytest.mark.parametrize("flag,value", [
    ("--hidden", "-1"), ("--hidden", "0"), ("--seq-len", "0"),
    ("--seq-len", "-1"), ("--horizon-steps", "0"), ("--horizon-steps", "-1"),
    ("--batch", "0"), ("--epochs", "0"),
])
def test_bad_size_flag_config_error(ring_files, capsys, flag, value):
    adj, feat = ring_files
    rc = run(["train", "--adj", adj, "--features", feat, "--model", "tgcn",
              *FAST, flag, value])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--eval-every", "0"), ("train", "--lambda", "nan"),
    ("train", "--clip", "nan"), ("train", "--lr", "nan"),
    ("train", "--lr", "inf"), ("gradcheck", "--nodes", "-1"),
    ("gradcheck", "--tol", "nan"), ("gradcheck", "--tol", "0"),
    ("gradcheck", "--tol", "-1"),
])
def test_bad_training_flag_config_error(tmp_path, ring_files, capsys,
                                        command, flag, value):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    argv = (["gradcheck", flag, value] if command == "gradcheck" else
            ["train", "--adj", adj, "--features", feat, "--model", "gcn",
             *FAST, "--out", str(ckpt), flag, value])
    rc = run(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err.strip())
    assert err["error"] == "ConfigError"
    assert f"got {value}" in err["message"]
    assert not list(tmp_path.glob("model.ckpt*"))


def test_predict_checks_checkpoint_kind(tmp_path, ring_files, capsys):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    run(["train", "--adj", adj, "--features", feat, "--model", "gru", *FAST,
         "--out", str(ckpt)])
    rc = run(["predict", "--adj", adj, "--features", feat, "--model", "tgcn",
              "--seq-len", "4", "--checkpoint", str(ckpt),
              "--predictions-out", str(tmp_path / "preds.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CheckpointError"
    assert "gru" in err["message"]
    assert not (tmp_path / "preds.csv").exists()


def test_eval_missing_checkpoint(tmp_path, ring_files, capsys):
    adj, feat = ring_files
    rc = run(["eval", "--adj", adj, "--features", feat, "--seq-len", "4",
              "--checkpoint", str(tmp_path / "nope.ckpt")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CheckpointError"
    assert "nope.ckpt" in err["message"]


def test_interval_recorded_in_metrics(tmp_path, ring_files):
    _, feat = ring_files
    metrics = tmp_path / "metrics.json"
    run(["train", "--features", feat, "--model", "ha", "--seq-len", "4",
         "--interval", "5", "--metrics-out", str(metrics)])
    assert read_json(metrics)["interval_minutes"] == 5


def test_eval_malformed_checkpoint_header_clean_error(tmp_path, ring_files):
    adj, feat = ring_files
    ckpt = tmp_path / "model.ckpt"
    run(["train", "--adj", adj, "--features", feat, "--model", "tgcn", *FAST,
         "--out", str(ckpt)])
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    del header["kind"]
    blob = json.dumps(header).encode()
    ckpt.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob
                     + raw[10 + hlen:])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "tgcn.cli", "eval", "--adj", adj,
         "--features", feat, "--model", "tgcn", "--seq-len", "4",
         "--checkpoint", str(ckpt)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr.strip())
    assert err["error"] == "CheckpointError"
    assert "'kind'" in err["message"]


@pytest.mark.parametrize("command,flag", [
    ("train", "--metrics-out"), ("train", "--history-out"),
    ("train", "--out"), ("eval", "--predictions-out"),
    ("predict", "--predictions-out"), ("perturb", "--sweep-out"),
])
def test_output_path_in_missing_directory_fails_first(
        tmp_path, ring_files, capsys, monkeypatch, command, flag):
    def no_training(*args, **kwargs):
        raise AssertionError("training ran before the output path check")

    monkeypatch.setattr(training, "train", no_training)
    adj, feat = ring_files
    bad = str(tmp_path / "nodir" / "x")
    extra = {"train": [], "perturb": ["--dist", "gaussian", "--sweep"],
             "eval": ["--checkpoint", str(tmp_path / "model.ckpt")],
             "predict": ["--checkpoint", str(tmp_path / "model.ckpt")]}
    rc = run([command, "--adj", adj, "--features", feat, "--model", "tgcn",
              "--seq-len", "4", *extra[command], flag, bad])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err.strip())
    assert err["error"] == "ConfigError"
    assert flag in err["message"] and bad in err["message"]
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("command,flag,path", [
    ("train", "--metrics-out", None), ("predict", "--predictions-out", ""),
])
def test_output_path_that_is_a_directory_fails(tmp_path, ring_files, capsys,
                                               command, flag, path):
    _, feat = ring_files
    path = str(tmp_path) if path is None else path  # "" is the working dir
    extra = (["--checkpoint", str(tmp_path / "model.ckpt")]
             if command == "predict" else [])
    rc = run([command, "--features", feat, "--model", "ha", "--seq-len", "4",
              *extra, flag, path])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err.strip())
    assert err["error"] == "ConfigError"
    assert f"{flag} {path!r} is a directory" == err["message"]


def test_constant_test_split_leaves_r2_and_var_undefined(tmp_path):
    # the series varies before the split and is constant after it, so the
    # test truth has zero variance: R2 and explained variance are undefined
    rng = np.random.default_rng(42)
    series = np.vstack([rng.uniform(10.0, 60.0, (40, 3)),
                        np.full((10, 3), 30.0)])
    feat = write_csv(tmp_path / "speed.csv", series)
    adj = write_csv(tmp_path / "adj.csv", np.ones((3, 3)) - np.eye(3))
    metrics = tmp_path / "metrics.json"
    history = tmp_path / "history.csv"
    rc = run(["train", "--adj", adj, "--features", feat, "--model", "gcn",
              "--seq-len", "2", "--hidden", "4", "--epochs", "2",
              "--eval-every", "1", "--metrics-out", str(metrics),
              "--history-out", str(history)])
    assert rc == 0
    payload = read_json(metrics)
    assert payload["r2"] is None and payload["var"] is None
    assert payload["undefined"] == ["r2", "var"]
    assert payload["rmse"] is not None and payload["accuracy"] is not None
    lines = history.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,rmse,mae,accuracy,r2,var"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] and cells[4]  # rmse and accuracy are scored
        assert cells[5:] == ["", ""]


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_empty_test_split_data_error(tmp_path, capsys, command):
    # 20 steps split at 16 leave 4 steps after the split, fewer than the
    # horizon, so no window has its targets there and there is nothing to
    # score or write
    series = np.random.default_rng(40).uniform(10.0, 60.0, (20, 3))
    feat = write_csv(tmp_path / "speed.csv", series)
    adjacency = np.ones((3, 3)) - np.eye(3)
    adj = write_csv(tmp_path / "adj.csv", adjacency)
    sizes = ["--seq-len", "2", "--horizon-steps", "5", "--hidden", "4"]
    ckpt = tmp_path / "model.ckpt"
    models.save_checkpoint(models.SequenceModel(
        "tgcn", 3, 4, 2, 5, propagation=build_propagation(adjacency)), ckpt)
    extra = {"train": ["--epochs", "1", "--out", str(ckpt)],
             "eval": ["--checkpoint", str(ckpt)],
             "predict": ["--checkpoint", str(ckpt), "--predictions-out",
                         str(tmp_path / "preds.csv")]}[command]
    rc = run([command, "--adj", adj, "--features", feat, *sizes, *extra])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DataError"
    for fact in ("length 20", "index 16", "seq_len=2", "horizon=5"):
        assert fact in err["message"]
    assert not (tmp_path / "preds.csv").exists()


def test_empty_training_split_data_error(tmp_path, capsys):
    # 14 steps split at 11: a training window needs its 12 inputs and one
    # target before the split, so there is none, while test windows exist
    series = np.random.default_rng(41).uniform(10.0, 60.0, (14, 3))
    feat = write_csv(tmp_path / "speed.csv", series)
    rc = run(["train", "--model", "gru", "--features", feat, "--seq-len",
              "12", "--hidden", "4", "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err.strip())
    assert err["error"] == "DataError"
    for fact in ("length 14", "index 11", "seq_len=12", "horizon=1"):
        assert fact in err["message"]
