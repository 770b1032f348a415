"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria that need the real SZ-taxi / Los-loop files look for them under
$TGCN_DATA_DIR (default: <repo>/data) as sz_adj.csv, sz_speed.csv (one row
per road, so loaded with transpose), los_adj.csv, los_speed.csv. They skip
with an explicit reason when the files are absent; the long training runs
additionally require TGCN_RUN_FULL=1 since they take hours on one CPU.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import ring_adjacency, ring_series, write_csv
from tgcn import cli, data
from tgcn.autodiff import Tensor, gradcheck
from tgcn.graph import build_propagation
from tgcn.metrics import compute_metrics
from tgcn.models import GruCell, SequenceModel, TgcnCell
from tgcn.training import TrainConfig, evaluate, loss, restore, train

from test_metrics import metrics_oracle
from test_models import (_randomize, gru_step_oracle, random_graph,
                         tgcn_step_oracle)

DATA_DIR = Path(os.environ.get("TGCN_DATA_DIR", Path(__file__).parent.parent / "data"))
RUN_FULL = os.environ.get("TGCN_RUN_FULL") == "1"


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _dataset_files(prefix):
    adj = DATA_DIR / f"{prefix}_adj.csv"
    feat = DATA_DIR / f"{prefix}_speed.csv"
    if not adj.exists() or not feat.exists():
        pytest.skip(f"{prefix} dataset not present under {DATA_DIR} "
                    "(files cannot be fetched in this environment)")
    return str(adj), str(feat)


def test_criterion_1_propagation_oracle():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        adj = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
        adj = adj + adj.T
        got = build_propagation(adj)
        a_tilde = adj + np.eye(n)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
        want = d_inv_sqrt @ a_tilde @ d_inv_sqrt
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(1, worst < 1e-12, f"max abs diff {worst:.2e} over 100 graphs")


def test_criterion_2_full_model_gradcheck():
    rng = np.random.default_rng(101)
    prop = random_graph(rng, 4)
    model = SequenceModel("tgcn", 4, 5, 3, 1, propagation=prop)
    model.init_parameters(101)
    window = rng.random((3, 4))
    target = rng.random((4, 1))
    params = model.parameters()

    def f(_):
        pred = model.forward(window)
        return loss(pred, target)

    result = gradcheck(f, list(params.values()), tol=1e-4)
    detail = ", ".join(f"{n}={e:.1e}" for n, e in
                       zip(params, result.per_input))
    report(2, result.passed, f"max rel err per parameter: {detail}")


def test_criterion_3_cell_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        hidden = int(rng.integers(1, 6))
        prop = random_graph(rng, n)
        x = rng.standard_normal((n, 1))
        h = rng.standard_normal((n, hidden))
        cell = TgcnCell(prop, hidden)
        _randomize(cell, rng)
        got = cell.step(Tensor(x), Tensor(h)).data
        worst = max(worst, float(np.max(np.abs(
            got - tgcn_step_oracle(prop, cell, x, h)))))
        gru = GruCell(hidden)
        _randomize(gru, rng)
        got = gru.step(Tensor(x), Tensor(h)).data
        worst = max(worst, float(np.max(np.abs(
            got - gru_step_oracle(gru, x, h)))))
    report(3, worst < 1e-12, f"max abs diff {worst:.2e} over 50 instances")


def test_criterion_4_metrics_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(2, 8)), int(rng.integers(1, 6)))
        truth = rng.uniform(1.0, 60.0, size=shape)
        pred = truth + rng.normal(0, 5.0, size=shape)
        rep = compute_metrics(truth, pred)
        want = metrics_oracle(truth, pred)
        got = (rep.rmse, rep.mae, rep.accuracy, rep.r2, rep.var)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        assert rep.rmse >= rep.mae - 1e-15
    perfect = compute_metrics(truth, truth)
    fixed_point = (perfect.rmse == 0 and perfect.accuracy == 1
                   and perfect.r2 == 1 and perfect.var == 1)
    report(4, worst < 1e-10 and fixed_point,
           f"max abs diff {worst:.2e} over 1000 pairs; perfect-prediction "
           f"fixed point {'holds' if fixed_point else 'violated'}")


def test_criterion_5_ha_sz_taxi():
    adj, feat = _dataset_files("sz")
    rmses = []
    for horizon in (1, 2, 3, 4):
        ds = data.load_features(feat, transpose=True)
        ds = data.normalize(ds)
        _, test_ws = data.make_windows(ds, seq_len=12, horizon=horizon)
        model = SequenceModel("ha", ds.n_nodes, 1, 12, horizon)
        rmses.append(evaluate(model, test_ws, ds).rmse)
    spread = max(rmses) - min(rmses)
    in_band = abs(rmses[0] - 7.9198) <= 0.79198
    report(5, in_band and spread < 1e-9,
           f"HA RMSE per horizon {[round(r, 4) for r in rmses]} "
           f"(target 7.9198 +/- 10%, horizon-invariant)")


def _train_cli(args):
    rc = cli.main(args)
    assert rc == 0, f"CLI failed: {args}"


def _full_run_guard():
    if not RUN_FULL:
        pytest.skip("full training run skipped; set TGCN_RUN_FULL=1 "
                    "(takes hours on one CPU)")


def test_criterion_6_tgcn_reproduction(tmp_path):
    adj, feat = _dataset_files("sz")
    _full_run_guard()
    metrics = tmp_path / "sz.json"
    epochs = "3000" if os.environ.get("TGCN_FULL_EPOCHS") == "1" else "500"
    bound = 4.50 if epochs == "3000" else 5.0
    _train_cli(["train", "--adj", adj, "--features", feat, "--transpose",
                "--model", "tgcn", "--hidden", "100", "--seq-len", "12",
                "--horizon-steps", "1", "--epochs", epochs, "--seed", "1",
                "--metrics-out", str(metrics)])
    payload = json.loads(metrics.read_text())
    ok = payload["rmse"] <= bound
    if epochs == "3000":
        ok = ok and payload["accuracy"] >= 0.70
    report(6, ok, f"SZ-taxi {epochs}-epoch RMSE {payload['rmse']:.4f} "
                  f"(bound {bound}), accuracy {payload['accuracy']:.4f}")

    los_adj, los_feat = _dataset_files("los")
    los_metrics = tmp_path / "los.json"
    _train_cli(["train", "--adj", los_adj, "--features", los_feat,
                "--transpose", "--missing-zero", "--model", "tgcn",
                "--hidden", "64", "--seq-len", "12", "--horizon-steps", "3",
                "--epochs", epochs, "--seed", "1", "--interval", "5",
                "--metrics-out", str(los_metrics)])
    los = json.loads(los_metrics.read_text())
    report(6, los["rmse"] <= 5.90,
           f"Los-loop RMSE {los['rmse']:.4f} (bound 5.90)")


def test_criterion_7_relative_ordering(tmp_path):
    adj, feat = _dataset_files("sz")
    _full_run_guard()
    rmse = {}
    for kind in ("tgcn", "gcn", "gru"):
        metrics = tmp_path / f"{kind}.json"
        _train_cli(["train", "--adj", adj, "--features", feat, "--transpose",
                    "--model", kind, "--hidden", "100", "--seq-len", "12",
                    "--epochs", "500", "--seed", "1",
                    "--metrics-out", str(metrics)])
        rmse[kind] = json.loads(metrics.read_text())["rmse"]
    ok = (rmse["tgcn"] <= 0.70 * rmse["gcn"]
          and rmse["tgcn"] <= 1.05 * rmse["gru"])
    report(7, ok, f"RMSE tgcn={rmse['tgcn']:.4f} gcn={rmse['gcn']:.4f} "
                  f"gru={rmse['gru']:.4f}")


def test_criterion_8_perturbation_robustness(tmp_path):
    adj, feat = _dataset_files("sz")
    _full_run_guard()
    clean = tmp_path / "clean.json"
    noisy = tmp_path / "noisy.json"
    base = ["--adj", adj, "--features", feat, "--transpose", "--model",
            "tgcn", "--hidden", "100", "--seq-len", "12", "--epochs", "500",
            "--seed", "1"]
    _train_cli(["train", *base, "--metrics-out", str(clean)])
    _train_cli(["perturb", *base, "--dist", "gaussian", "--param", "0.2",
                "--metrics-out", str(noisy)])
    a = json.loads(clean.read_text())["accuracy"]
    b = json.loads(noisy.read_text())["accuracy"]
    report(8, abs(a - b) < 0.05,
           f"accuracy clean {a:.4f} vs sigma=0.2 noise {b:.4f}")


def test_criterion_9_determinism(tmp_path):
    adj = write_csv(tmp_path / "adj.csv", ring_adjacency())
    feat = write_csv(tmp_path / "speed.csv", ring_series(timesteps=120))
    blobs = []
    for i in range(2):
        metrics = tmp_path / f"m{i}.json"
        _train_cli(["train", "--adj", adj, "--features", feat, "--model",
                    "tgcn", "--hidden", "8", "--seq-len", "4", "--epochs",
                    "5", "--eval-every", "1", "--seed", "9",
                    "--metrics-out", str(metrics)])
        payload = json.loads(metrics.read_text())
        payload.pop("timestamp")
        blobs.append(json.dumps(payload, sort_keys=True).encode())
    report(9, blobs[0] == blobs[1],
           "two identical runs produced byte-identical metrics JSON "
           "(timestamp excluded)")


def test_criterion_10_synthetic_ring():
    prop = build_propagation(ring_adjacency())
    ds = data.normalize(data.TimeSeriesDataset(values=ring_series(timesteps=240)))
    train_ws, test_ws = data.make_windows(ds, 8, 1)
    model = SequenceModel("tgcn", 10, 16, 8, 1, propagation=prop)
    model.init_parameters(0)
    config = TrainConfig(lr=0.01, batch_size=64, epochs=300,
                         weight_decay=1e-5, seed=0, eval_every=50)
    result = train(model, train_ws, test_ws, ds, config)
    restore(model, result.best_params)
    r2 = evaluate(model, test_ws, ds).r2

    # edgeless-graph locality: node predictions ignore other nodes bit-exactly
    rng = np.random.default_rng(200)
    iso = SequenceModel("tgcn", 10, 8, 6, 1,
                        propagation=build_propagation(np.zeros((10, 10))))
    iso.init_parameters(1)
    window = rng.random((6, 10))
    tampered = window.copy()
    tampered[:, 3] += 5.0
    base, pert = iso.predict(window), iso.predict(tampered)
    others = [i for i in range(10) if i != 3]
    local = np.array_equal(base[others], pert[others])
    report(10, r2 >= 0.9 and local,
           f"ring R2 {r2:.4f} (need >= 0.9); edgeless locality "
           f"{'bit-exact' if local else 'violated'}")
