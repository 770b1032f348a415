import sys
import weakref

import numpy as np
import pytest

from conftest import ring_adjacency, ring_series
from tgcn import autodiff as ad
from tgcn import data, training
from tgcn.autodiff import Tensor, gradcheck
from tgcn.errors import ConfigError, ShapeError, TrainingDiverged
from tgcn.graph import build_propagation
from tgcn.models import SequenceModel
from tgcn.training import (Adam, TrainConfig, clip_gradients, evaluate, loss,
                           train, write_history)


def make_params(values):
    return {k: Tensor(np.asarray(v, dtype=float), requires_grad=True)
            for k, v in values.items()}


# -- loss --------------------------------------------------------------------

def test_loss_zero_on_perfect_prediction():
    pred = Tensor(np.ones((2, 2)))
    assert float(loss(pred, np.ones((2, 2))).data) == 0.0


def test_loss_unit_residual():
    pred = Tensor(np.zeros((3, 2)))
    assert float(loss(pred, np.ones((3, 2))).data) == pytest.approx(1.0)


def test_loss_regularization_term():
    w = Tensor(np.array([[2.0]]), requires_grad=True)
    pred = Tensor(np.ones((2, 2)))
    val = loss(pred, np.ones((2, 2)), weights={"w": w}, lam=1.0)
    assert float(val.data) == pytest.approx(4.0)


def test_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pred = Tensor(rng.standard_normal((3, 2)))
        truth = rng.standard_normal((3, 2))
        assert float(loss(pred, truth).data) >= 0.0


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


def test_loss_gradient_passes_gradcheck():
    rng = np.random.default_rng(1)
    w = Tensor(rng.random((2, 2)), requires_grad=True)
    truth = rng.random((2, 2))

    def f(xs):
        return loss(xs[0], truth, weights={"w": xs[0]}, lam=0.01)

    assert gradcheck(f, [w], tol=1e-6).passed


# -- Adam --------------------------------------------------------------------

def test_adam_zero_gradient_no_change():
    params = make_params({"w": [[1.0, 2.0]]})
    opt = Adam(params, lr=0.1)
    params["w"].grad = np.zeros((1, 2))
    opt.step()
    assert np.array_equal(params["w"].data, [[1.0, 2.0]])


def test_adam_first_step_is_signed_lr():
    # bias correction makes the very first update exactly -lr * sign(g)
    # up to the epsilon in the denominator
    params = make_params({"w": [[0.0]]})
    opt = Adam(params, lr=0.01)
    params["w"].grad = np.array([[2.5]])
    opt.step()
    assert params["w"].data[0, 0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_deterministic_trajectories():
    def run():
        params = make_params({"w": [[1.0, -1.0]]})
        opt = Adam(params, lr=0.05)
        for step in range(20):
            params["w"].grad = params["w"].data * 0.3 + step * 0.01
            opt.step()
        return params["w"].data.copy()

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    params = make_params({"w_bad": [[1.0]]})
    opt = Adam(params)
    params["w_bad"].grad = np.array([[np.nan]])
    with pytest.raises(TrainingDiverged, match="w_bad"):
        opt.step()


def test_clip_gradients_global_norm():
    params = make_params({"a": [[3.0]], "b": [[4.0]]})
    params["a"].grad = np.array([[3.0]])
    params["b"].grad = np.array([[4.0]])
    clip_gradients(params, 1.0)
    total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params.values()))
    assert total == pytest.approx(1.0)
    assert params["a"].grad[0, 0] == pytest.approx(0.6)


# -- training loop -----------------------------------------------------------

def ring_setup(seq_len=4, horizon=1, timesteps=80):
    prop = build_propagation(ring_adjacency())
    ds = data.normalize(data.TimeSeriesDataset(
        values=ring_series(timesteps=timesteps)))
    train_ws, test_ws = data.make_windows(ds, seq_len, horizon)
    return prop, ds, train_ws, test_ws


def test_train_lr_zero_is_noop():
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(0)
    before = {k: p.data.copy() for k, p in model.parameters().items()}
    config = TrainConfig(lr=0.0, batch_size=len(train_ws), epochs=1,
                         weight_decay=0.0, seed=0, eval_every=1)
    train(model, train_ws, test_ws, ds, config)
    for k, p in model.parameters().items():
        assert np.array_equal(p.data, before[k])


@pytest.mark.parametrize("kind", ["tgcn", "gcn"])
def test_train_loss_matches_batch_predictions(kind):
    # one batch, no update: the reported loss is the MSE of predict's
    # (B, n, horizon) output against the targets, so the forward rows and
    # the targets must be stacked in the same order
    prop, ds, train_ws, test_ws = ring_setup(horizon=2)
    model = SequenceModel(kind, 10, 4, 4, 2, propagation=prop)
    model.init_parameters(0)
    config = TrainConfig(lr=0.0, batch_size=len(train_ws), epochs=1,
                         weight_decay=0.0, seed=0, eval_every=1)
    result = train(model, train_ws, test_ws, ds, config)
    want = np.mean((model.predict(train_ws.inputs) - train_ws.targets) ** 2)
    assert abs(result.history[0]["train_loss"] - want) < 1e-12


def test_train_loss_decreases_on_learnable_data():
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 8, 4, 1, propagation=prop)
    model.init_parameters(1)
    config = TrainConfig(lr=0.01, batch_size=32, epochs=50,
                         weight_decay=0.0, seed=1, eval_every=10)
    result = train(model, train_ws, test_ws, ds, config)
    losses = [row["train_loss"] for row in result.history]
    assert losses[-1] < 0.5 * losses[0]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_history_and_best_tracking():
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(2)
    config = TrainConfig(lr=0.01, batch_size=32, epochs=10,
                         weight_decay=0.0, seed=2, eval_every=5)
    result = train(model, train_ws, test_ws, ds, config)
    assert len(result.history) == 10
    evaluated = [r for r in result.history if r["rmse"] is not None]
    assert [r["epoch"] for r in evaluated] == [5, 10]
    assert result.best_epoch in (5, 10)
    best_rmse = result.history[result.best_epoch - 1]["rmse"]
    assert best_rmse == min(r["rmse"] for r in evaluated)
    assert result.history[-1]["rmse"] is not None  # the final evaluation


def test_train_deterministic_history():
    def run():
        prop, ds, train_ws, test_ws = ring_setup()
        model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
        model.init_parameters(3)
        config = TrainConfig(lr=0.01, batch_size=16, epochs=5,
                             weight_decay=1e-4, seed=3, eval_every=2)
        return train(model, train_ws, test_ws, ds, config).history

    assert run() == run()


def test_train_parameter_gradients_finite_difference():
    # whole training loss on a 4-node toy instance, every parameter
    rng = np.random.default_rng(4)
    adj = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0.0]])
    prop = build_propagation(adj)
    model = SequenceModel("tgcn", 4, 3, 3, 1, propagation=prop)
    model.init_parameters(4)
    window = rng.random((2, 3, 4))
    target = rng.random((2 * 4, 1))
    params = model.parameters()
    weights = model.weight_parameters()

    def f(_):
        return loss(model.forward(window), target, weights, lam=1e-3)

    report = gradcheck(f, list(params.values()), tol=1e-4)
    assert report.passed, report.per_input


def test_evaluate_on_denormalized_scale():
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("ha", 10, 1, 4, 1)
    report = evaluate(model, test_ws, ds)
    # HA on the ring: errors are in raw speed units, not [0,1]
    assert 0 < report.rmse < 2.0
    assert report.n_points == len(test_ws) * 10


def test_threaded_evaluation_matches_serial(monkeypatch):
    from tgcn.training import predict_windows
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(5)
    serial = predict_windows(model, test_ws.inputs)
    monkeypatch.setenv("TGCN_THREADS", "4")
    threaded = predict_windows(model, test_ws.inputs)
    assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_eval_threads_is_config_error(monkeypatch, value):
    from tgcn.training import predict_windows
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(5)
    monkeypatch.setenv("TGCN_THREADS", value)
    with pytest.raises(ConfigError, match=f": '{value}'$"):
        predict_windows(model, test_ws.inputs)
    with pytest.raises(ConfigError, match=f": '{value}'$"):
        train(model, train_ws, test_ws, ds, TrainConfig(epochs=1))


def test_train_frees_each_step_tape_before_next_forward():
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(0)
    forward, refs, alive_at = model.forward, [], []

    def tracked(windows):
        if refs and refs[-1]() is not None:
            alive_at.append(len(refs))
        out = forward(windows)
        refs.append(weakref.ref(out.data))
        return out

    model.forward = tracked
    config = TrainConfig(batch_size=16, epochs=2, seed=0, eval_every=1)
    train(model, train_ws, test_ws, ds, config)
    assert len(refs) > 4
    assert alive_at == []


def test_nonfinite_loss_names_epoch_and_batch():
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(0)
    config = TrainConfig(batch_size=8, epochs=2, seed=5, eval_every=1)
    # poison the window that epoch 1 draws fourth in its third batch
    bad = np.random.default_rng(config.seed).permutation(len(train_ws))[19]
    targets = train_ws.targets.copy()
    targets[bad, 0, 0] = np.nan
    poisoned = data.WindowSet(train_ws.inputs, targets)
    with pytest.raises(TrainingDiverged,
                       match=r"non-finite loss at epoch 1, batch 3$"):
        train(model, poisoned, test_ws, ds, config)


def test_nonfinite_gradient_names_epoch_and_batch(monkeypatch):
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(0)
    config = TrainConfig(batch_size=8, epochs=2, seed=5, eval_every=1)
    per_epoch = -(-len(train_ws) // config.batch_size)
    calls = []

    def poison_second_batch_of_epoch_2(params, max_norm):
        calls.append(None)
        if len(calls) == per_epoch + 2:
            params["w_c"].grad[0, 0] = np.inf

    monkeypatch.setattr(training, "clip_gradients",
                        poison_second_batch_of_epoch_2)
    with pytest.raises(TrainingDiverged, match=r"^epoch 2, batch 2: "
                       r"non-finite gradient for w_c$"):
        train(model, train_ws, test_ws, ds, config)


def _threaded_history(monkeypatch, threads):
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(6)
    config = TrainConfig(lr=0.01, batch_size=16, epochs=10, seed=6,
                         eval_every=1)
    monkeypatch.setenv("TGCN_THREADS", str(threads))
    return train(model, train_ws, test_ws, ds, config).history


def test_threaded_training_matches_serial(monkeypatch):
    serial = _threaded_history(monkeypatch, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the evaluation threads often
    try:
        threaded = _threaded_history(monkeypatch, 2)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_recording_stays_on_after_concurrent_predict(monkeypatch):
    from tgcn.training import predict_windows
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(7)
    monkeypatch.setenv("TGCN_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            predict_windows(model, test_ws.inputs)
    finally:
        sys.setswitchinterval(interval)
    assert ad.is_grad_enabled()
    assert model.forward(test_ws.inputs[:1])._backward is not None


def test_write_history(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, [
        {"epoch": 1, "train_loss": 0.5, "rmse": None, "mae": None,
         "accuracy": None, "r2": None, "var": None},
        {"epoch": 2, "train_loss": 0.25, "rmse": 1.0, "mae": 0.5,
         "accuracy": 0.9, "r2": 0.8, "var": 0.8},
    ])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,rmse,mae,accuracy,r2,var"
    assert lines[1].startswith("1,0.5,,")
    assert len(lines) == 3
