import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (PoisonedEmpty, probe_row_blocks, ring_adjacency,
                      ring_series)
from tgcn import autodiff as ad
from tgcn import data, models, training
from tgcn.autodiff import Tensor, gradcheck
from tgcn.errors import ConfigError, ShapeError, TrainingDiverged
from tgcn.graph import build_propagation
from tgcn.models import SequenceModel, save_checkpoint
from tgcn.training import (Adam, TrainConfig, clip_gradients, evaluate, loss,
                           predict_windows, train, write_history)


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


def test_clip_gradients_scales_a_finite_gradient_whose_squares_overflow():
    # 1e200² overflows: a plain sum of squares reads inf, and max_norm / inf
    # would zero the step's gradient
    params = make_params({"a": [0.0, 0.0, 0.0]})
    params["a"].grad = np.array([1e200, 1e200, 0.0])
    clip_gradients(params, 5.0)
    assert np.linalg.norm(params["a"].grad) == pytest.approx(5.0)
    assert params["a"].grad == pytest.approx([5 / np.sqrt(2)] * 2 + [0.0])


# -- training loop -----------------------------------------------------------

def ring_setup(seq_len=4, horizon=1, timesteps=80):
    prop = build_propagation(ring_adjacency())
    ds = data.normalize(data.TimeSeriesDataset(
        values=ring_series(timesteps=timesteps)))
    train_ws, test_ws = data.make_windows(ds, seq_len, horizon)
    return prop, ds, train_ws, test_ws


@pytest.mark.parametrize("name,value", [
    ("seed", -1), ("seed", 1.5), ("batch_size", 2.5), ("epochs", 1.5),
    ("eval_every", 2.0), ("batch_size", 0)])
def test_train_config_refuses_what_train_would_crash_on(name, value):
    # numpy takes no negative or fractional seed, and range() no float
    with pytest.raises(ConfigError,
                       match=rf"^{name} must be an integer >= \d, got {value}$"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("batch_size", True), ("epochs", True), ("eval_every", True),
    ("seed", False)])
def test_train_config_refuses_a_bool_count(name, value):
    # a bool is an int to python, so batch_size=True would train at batch 1
    with pytest.raises(ConfigError,
                       match=rf"^{name} must be an integer >= \d, got {value}$"):
        TrainConfig(**{name: value})
    assert getattr(TrainConfig(**{name: np.int64(2)}), name) == 2


@pytest.mark.parametrize("name", ["lr", "weight_decay"])
def test_train_config_refuses_a_negative_rate(name):
    with pytest.raises(ConfigError, match=f"^{name} must be >= 0, got -0.001$"):
        TrainConfig(**{name: -1e-3})


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


# evaluation chunks of 3 windows of the 10-node ring, so that its test split
# runs as several chunks
CHUNK_ROWS = 30
# a row block that splits a 30-row chunk and a 160-row batch of the ring
# into several, so that the recurrence and relu_mlp run on several threads
RING_BLOCK = 8
# the kinds whose row blocks run on the threads: T-GCN's recurrence (GRU's
# is the same kernel) and the GCN baseline's relu_mlp
THREADED_KINDS = ("tgcn", "gcn")


def _probe_blocks(monkeypatch, kind, action):
    """Call action() on the thread that runs each step of a row block of
    T-GCN's recurrence, or each row block of the GCN baseline's relu_mlp."""
    if kind == "gcn":
        probe_row_blocks(monkeypatch, lambda start: action())
        return
    sigmoid = ad._sigmoid_values

    def recorded(v, out=None):
        action()
        return sigmoid(v, out)

    monkeypatch.setattr(ad, "_sigmoid_values", recorded)


def test_threaded_evaluation_matches_serial(monkeypatch):
    monkeypatch.setattr(training, "EVAL_ROWS", CHUNK_ROWS)
    monkeypatch.setattr(ad, "ROW_BLOCK", RING_BLOCK)
    prop, ds, train_ws, test_ws = ring_setup()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the evaluation threads often
    try:
        for kind in THREADED_KINDS:
            model = SequenceModel(kind, 10, 4, 4, 1, propagation=prop)
            model.init_parameters(5)
            monkeypatch.setenv("TGCN_THREADS", "1")
            serial = predict_windows(model, test_ws.inputs)
            for threads in (2, 4):
                monkeypatch.setenv("TGCN_THREADS", str(threads))
                threaded = predict_windows(model, test_ws.inputs)
                assert threaded.shape == serial.shape
                assert threaded.tobytes() == serial.tobytes(), (kind, threads)
    finally:
        sys.setswitchinterval(interval)


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


def _threaded_run(monkeypatch, tmp_path, threads, kind, group=None):
    """History, final checkpoint bytes and best parameters of a training run
    of the kind at TGCN_THREADS=threads, each step in groups of at most
    `group` windows (None: one group), and the threads that ran the row
    blocks of its training steps' forwards."""
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel(kind, 10, 4, 4, 1, propagation=prop)
    model.init_parameters(6)
    if group is not None:
        monkeypatch.setattr(training, "TAPE_BYTES", group * model.tape_bytes())
    config = TrainConfig(lr=0.01, batch_size=16, epochs=10, seed=6,
                         eval_every=1)
    monkeypatch.setenv("TGCN_THREADS", str(threads))
    seen, stepping, forward = set(), [], model.forward

    def step_forward(windows):  # predict's forward runs under no_grad
        stepping.append(ad.is_grad_enabled())
        try:
            return forward(windows)
        finally:
            stepping.pop()

    model.forward = step_forward
    with monkeypatch.context() as probed:
        _probe_blocks(probed, kind, lambda: any(stepping) and seen.add(
            threading.get_ident()))
        result = train(model, train_ws, test_ws, ds, config)
    path = tmp_path / f"{kind}-{threads}.ckpt"
    save_checkpoint(model, path)
    best = b"".join(p.tobytes() for p in result.best_params.values())
    return (result.history, path.read_bytes(), best), seen


def test_threaded_training_matches_serial(monkeypatch, tmp_path):
    monkeypatch.setattr(training, "EVAL_ROWS", CHUNK_ROWS)
    monkeypatch.setattr(ad, "ROW_BLOCK", RING_BLOCK)
    interval = sys.getswitchinterval()
    for kind in THREADED_KINDS:
        serial, seen = _threaded_run(monkeypatch, tmp_path, 1, kind)
        assert seen == {threading.get_ident()}, kind
        sys.setswitchinterval(1e-6)  # interleave the row blocks' threads often
        try:
            for threads in (2, 4):
                run, seen = _threaded_run(monkeypatch, tmp_path, threads, kind)
                assert run == serial, (kind, threads)
                assert threading.get_ident() in seen and len(seen) > 1, kind
        finally:
            sys.setswitchinterval(interval)


def test_grouped_training_matches_serial_and_rerun(monkeypatch, tmp_path):
    # batches of 16 in groups of at most 5 windows (4 of 4 each), whose
    # rows split into several row blocks, on 1, 2 and 4 threads
    monkeypatch.setattr(training, "EVAL_ROWS", CHUNK_ROWS)
    monkeypatch.setattr(ad, "ROW_BLOCK", RING_BLOCK)
    interval = sys.getswitchinterval()
    for kind in THREADED_KINDS:
        serial, _ = _threaded_run(monkeypatch, tmp_path, 1, kind, group=5)
        rerun, _ = _threaded_run(monkeypatch, tmp_path, 1, kind, group=5)
        assert rerun == serial, kind
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 4):
                run, seen = _threaded_run(monkeypatch, tmp_path, threads,
                                          kind, group=5)
                assert run == serial, (kind, threads)
                assert len(seen) > 1, kind
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["tgcn", "gru", "gcn"])
def test_grouped_steps_match_one_group(monkeypatch, kind):
    # 45 windows at batch 16: each epoch runs two full steps and a short
    # one, as one group each or in groups of at most 3 windows (6, 6 and 5
    # groups). Either way train calls loss and clip_gradients once per step
    prop, ds, train_ws, test_ws = ring_setup()
    train_ws = data.WindowSet(train_ws.inputs[:45], train_ws.targets[:45])

    def run(group):
        model = SequenceModel(kind, 10, 6, 4, 1, propagation=prop)
        model.init_parameters(10)
        monkeypatch.setattr(training, "TAPE_BYTES",
                            group * model.tape_bytes() if group else 1 << 40)
        forward, forwards, losses, grads = model.forward, [], [], []

        def counted_forward(windows):
            forwards.append(ad.is_grad_enabled())
            return forward(windows)

        def loss_probe(*args):
            out = loss(*args)
            losses.append(float(out.data))
            return out

        def clip_probe(params, max_norm):
            grads.append([p.grad.copy() for p in params.values()])
            clip_gradients(params, max_norm)

        model.forward = counted_forward
        monkeypatch.setattr(training, "loss", loss_probe)
        monkeypatch.setattr(training, "clip_gradients", clip_probe)
        config = TrainConfig(lr=0.01, batch_size=16, epochs=2, seed=10,
                             weight_decay=1e-3, eval_every=2)
        history = train(model, train_ws, test_ws, ds, config).history
        return sum(forwards), losses, grads, history

    one, grouped = run(None), run(3)
    assert one[0] == 6 and grouped[0] == 2 * (6 + 6 + 5)
    assert len(one[1]) == len(grouped[1]) == len(grouped[2]) == 6
    for a, b in zip(one[1], grouped[1]):
        assert abs(a - b) <= 1e-12 * abs(a)
    for step_a, step_b in zip(one[2], grouped[2]):
        for a, b in zip(step_a, step_b):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)
    _close_histories(one[3], grouped[3])


@pytest.mark.parametrize("kind", ["tgcn", "gru", "gcn"])
def test_one_group_step_has_the_gradients_of_the_loss(kind):
    # a step of one group backpropagates its share of the batch's mean
    # squared error, then `loss` on its predictions as constants adds the
    # L2 term's gradient: what clip_gradients sees is, byte for byte, one
    # backward of `loss` through the model
    prop, ds, train_ws, test_ws = ring_setup()
    train_ws = data.WindowSet(train_ws.inputs[:16], train_ws.targets[:16])
    model = SequenceModel(kind, 10, 6, 4, 1, propagation=prop)
    model.init_parameters(15)
    start = {k: p.data.copy() for k, p in model.parameters().items()}
    config = TrainConfig(lr=0.01, batch_size=16, epochs=1, seed=15,
                         weight_decay=1e-3)
    grads = []

    def clip_probe(params, max_norm):
        grads.append({k: p.grad.copy() for k, p in params.items()})
        clip_gradients(params, max_norm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "clip_gradients", clip_probe)
        train(model, train_ws, test_ws, ds, config)
    assert len(grads) == 1
    training.restore(model, start)
    for p in model.parameters().values():
        p.zero_grad()
    idx = np.random.default_rng(config.seed).permutation(16)
    truth = train_ws.targets[idx].transpose(1, 0, 2).reshape(-1, 1)
    pred = model.forward(model.feature_windows(train_ws.inputs).take(idx))
    loss(pred, truth, model.weight_parameters(),
         config.weight_decay).backward()
    for name, p in model.parameters().items():
        assert p.grad.tobytes() == grads[0][name].tobytes(), name


def _traced_step_peaks(model, windows, test_ws, ds, config):
    """Train under tracemalloc; returns each step's traced peak, from its
    zero_grad to its clip, above what was held when the step started."""
    zero_grad, peaks, held = training.Adam.zero_grad, [], [0]

    def step_start(opt):
        tracemalloc.reset_peak()
        held[0] = tracemalloc.get_traced_memory()[0]
        zero_grad(opt)

    def step_end(params, max_norm):
        peaks.append(tracemalloc.get_traced_memory()[1] - held[0])
        clip_gradients(params, max_norm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training.Adam, "zero_grad", step_start)
        patch.setattr(training, "clip_gradients", step_end)
        tracemalloc.start()
        try:
            train(model, windows, test_ws, ds, config)
        finally:
            tracemalloc.stop()
    return peaks


def test_training_step_memory_does_not_grow_with_the_batch(monkeypatch):
    # groups of 2 windows: from batch 8 to batch 64 a step's traced peak
    # grows by the batch's predictions, targets and loss terms, by less
    # than one group's tape; one forward of the whole batch would keep 64
    # windows' tape
    prop, ds, train_ws, test_ws = ring_setup(timesteps=200)
    test_ws = data.WindowSet(test_ws.inputs[:2], test_ws.targets[:2])
    model = SequenceModel("tgcn", 10, 32, 4, 1, propagation=prop)
    group_tape = 2 * model.tape_bytes()
    monkeypatch.setattr(training, "TAPE_BYTES", group_tape)

    def peak(batch):
        model.init_parameters(13)
        windows = data.WindowSet(train_ws.inputs[:2 * batch],
                                 train_ws.targets[:2 * batch])
        return max(_traced_step_peaks(
            model, windows, test_ws, ds,
            TrainConfig(batch_size=batch, epochs=1, seed=13)))

    small, large = peak(8), peak(64)
    assert large - small < group_tape, (small, large, group_tape)


@pytest.mark.parametrize("kind", ["tgcn", "gru"])
def test_training_step_holds_one_group_at_a_time(monkeypatch, kind):
    # groups of at most 3 windows: a batch of 8 runs as 3, 3 and 2, and
    # peaks within one window's tape of a batch of 3, one group alone, as
    # each group's tape and buffers are freed before the next group starts.
    # Keeping the 3-window group's buffers while the 2-window group runs
    # would add two windows' tape. Later steps peak no higher than the first
    prop, ds, train_ws, test_ws = ring_setup(seq_len=12, timesteps=200)
    test_ws = data.WindowSet(test_ws.inputs[:2], test_ws.targets[:2])
    model = SequenceModel(kind, 10, 32, 12, 1, propagation=prop)
    window_tape = model.tape_bytes()
    monkeypatch.setattr(training, "TAPE_BYTES", 3 * window_tape)

    def step_peaks(batch):
        model.init_parameters(14)
        windows = data.WindowSet(train_ws.inputs[:3 * batch],
                                 train_ws.targets[:3 * batch])
        return _traced_step_peaks(
            model, windows, test_ws, ds,
            TrainConfig(batch_size=batch, epochs=3, seed=14, eval_every=3))

    one_group, grouped = step_peaks(3), step_peaks(8)
    assert len(grouped) == 9 and training._groups(8, 3) == [
        slice(0, 3), slice(3, 6), slice(6, 8)]
    assert max(grouped) < max(one_group) + window_tape, (
        max(grouped), max(one_group), window_tape)
    assert max(grouped[6:]) <= max(grouped[:3]), grouped


def test_no_worker_outlives_its_binding(monkeypatch):
    # the workers stop when train, predict_windows or a failed row block
    # returns, rather than idling for the rest of the process
    monkeypatch.setattr(training, "EVAL_ROWS", CHUNK_ROWS)
    monkeypatch.setattr(ad, "ROW_BLOCK", RING_BLOCK)
    monkeypatch.setenv("TGCN_THREADS", "2")
    prop, ds, train_ws, test_ws = ring_setup()
    for kind in THREADED_KINDS:
        model = SequenceModel(kind, 10, 4, 4, 1, propagation=prop)
        model.init_parameters(8)
        during, fail = [], [False]

        def step():
            during.append(threading.active_count())
            if fail[0]:
                raise FloatingPointError("gate")

        with monkeypatch.context() as probed:
            _probe_blocks(probed, kind, step)
            before = threading.active_count()
            train(model, train_ws, test_ws, ds,
                  TrainConfig(batch_size=16, epochs=1))
            assert threading.active_count() == before, kind
            predict_windows(model, test_ws.inputs)
            assert threading.active_count() == before, kind
            assert max(during) == before + 1, kind  # the one worker ran
            fail[0] = True
            with pytest.raises(FloatingPointError, match="gate"), \
                    ad.threads(3):
                model.predict(test_ws.inputs)
            assert threading.active_count() == before, kind


# -- chunked evaluation ------------------------------------------------------

def test_ring_test_split_spans_several_uneven_chunks():
    *_, test_ws = ring_setup()
    per_chunk = CHUNK_ROWS // 10
    assert len(test_ws) > 4 * per_chunk and len(test_ws) % per_chunk
    # at the default size the ring's whole test split is one chunk
    assert len(test_ws) * 10 <= training.EVAL_ROWS


def test_chunks_do_not_depend_on_thread_count(monkeypatch):
    monkeypatch.setattr(training, "EVAL_ROWS", CHUNK_ROWS)
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel("tgcn", 10, 4, 4, 1, propagation=prop)
    model.init_parameters(5)
    predict, seen = model.predict, []

    def recorded(chunk):
        seen.append(chunk.tobytes())
        return predict(chunk)

    model.predict = recorded
    chunks = {}
    for threads in (1, 2, 4):
        monkeypatch.setenv("TGCN_THREADS", str(threads))
        seen.clear()
        predict_windows(model, test_ws.inputs)
        chunks[threads] = sorted(seen)
    per_chunk = CHUNK_ROWS // 10
    assert len(chunks[1]) == -(-len(test_ws) // per_chunk)
    assert chunks[1] == chunks[2] == chunks[4]


@pytest.mark.parametrize("kind", ["tgcn", "gru", "gcn", "ha"])
def test_chunked_predictions_match_one_predict_call(monkeypatch, kind):
    monkeypatch.setattr(training, "EVAL_ROWS", CHUNK_ROWS)
    prop, ds, train_ws, test_ws = ring_setup()
    model = SequenceModel(kind, 10, 6, 4, 2, propagation=prop)
    model.init_parameters(3)
    whole = model.predict(test_ws.inputs)
    chunked = predict_windows(model, test_ws.inputs)
    assert chunked.shape == whole.shape
    assert np.max(np.abs(chunked - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_threaded_predict_windows_runs_chunks_in_order_on_this_thread(
        monkeypatch):
    # the chunks run one after another on this thread, and each spreads its
    # recurrence's row blocks over the threads, so the threads add one
    # block-sized scratch, not a chunk's state
    monkeypatch.setattr(training, "EVAL_ROWS", 200)
    monkeypatch.setattr(ad, "ROW_BLOCK", 8)
    model = SequenceModel("tgcn", 10, 64, 4, 1,
                          propagation=build_propagation(ring_adjacency()))
    model.init_parameters(0)
    windows = np.random.default_rng(39).random((160, 4, 10))  # 8 chunks
    predict, sigmoid = model.predict, ad._sigmoid_values
    chunks, steps, pause = [], [], [0.0]

    def recorded(chunk):
        chunks.append((threading.get_ident(), chunk.tobytes()))
        steps.append(set())  # the threads of this chunk's steps
        return predict(chunk)

    def step(v, out=None):
        steps[-1].add(threading.get_ident())
        time.sleep(pause[0])
        return sigmoid(v, out)

    model.predict = recorded
    monkeypatch.setattr(ad, "_sigmoid_values", step)

    def peak(threads):
        monkeypatch.setenv("TGCN_THREADS", str(threads))
        predict_windows(model, windows)  # first-call allocations
        chunks.clear()
        steps.clear()
        tracemalloc.start()
        try:
            out = predict_windows(model, windows)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    serial, serial_peak = peak(1)
    pause[0] = 0.0002  # a chunk's 25 blocks spread over the threads
    threaded, threaded_peak = peak(2)
    assert threaded.tobytes() == serial.tobytes()
    me = threading.get_ident()
    assert chunks == [(me, windows[i:i + 20].tobytes())
                      for i in range(0, 160, 20)]
    assert [len(seen) for seen in steps] == [2] * 8
    assert threaded_peak <= 1.2 * serial_peak, threaded_peak / serial_peak
    assert ad.is_grad_enabled()
    assert model.forward(windows[:1])._backward is not None


def test_predict_windows_memory_does_not_grow_with_window_count(monkeypatch):
    # 20 windows per chunk: in one call the (rows, hidden) state of 640
    # windows would outweigh the row-block scratch, but one chunk's state
    # outweighs the (count, n, 1) predictions of all of them
    monkeypatch.setattr(training, "EVAL_ROWS", 200)
    n, hidden, seq_len = 10, 64, 4
    model = SequenceModel("tgcn", n, hidden, seq_len, 1,
                          propagation=build_propagation(ring_adjacency()))
    model.init_parameters(0)
    windows = np.random.default_rng(38).random((640, seq_len, n))

    def peak(count):
        tracemalloc.start()
        try:
            predict_windows(model, windows[:count])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    predict_windows(model, windows[:1])  # first-call allocations
    small, large = peak(160), peak(640)
    assert large < 1.25 * small, large / small


def test_predict_windows_memory_is_bounded_on_a_sliding_view(monkeypatch):
    # as above, over a make_windows view of one long series, which each
    # chunk reads as the count + seq_len - 1 timesteps it covers
    monkeypatch.setattr(training, "EVAL_ROWS", 200)
    n, hidden, seq_len = 10, 64, 4
    model = SequenceModel("tgcn", n, hidden, seq_len, 1,
                          propagation=build_propagation(ring_adjacency()))
    model.init_parameters(0)
    ds = data.TimeSeriesDataset(values=ring_series(timesteps=900))
    windows = data.make_windows(ds, seq_len, 1)[0].inputs
    assert len(windows) >= 640 and not windows.flags.owndata

    def peak(count):
        tracemalloc.start()
        try:
            predict_windows(model, windows[:count])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    predict_windows(model, windows[:1])  # first-call allocations
    small, large = peak(160), peak(640)
    assert large < 1.25 * small, large / small


# -- per-timestep features ----------------------------------------------------

# unit-step views of a make_windows stack are read as one series; the others
# as their own rows, as is any copy
VIEWS = {"whole": (slice(None), True),
         "prefix": (slice(None, 37), True),
         "suffix": (slice(3, None), True),
         "every_other": (slice(None, None, 2), False),
         "reversed": (slice(None, None, -1), False)}


def _close_histories(a, b):
    assert [row["epoch"] for row in a] == [row["epoch"] for row in b]
    for x, y in zip(a, b):
        for key, value in x.items():
            if value is None:
                assert y[key] is None
            else:
                assert abs(value - y[key]) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("kind", ["tgcn", "gcn", "gru", "ha"])
def test_series_and_own_rows_readings_agree(monkeypatch, kind, view):
    monkeypatch.setattr(training, "EVAL_ROWS", CHUNK_ROWS)
    prop, ds, train_ws, test_ws = ring_setup()
    rows, slides = VIEWS[view]
    inputs, targets = train_ws.inputs[rows], train_ws.targets[rows]
    copy = np.array(inputs)
    series, _ = models.read_stack(inputs)
    assert len(series) == len(inputs) + (3 if slides else 3 * len(inputs))
    assert len(models.read_stack(copy)[0]) == 4 * len(copy)
    outs = []
    for stack in (inputs, copy):
        model = SequenceModel(kind, 10, 4, 4, 1, propagation=prop)
        model.init_parameters(11)
        pred = predict_windows(model, stack)
        config = TrainConfig(lr=0.01, batch_size=8, epochs=2, seed=11,
                             eval_every=1)
        result = train(model, data.WindowSet(stack, targets), test_ws, ds,
                       config)
        outs.append((pred, result.history))
    (pred_a, hist_a), (pred_b, hist_b) = outs
    assert np.max(np.abs(pred_a - pred_b)) <= 1e-12
    _close_histories(hist_a, hist_b)


FEATURES = {"tgcn": models.TgcnCell, "gcn": models.GcnEncoder,
            "gru": models.GruCell}


@pytest.mark.parametrize("prefix", [False, True])
@pytest.mark.parametrize("kind", FEATURES)
def test_train_computes_features_once_per_call(monkeypatch, kind, prefix):
    # the features of the training stack are computed once per train call,
    # not once per batch; the evaluations (under no_grad) compute their own
    prop, ds, train_ws, test_ws = ring_setup()
    if prefix:  # as the benchmark trains on a prefix of whole batches
        train_ws = data.WindowSet(train_ws.inputs[:48], train_ws.targets[:48])
    model = SequenceModel(kind, 10, 4, 4, 1, propagation=prop)
    model.init_parameters(12)
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append((original.__name__, ad.is_grad_enabled()))
            return original(*args)
        return wrapper

    cls = FEATURES[kind]
    monkeypatch.setattr(cls, "features", counted(cls.features))
    monkeypatch.setattr(ad, "graph_propagate", counted(ad.graph_propagate))
    config = TrainConfig(lr=0.01, batch_size=8, epochs=3, seed=12,
                         eval_every=2)
    train(model, train_ws, test_ws, ds, config)
    steps = 3 * -(-len(train_ws) // config.batch_size)
    in_training = [name for name, grad in calls if grad]
    assert in_training.count("features") == 1
    assert len(calls) > len(in_training)  # and the evaluations' own
    if kind == "gcn":  # the second propagation alone runs per step
        assert in_training.count("graph_propagate") == 1 + steps


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


# -- poisoned kernel buffers ---------------------------------------------------

@pytest.mark.parametrize("kind", ["gcn", "tgcn", "gru"])
def test_train_with_poisoned_kernel_buffers_matches_plain(monkeypatch,
                                                         kind):
    # every buffer a kernel allocates starts as NaN in the second run, so a
    # buffer read before it is written changes its history or parameters.
    # Batch 16 on 10 nodes is 160 rows, and the short last batch 120, so a
    # 48-row block leaves several blocks and a short one in each
    monkeypatch.setattr(ad, "ROW_BLOCK", 48)

    def run():
        prop, ds, train_ws, test_ws = ring_setup()
        model = SequenceModel(kind, 10, 6, 4, 1, propagation=prop)
        model.init_parameters(9)
        config = TrainConfig(lr=0.01, batch_size=16, epochs=4, seed=9,
                             weight_decay=1e-3, eval_every=2)
        result = train(model, train_ws, test_ws, ds, config)
        final = {k: p.data.copy() for k, p in model.parameters().items()}
        return result, final

    plain, plain_final = run()
    with PoisonedEmpty() as poison:
        poisoned, poisoned_final = run()
    assert poison.drawn
    assert plain.history == poisoned.history
    assert plain.best_epoch == poisoned.best_epoch
    for got, want in ((plain.best_params, poisoned.best_params),
                      (plain_final, poisoned_final)):
        assert list(got) == list(want)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
