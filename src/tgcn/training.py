"""Loss, Adam optimizer, and the training loop with periodic test-set
evaluation and best-checkpoint tracking."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import denormalize
from .errors import ConfigError, DataError, ShapeError, TrainingDiverged
from .metrics import SCORES, compute_metrics, write_csv

HISTORY_COLUMNS = ("epoch", "train_loss") + SCORES
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator
# node-major rows (windows x nodes) per evaluation chunk; at Los shape a
# sweep of 2k-16k rows found 4k as fast as one call, at the lowest memory
EVAL_ROWS = 4096
# bytes of recording tape one group of a training batch's windows may keep
# (`SequenceModel.tape_bytes`). At SZ shape, batch 32, 16, 32 and 64 MiB
# (groups of 3, 7 and 11 windows) took a one-thread step's peak RSS from
# 204 to 69, 90 and 107 MiB at about the same speed; at two threads a step
# took 553, 333 and 310 ms against 324 as one group, as a 3-window group's
# 468 rows fill one row block
TAPE_BYTES = 32 << 20


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 64
    epochs: int = 3000
    weight_decay: float = 1.5e-3  # lambda on the L2 term
    seed: int = 0
    eval_every: int = 10
    clip: float = 5.0  # global gradient-norm clip; <= 0 disables

    def __post_init__(self):
        for name in ("batch_size", "epochs", "eval_every", "seed"):
            value, least = getattr(self, name), int(name != "seed")
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ConfigError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("lr", "weight_decay", "clip"):
            value = getattr(self, name)
            if not np.isfinite(value):  # NaN passes every comparison
                raise ConfigError(f"{name} must be finite, got {value}")
            if value < 0 and name != "clip":  # a clip <= 0 disables it
                raise ConfigError(f"{name} must be >= 0, got {value}")


class Adam:
    """Standard bias-corrected Adam over a name -> Tensor parameter dict."""

    def __init__(self, params, lr=0.001):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite gradient for {name}")
            self.m[name] = BETA1 * self.m[name] + (1 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1 - BETA2) * g * g
            m_hat = self.m[name] / (1 - BETA1 ** self.t)
            v_hat = self.v[name] / (1 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def loss(pred, truth, weights=None, lam=0.0):
    """Mean squared error plus lam * sum of squared weight entries."""
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    total = ad.tensor_mean(ad.square(pred - Tensor(truth)))
    if lam > 0 and weights:
        reg = None
        for w in weights.values():
            term = ad.tensor_sum(ad.square(w))
            reg = term if reg is None else reg + term
        total = total + ad.scale(reg, lam)
    return total


def clip_gradients(params, max_norm):
    """Scale all gradients in place so their global L2 norm is <= max_norm;
    max_norm <= 0 disables clipping."""
    if max_norm <= 0:
        return
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad ** 2))
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor


def _threads():
    value = os.environ.get("TGCN_THREADS", "1")
    if not value.isdecimal() or int(value) < 1:
        raise ConfigError(f"TGCN_THREADS is not a positive integer: {value!r}")
    return int(value)


def predict_windows(model, inputs):
    """Predictions (count, n, horizon) for a stack of windows, made in
    chunks of max(1, EVAL_ROWS // n_nodes) windows, one after another, each
    written to its own rows of the result, so evaluation holds one chunk's
    state, not the whole split's. With TGCN_THREADS (default 1) above 1
    each chunk's row blocks, those of the recurrence or of the GCN
    baseline's hidden layer, run on that many threads, this one included
    (`autodiff.threads`). The chunks do not depend on the count, and
    neither do the predictions."""
    size = max(1, EVAL_ROWS // model.n_nodes)
    out = np.empty((len(inputs), model.n_nodes, model.horizon))
    with ad.threads(_threads()):
        for start in range(0, len(inputs), size):
            out[start:start + size] = model.predict(inputs[start:start + size])
    return out


def evaluate(model, window_set, dataset):
    """Metrics on denormalized predictions over a whole window set."""
    return evaluate_predictions(model, window_set, dataset)[0]


def evaluate_predictions(model, window_set, dataset):
    """`evaluate`'s metrics and the denormalized (count, n, horizon)
    predictions they score, from one pass over the windows."""
    pred = denormalize(dataset, predict_windows(model, window_set.inputs))
    truth = denormalize(dataset, window_set.targets)
    return compute_metrics(truth, pred), pred


@dataclass
class TrainResult:
    """One history row per epoch, its scores None on unevaluated epochs;
    the best RMSE is history[best_epoch - 1]["rmse"], the final scores are
    in history[-1]."""
    history: list
    best_params: dict
    best_epoch: int


def _snapshot(params):
    return {k: p.data.copy() for k, p in params.items()}


def restore(model, snapshot):
    for name, p in model.parameters().items():
        p.data[:] = snapshot[name]


def _groups(count, size):
    """Slices of count windows into ⌈count / size⌉ groups in order, whose
    lengths differ by at most one, the longer ones first."""
    n = -(-count // size)
    q, r = divmod(count, n)
    bounds = [i * q + min(i, r) for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def train(model, train_windows, test_windows, dataset, config):
    """Minibatch Adam over shuffled sliding windows.

    Evaluates on the test windows every config.eval_every epochs (and at the
    final epoch), tracking the parameter snapshot with the best test RMSE.
    A non-finite loss or gradient raises TrainingDiverged naming the epoch
    and the batch within it, both counted from 1.

    Each step runs its batch as groups of whole windows, as many as keep a
    recording forward's tape (`SequenceModel.tape_bytes`) within
    TAPE_BYTES, at least one, the batch split into groups whose sizes
    differ by at most one. Each group's forward and backward run, and its
    tape is freed, before the next group starts: its backward starts from
    the gradient the batch's mean squared error gives its predictions, and
    the gradients add up in the parameters. Then one `loss` call on the
    batch's predictions, a constant there, gives the step's value and adds
    the L2 term's gradient, and `clip_gradients` and Adam run once. So a
    step holds one group's tape at a time, its memory does not grow with
    the batch size, and a batch of one group runs the same arithmetic as
    one forward and backward of the whole batch.

    The features of the training windows (`SequenceModel.feature_windows`)
    are computed once per call, and each group gathers its windows' rows
    from them.

    The steps and the evaluations run their row blocks, those of the
    recurrence or of the GCN baseline's hidden layer, on TGCN_THREADS
    threads (default 1), this one included, from workers started once per
    call (`autodiff.threads`); the results do not depend on the count.
    """
    n_windows = len(train_windows)
    if n_windows == 0:
        raise DataError(
            f"no training windows: a series of length {dataset.n_timesteps} "
            f"split at index {dataset.split_index} needs the split above "
            f"seq_len + horizon = {model.seq_len + model.horizon} "
            f"(seq_len={model.seq_len}, horizon={model.horizon})")
    stack = model.feature_windows(train_windows.inputs)
    group = max(1, TAPE_BYTES // max(1, model.tape_bytes()))
    params = model.parameters()
    weights = model.weight_parameters()
    opt = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)

    history = []
    best_rmse = np.inf
    best_params = _snapshot(params)
    best_epoch = 0

    with ad.threads(_threads()):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n_windows)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n_windows, config.batch_size):
                idx = order[start:start + config.batch_size]
                # node-major, like the rows of the forward pass
                batch_tg = np.ascontiguousarray(
                    train_windows.targets[idx].transpose(1, 0, 2))
                preds = np.empty_like(batch_tg)
                where = f"epoch {epoch}, batch {n_batches + 1}"
                opt.zero_grad()
                for part in _groups(len(idx), group):
                    pred = model.forward(stack.take(idx[part]))
                    # d(mean squared error)/d(pred), in the order of the
                    # backward of `loss`'s tensor_mean and square
                    diff = pred.data - batch_tg[:, part].reshape(pred.shape)
                    seed = (1.0 / batch_tg.size) * 2.0 * diff
                    # a non-finite seed makes the loss non-finite, which
                    # raises below
                    if np.isfinite(seed).all():
                        pred.backward(seed)
                    preds[:, part] = pred.data.reshape(
                        len(preds), -1, model.horizon)
                    # free this group's tape now, not when the next forward
                    # rebinds the name, so that two groups' tapes are never
                    # alive at once
                    del pred
                batch_loss = loss(Tensor(preds.reshape(-1, model.horizon)),
                                  batch_tg.reshape(-1, model.horizon),
                                  weights, config.weight_decay)
                lval = float(batch_loss.data)
                if not np.isfinite(lval):
                    raise TrainingDiverged(f"non-finite loss at {where}")
                batch_loss.backward()  # the L2 term's gradient alone
                clip_gradients(params, config.clip)
                try:
                    opt.step()
                except TrainingDiverged as exc:
                    raise TrainingDiverged(f"{where}: {exc}") from exc
                epoch_loss += lval
                n_batches += 1
            row = {"epoch": epoch, "train_loss": epoch_loss / n_batches,
                   **dict.fromkeys(SCORES)}
            history.append(row)

            if epoch % config.eval_every == 0 or epoch == config.epochs:
                report = evaluate(model, test_windows, dataset)
                row.update((k, getattr(report, k)) for k in SCORES)
                if report.rmse < best_rmse:
                    best_rmse = report.rmse
                    best_params = _snapshot(params)
                    best_epoch = epoch

    return TrainResult(history=history, best_params=best_params,
                       best_epoch=best_epoch)


def write_history(path, history):
    """History CSV: one row per epoch under HISTORY_COLUMNS."""
    write_csv(path, HISTORY_COLUMNS, history)
