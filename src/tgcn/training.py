"""Loss, Adam optimizer, and the training loop with periodic test-set
evaluation and best-checkpoint tracking."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import denormalize
from .errors import ConfigError, DataError, ShapeError, TrainingDiverged
from .metrics import SCORES, compute_metrics, write_csv

HISTORY_COLUMNS = ("epoch", "train_loss") + SCORES
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator


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
        for name in ("batch_size", "epochs", "eval_every"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
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


def _eval_threads():
    value = os.environ.get("TGCN_THREADS", "1")
    if not value.isdecimal() or int(value) < 1:
        raise ConfigError(f"TGCN_THREADS is not a positive integer: {value!r}")
    return int(value)


def predict_windows(model, inputs):
    """Predictions (count, n, horizon) for a stack of windows; evaluation
    parallelism is capped by TGCN_THREADS (default 1, single-threaded)."""
    if len(inputs) == 0:
        return np.empty((0, model.n_nodes, model.horizon))
    workers = _eval_threads()
    if workers == 1 or len(inputs) < 2 * workers:
        return model.predict(inputs)
    chunks = np.array_split(np.arange(len(inputs)), workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda idx: model.predict(inputs[idx]), chunks))
    return np.concatenate(parts, axis=0)


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


def train(model, train_windows, test_windows, dataset, config):
    """Minibatch Adam over shuffled sliding windows.

    Evaluates on the test windows every config.eval_every epochs (and at the
    final epoch), tracking the parameter snapshot with the best test RMSE.
    A non-finite loss or gradient raises TrainingDiverged naming the epoch
    and the batch within it, both counted from 1.
    """
    n_windows = len(train_windows)
    if n_windows == 0:
        raise DataError(
            f"no training windows: a series of length {dataset.n_timesteps} "
            f"split at index {dataset.split_index} needs the split above "
            f"seq_len + horizon = {model.seq_len + model.horizon} "
            f"(seq_len={model.seq_len}, horizon={model.horizon})")
    _eval_threads()  # a bad TGCN_THREADS fails now, not at the first eval
    params = model.parameters()
    weights = model.weight_parameters()
    opt = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)

    history = []
    best_rmse = np.inf
    best_params = _snapshot(params)
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_windows)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_windows, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_in = train_windows.inputs[idx]
            # node-major, like the rows of the forward pass
            batch_tg = train_windows.targets[idx].transpose(1, 0, 2)
            batch_tg = batch_tg.reshape(-1, model.horizon)
            where = f"epoch {epoch}, batch {n_batches + 1}"
            opt.zero_grad()
            pred = model.forward(batch_in)
            batch_loss = loss(pred, batch_tg, weights, config.weight_decay)
            lval = float(batch_loss.data)
            if not np.isfinite(lval):
                raise TrainingDiverged(f"non-finite loss at {where}")
            batch_loss.backward()
            # free this step's tape now, not when the next forward rebinds
            # the names, so that two tapes are never alive at once
            del pred, batch_loss
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
