"""Evaluation metrics over denormalized speed values: RMSE, MAE, Accuracy
(one minus the ratio of Frobenius norms), coefficient of determination, and
explained variance. Accuracy/R2/Var are undefined on degenerate truth and
reported as None with a flag instead of a number."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError

SCORES = ("rmse", "mae", "accuracy", "r2", "var")  # the paper's five


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    mae: float
    accuracy: float | None
    r2: float | None
    var: float | None
    n_points: int

    @property
    def undefined(self):
        """The scores that degenerate truth left unreportable."""
        return tuple(k for k in SCORES if getattr(self, k) is None)

    def to_dict(self):
        return {k: getattr(self, k) for k in SCORES + ("n_points",)}


def write_csv(path, columns, rows):
    """A header of `columns`, then row[col] for each row: None as a blank
    cell, a str as is, anything else by repr."""
    def cell(v):
        return "" if v is None else v if isinstance(v, str) else repr(v)

    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(row[col]) for col in columns) + "\n")


def compute_metrics(truth, pred):
    """All five metrics over the flattened matrices (horizons pooled)."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape:
        raise ShapeError(
            f"truth shape {truth.shape} != pred shape {pred.shape}")
    if truth.size == 0:
        raise DataError("no points to score: the window set is empty")
    t = truth.ravel()
    p = pred.ravel()
    resid = t - p
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    mae = float(np.mean(np.abs(resid)))

    truth_norm = float(np.linalg.norm(t))
    if truth_norm == 0.0:
        accuracy = None
    else:
        accuracy = 1.0 - float(np.linalg.norm(resid)) / truth_norm

    # population variance; zero-variance truth makes r2/var unreportable
    truth_var = float(np.var(t))
    if truth_var == 0.0:
        r2 = var = None
    else:
        ss_res = float(np.sum(resid ** 2))
        ss_tot = float(np.sum((t - t.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        var = 1.0 - float(np.var(resid)) / truth_var

    return MetricsReport(rmse=rmse, mae=mae, accuracy=accuracy, r2=r2,
                         var=var, n_points=t.size)
