import math

import numpy as np
import pytest

from tgcn.errors import DataError, ShapeError
from tgcn.metrics import compute_metrics


def metrics_oracle(truth, pred):
    """Brute-force loop transcription of the five metric definitions."""
    t = [float(v) for v in np.asarray(truth).ravel()]
    p = [float(v) for v in np.asarray(pred).ravel()]
    n = len(t)
    rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(t, p)) / n)
    mae = sum(abs(a - b) for a, b in zip(t, p)) / n
    frob_t = math.sqrt(sum(a * a for a in t))
    frob_r = math.sqrt(sum((a - b) ** 2 for a, b in zip(t, p)))
    accuracy = 1.0 - frob_r / frob_t
    mean_t = sum(t) / n
    ss_tot = sum((a - mean_t) ** 2 for a in t)
    ss_res = sum((a - b) ** 2 for a, b in zip(t, p))
    r2 = 1.0 - ss_res / ss_tot
    resid = [a - b for a, b in zip(t, p)]
    mean_r = sum(resid) / n
    var_r = sum((x - mean_r) ** 2 for x in resid) / n
    var_t = sum((a - mean_t) ** 2 for a in t) / n
    var = 1.0 - var_r / var_t
    return rmse, mae, accuracy, r2, var


def test_perfect_prediction_fixed_point():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    rep = compute_metrics(truth, truth.copy())
    assert rep.rmse == 0.0 and rep.mae == 0.0
    assert rep.accuracy == 1.0 and rep.r2 == 1.0 and rep.var == 1.0
    assert rep.n_points == 4


def test_empty_set_is_a_data_error():
    # np.var of an empty array is nan, which skipped the degenerate-truth
    # branch and divided by zero
    empty = np.empty((0, 3, 2))
    with pytest.raises(DataError, match="no points"):
        compute_metrics(empty, empty.copy())


def test_unit_residual():
    rep = compute_metrics([0.0, 0.0], [1.0, 1.0])
    assert rep.rmse == pytest.approx(1.0)
    assert rep.mae == pytest.approx(1.0)


def test_oracle_equivalence_1000_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        shape = (int(rng.integers(2, 6)), int(rng.integers(1, 6)))
        truth = rng.uniform(1.0, 60.0, size=shape)
        pred = truth + rng.normal(0, 5.0, size=shape)
        rep = compute_metrics(truth, pred)
        rmse, mae, acc, r2, var = metrics_oracle(truth, pred)
        assert abs(rep.rmse - rmse) < 1e-10
        assert abs(rep.mae - mae) < 1e-10
        assert abs(rep.accuracy - acc) < 1e-10
        assert abs(rep.r2 - r2) < 1e-10
        assert abs(rep.var - var) < 1e-10
        assert rep.rmse >= rep.mae


def test_scale_equivariance():
    rng = np.random.default_rng(1)
    truth = rng.uniform(1, 10, size=(5, 4))
    pred = truth + rng.normal(0, 1, size=(5, 4))
    a = compute_metrics(truth, pred)
    b = compute_metrics(3.7 * truth, 3.7 * pred)
    assert b.rmse == pytest.approx(3.7 * a.rmse, abs=1e-12)
    assert b.mae == pytest.approx(3.7 * a.mae, abs=1e-12)
    assert b.accuracy == pytest.approx(a.accuracy, abs=1e-12)
    assert b.r2 == pytest.approx(a.r2, abs=1e-12)
    assert b.var == pytest.approx(a.var, abs=1e-12)


def test_shift_invariance_of_r2_and_var():
    rng = np.random.default_rng(2)
    truth = rng.uniform(1, 10, size=(5, 4))
    pred = truth + rng.normal(0, 1, size=(5, 4))
    a = compute_metrics(truth, pred)
    b = compute_metrics(truth + 100.0, pred + 100.0)
    assert b.r2 == pytest.approx(a.r2, abs=1e-9)
    assert b.var == pytest.approx(a.var, abs=1e-9)


def test_rmse_at_least_mae_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        truth = rng.normal(size=8)
        pred = rng.normal(size=8)
        rep = compute_metrics(truth, pred)
        assert rep.rmse >= rep.mae - 1e-15


def test_zero_truth_flags_accuracy():
    rep = compute_metrics(np.zeros(4), np.zeros(4))
    assert rep.accuracy is None
    assert "accuracy" in rep.undefined


def test_constant_truth_flags_r2_var():
    rep = compute_metrics(np.full(4, 2.0), np.full(4, 2.5))
    assert rep.r2 is None and rep.var is None
    assert "r2" in rep.undefined and "var" in rep.undefined
    assert rep.accuracy is not None


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        compute_metrics(np.zeros((2, 2)), np.zeros((2, 3)))
