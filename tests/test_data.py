import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_csv
from tgcn import data
from tgcn.errors import ConfigError, DataError, ParseError


def make_dataset(values, **kw):
    return data.TimeSeriesDataset(values=np.asarray(values, dtype=float), **kw)


def test_load_features_basic(tmp_path):
    path = write_csv(tmp_path / "f.csv", [[1, 2], [3, 4], [5, 6]])
    ds = data.load_features(path)
    assert ds.n_timesteps == 3 and ds.n_nodes == 2


def test_load_features_transpose(tmp_path):
    path = write_csv(tmp_path / "f.csv", [[1, 2, 3], [4, 5, 6]])
    ds = data.load_features(path, transpose=True)
    assert ds.n_timesteps == 3 and ds.n_nodes == 2
    assert np.array_equal(ds.values[:, 0], [1, 2, 3])


def test_load_features_node_count_mismatch(tmp_path):
    path = write_csv(tmp_path / "f.csv", [[1, 2], [3, 4]])
    with pytest.raises(ParseError, match="expected 3"):
        data.load_features(path, expect_nodes=3)


def test_load_features_non_numeric(tmp_path):
    (tmp_path / "f.csv").write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError, match="row 2, column 2"):
        data.load_features(tmp_path / "f.csv")


def test_interpolate_midpoint():
    ds = make_dataset([[2.0], [0.0], [4.0]])
    out = data.interpolate_missing(ds, missing_marker=0.0)
    assert np.array_equal(out.values[:, 0], [2.0, 3.0, 4.0])


def test_interpolate_no_missing_unchanged():
    ds = make_dataset([[2.0], [3.0], [4.0]])
    out = data.interpolate_missing(ds, missing_marker=0.0)
    assert np.array_equal(out.values, ds.values)


def test_interpolate_edge_fill():
    ds = make_dataset([[0.0], [5.0], [0.0]])
    out = data.interpolate_missing(ds, missing_marker=0.0)
    assert np.array_equal(out.values[:, 0], [5.0, 5.0, 5.0])


def test_interpolate_preserves_observed():
    rng = np.random.default_rng(0)
    vals = rng.uniform(1, 10, size=(20, 3))
    mask = rng.random((20, 3)) < 0.3
    vals[mask] = 0.0
    ds = make_dataset(vals)
    out = data.interpolate_missing(ds, missing_marker=0.0)
    assert np.array_equal(out.values[~mask], vals[~mask])


def _interpolate_per_column(values, missing_marker=0.0):
    """The per-column loop over a row-major copy that interpolate_missing
    replaced."""
    values = values.copy()
    t_idx = np.arange(values.shape[0], dtype=np.float64)
    for node in range(values.shape[1]):
        col = values[:, node]
        valid = col != missing_marker
        if not valid.all():
            values[:, node] = np.interp(t_idx, t_idx[valid], col[valid])
    return values


@pytest.mark.parametrize("layout", ["rows", "transposed"])
def test_interpolate_bit_for_bit_with_per_column_loop(layout):
    rng = np.random.default_rng(4)
    vals = rng.uniform(1, 10, size=(50, 7))
    vals[:3, 0] = 0.0              # leading gap
    vals[-4:, 1] = 0.0             # trailing gap
    vals[[10, 11, 12, 30], 2] = 0.0  # interior gaps
    vals[:2, 3] = vals[20:22, 3] = vals[-1:, 3] = 0.0  # all three
    vals[rng.random(50) < 0.5, 4] = 0.0  # scattered
    vals[25, 5] = 0.0              # one missing cell; column 6 has no gap
    if layout == "transposed":  # as load_features(..., transpose=True) gives
        vals = np.ascontiguousarray(vals.T).T
    before = vals.copy()
    out = data.interpolate_missing(make_dataset(vals)).values
    want = _interpolate_per_column(vals)
    assert np.array_equal(vals, before)  # the input is not touched
    assert out.shape == want.shape
    assert out.tobytes(order="C") == want.tobytes(order="C")
    assert np.array_equal(out[:, 6], vals[:, 6])


def test_interpolate_all_missing_node():
    ds = make_dataset([[0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(DataError, match="node 0"):
        data.interpolate_missing(ds, missing_marker=0.0)


def test_normalize_endpoints_and_midpoint():
    ds = make_dataset(np.arange(11.0)[:, None])
    norm = data.normalize(ds)
    # train split is rows 0..7, so min 0 and max 7 set the scale
    assert norm.norm_min == 0.0 and norm.norm_max == 7.0
    assert norm.values[0, 0] == 0.0
    assert norm.values[7, 0] == 1.0
    assert norm.values[10, 0] > 1.0  # test rows may exceed 1, by design


def test_normalize_round_trip():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng.uniform(3, 80, size=(40, 4)))
    norm = data.normalize(ds)
    back = data.denormalize(norm, norm.values)
    assert np.max(np.abs(back - ds.values)) < 1e-12
    train = norm.values[:norm.split_index]
    assert train.min() >= 0.0 and train.max() <= 1.0


@pytest.mark.parametrize("order", ["C", "F"])
def test_normalize_is_c_ordered_and_exact(order):
    rng = np.random.default_rng(2)
    values = np.asarray(rng.uniform(3, 80, size=(40, 4)), order=order)
    norm = data.normalize(make_dataset(values))
    lo, hi = values[:32].min(), values[:32].max()
    assert norm.values.flags.c_contiguous
    assert norm.values.tobytes() == ((values - lo) / (hi - lo)).tobytes("C")


def test_normalize_constant_raises():
    ds = make_dataset(np.full((20, 2), 5.0))
    with pytest.raises(DataError):
        data.normalize(ds)


def test_normalize_returns_a_normalized_dataset_unchanged():
    norm = _norm_ds()
    assert data.normalize(norm) is norm


def test_denormalize_requires_statistics():
    ds = make_dataset(np.arange(10.0)[:, None])
    with pytest.raises(DataError, match="no normalization statistics"):
        data.denormalize(ds, ds.values)


def test_make_windows_counts_20_timesteps():
    # 20 timesteps, window 3, horizon 1, split at 16: 12 train, 4 test
    ds = data.normalize(make_dataset(np.arange(20.0)[:, None] + 1))
    train, test = data.make_windows(ds, seq_len=3, horizon=1)
    assert len(train) == 12
    assert len(test) == 4


def test_make_windows_adjacency():
    ds = data.normalize(make_dataset(np.arange(30.0)[:, None] + 1))
    train, test = data.make_windows(ds, seq_len=4, horizon=2)
    for ws, first in ((train, 0), (test, ds.split_index - 4)):
        for start in range(first, first + len(ws)):
            i = start - first
            assert np.array_equal(ws.inputs[i],
                                  ds.values[start:start + 4])
            assert np.array_equal(ws.targets[i],
                                  ds.values[start + 4:start + 6].T)


def test_make_windows_stride_one_overlap():
    ds = data.normalize(make_dataset(np.arange(30.0)[:, None] + 1))
    train, _ = data.make_windows(ds, seq_len=4, horizon=1)
    assert np.array_equal(train.inputs[:, 0], ds.values[:len(train)])
    assert np.array_equal(train.inputs[0][1:], train.inputs[1][:-1])


def test_make_windows_no_test_leakage_into_train():
    rng = np.random.default_rng(2)
    vals = rng.uniform(1, 9, size=(50, 3))
    ds1 = data.normalize(make_dataset(vals))
    vals2 = vals.copy()
    vals2[ds1.split_index + 1:] += 100.0  # tamper strictly after the split
    ds2 = data.normalize(make_dataset(vals2))
    t1, _ = data.make_windows(ds1, seq_len=5, horizon=2)
    t2, _ = data.make_windows(ds2, seq_len=5, horizon=2)
    assert np.array_equal(t1.inputs, t2.inputs)
    assert np.array_equal(t1.targets, t2.targets)


def test_make_windows_too_short():
    ds = data.normalize(make_dataset(np.arange(6.0)[:, None] + 1))
    with pytest.raises(DataError):
        data.make_windows(ds, seq_len=5, horizon=2)


@pytest.mark.parametrize("field,seq_len,horizon", [
    ("seq_len", 2.5, 1), ("seq_len", True, 1), ("horizon", 2, 1.0),
    ("horizon", 2, False)])
def test_make_windows_refuses_a_non_integer_size(field, seq_len, horizon):
    ds = make_dataset(np.arange(40.0).reshape(20, 2))
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        data.make_windows(ds, seq_len, horizon)
    # numpy integers are sizes too: 20 steps split at 16, so 13 windows
    train, _ = data.make_windows(ds, np.int64(2), np.int32(1))
    assert train.inputs.shape == (13, 2, 2)


def test_make_windows_horizon_exhausts_test():
    ds = data.normalize(make_dataset(np.arange(20.0)[:, None] + 1))
    _, test = data.make_windows(ds, seq_len=3, horizon=10)
    assert len(test) == 0


# (T, seq_len, horizon) -> split index s, then the train and the test
# starts as (count, first, last); the window whose targets end at s-1,
# t = s - seq_len - horizon, is in neither set
PINNED_WINDOWS = {
    (20, 3, 1): (16, (12, 0, 11), (4, 13, 16)),
    (30, 4, 2): (24, (18, 0, 17), (5, 20, 24)),
    (240, 12, 3): (192, (177, 0, 176), (46, 180, 225)),
    (2976, 12, 1): (2380, (2367, 0, 2366), (596, 2368, 2963)),
    (14, 12, 1): (11, (0, None, None), (2, 0, 1)),
    (20, 3, 10): (16, (3, 0, 2), (0, None, None)),
}


@pytest.mark.parametrize("shape", PINNED_WINDOWS)
def test_make_windows_pinned_counts_and_starts(shape):
    total, seq_len, horizon = shape
    split, want_train, want_test = PINNED_WINDOWS[shape]
    ds = make_dataset(np.arange(float(total))[:, None])
    assert ds.split_index == split
    for ws, (count, first, last) in zip(
            data.make_windows(ds, seq_len, horizon), (want_train, want_test)):
        starts = ws.inputs[:, 0, 0].astype(int).tolist()  # values[t] == t
        assert len(ws) == count
        if count:
            assert (starts[0], starts[-1]) == (first, last)
            assert starts == list(range(first, last + 1))


@settings(max_examples=150, deadline=None)
@given(total=st.integers(1, 60), n=st.integers(1, 3),
       seq_len=st.integers(-1, 9), horizon=st.integers(-1, 6))
def test_make_windows_property(total, n, seq_len, horizon):
    """Either a DataError/ConfigError, or exactly the starts the split rule
    picks, one by one, with every window and target read from the series
    at its start."""
    values = np.arange(total * n, dtype=float).reshape(total, n)
    ds = make_dataset(values)
    try:
        train, test = data.make_windows(ds, seq_len, horizon)
    except ConfigError:
        assert seq_len < 1 or horizon < 1
        return
    except DataError:
        assert total < seq_len + horizon + 1
        return
    assert seq_len >= 1 and horizon >= 1
    s = ds.split_index
    every = range(total - seq_len - horizon + 1)
    expected = ([t for t in every if t + seq_len + horizon < s],
                [t for t in every if t + seq_len >= s])
    for ws, starts in zip((train, test), expected):
        assert ws.inputs.shape == (len(starts), seq_len, n)
        assert ws.targets.shape == (len(starts), n, horizon)
        assert [int(v) // n for v in ws.inputs[:, 0, 0]] == starts
        for i, t in enumerate(starts):
            assert np.array_equal(ws.inputs[i], values[t:t + seq_len])
            assert np.array_equal(
                ws.targets[i], values[t + seq_len:t + seq_len + horizon].T)


def _root(array):
    """The array that owns the memory behind a chain of views."""
    while getattr(array, "base", None) is not None:
        array = array.base
    return array


@pytest.mark.parametrize("order", ["C", "F"])
def test_make_windows_read_only_views_of_one_series(order):
    values = np.asarray(np.arange(60.0).reshape(20, 3), order=order)
    sets = data.make_windows(make_dataset(values), seq_len=4, horizon=2)
    arrays = [a for ws in sets for a in (ws.inputs, ws.targets)]
    series = _root(arrays[0])
    assert all(_root(a) is series for a in arrays)
    assert all(np.shares_memory(a, series) for a in arrays)
    # a C-ordered series is windowed in place, an F-ordered one copied once
    assert (series is _root(values)) == (order == "C")
    assert np.array_equal(np.asarray(series).reshape(20, 3), values)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def _norm_ds(seed=3, shape=(40, 4)):
    rng = np.random.default_rng(seed)
    return data.normalize(make_dataset(rng.uniform(1, 9, size=shape)))


def test_noise_matrix_rescaled_to_unit_range():
    for dist, param in (("gaussian", 0.4), ("poisson", 4.0)):
        noise = data.rescaled_noise_matrix((40, 4), dist, param, seed=7)
        assert noise.min() == 0.0
        assert noise.max() == 1.0


def test_add_noise_adds_that_matrix():
    ds = _norm_ds()
    noisy = data.add_noise(ds, "gaussian", 0.4, seed=7)
    noise = data.rescaled_noise_matrix(ds.values.shape, "gaussian", 0.4, seed=7)
    assert np.array_equal(noisy.values, ds.values + noise)


def test_add_noise_deterministic():
    ds = _norm_ds()
    a = data.add_noise(ds, "gaussian", 0.2, seed=11)
    b = data.add_noise(ds, "gaussian", 0.2, seed=11)
    assert np.array_equal(a.values, b.values)
    c = data.add_noise(ds, "gaussian", 0.2, seed=12)
    assert not np.array_equal(a.values, c.values)


def test_add_noise_rejects_nonpositive_param():
    ds = _norm_ds()
    with pytest.raises(ConfigError):
        data.add_noise(ds, "gaussian", 0.0, seed=1)
    with pytest.raises(ConfigError):
        data.add_noise(ds, "poisson", -1.0, seed=1)


@pytest.mark.parametrize("dist, param", [
    ("gaussian", float("nan")), ("gaussian", float("inf")),
    ("gaussian", 1e308), ("poisson", float("nan")),
    ("poisson", float("inf")), ("poisson", 1e19)])
def test_noise_matrix_rejects_unusable_param(dist, param):
    # nan would give an all-NaN matrix, the rest overflow the rescale or
    # the Poisson sampler
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(f"got {param}") + "$"):
            data.rescaled_noise_matrix((40, 4), dist, param, seed=1)


@pytest.mark.parametrize("dist, param, shape", [
    ("poisson", 1e-300, (40, 4)), ("gaussian", 0.4, (1, 1))])
def test_noise_matrix_rejects_a_constant_draw(dist, param, shape):
    # a Poisson rate this small draws only zeros, and one cell is its own
    # minimum and maximum: neither has a range to rescale
    with pytest.raises(ConfigError, match="degenerate noise matrix"):
        data.rescaled_noise_matrix(shape, dist, param, seed=1)


def test_add_noise_unknown_dist():
    with pytest.raises(ConfigError):
        data.add_noise(_norm_ds(), "cauchy", 1.0, seed=1)


def test_add_noise_requires_normalized():
    ds = make_dataset(np.random.default_rng(4).uniform(1, 9, size=(40, 4)))
    with pytest.raises(DataError):
        data.add_noise(ds, "gaussian", 0.2, seed=1)
