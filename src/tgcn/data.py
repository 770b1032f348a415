"""Feature-matrix ingestion and preparation: linear interpolation of missing
values, min-max normalization fit on the training split only, chronological
train/test windowing, and the rescaled-noise injection used for the
perturbation experiments."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ParseError, check_integer

SPLIT_FRACTION = 0.8  # the first 80% of the timesteps are the training rows


@dataclass
class TimeSeriesDataset:
    """Node speed series: rows are timesteps, columns are nodes."""
    values: np.ndarray
    norm_min: float | None = None
    norm_max: float | None = None

    @property
    def n_timesteps(self):
        return self.values.shape[0]

    @property
    def n_nodes(self):
        return self.values.shape[1]

    @property
    def split_index(self):
        return int(np.floor(SPLIT_FRACTION * self.n_timesteps))

    @property
    def is_normalized(self):
        return self.norm_min is not None


@dataclass
class WindowSet:
    """Sliding windows: inputs (count, seq_len, n), targets (count, n, horizon)."""
    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self):
        return self.inputs.shape[0]


def read_csv_matrix(path):
    """Read a headerless CSV of finite floats into a 2-D array. Blank lines
    are skipped and cells follow numpy's number grammar; every failure is a
    ParseError naming the path and, for a bad cell, its file row and
    column.

    numpy parses the open UTF-8 text file directly. Only when that fails
    (a bad cell or row, a line of nothing but whitespace, which numpy
    refuses, a byte that is not UTF-8, an empty file, a file that does not
    open) or gives a non-finite cell does `_read_located` read the file
    again, to accept it as the byte path does or to say where it is
    wrong."""
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # numpy warns of a file without rows, which the byte path refuses
            warnings.simplefilter("error", UserWarning)
            values = _parse(fh)
    except (OSError, ValueError, UserWarning):  # UnicodeDecodeError included
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    return _read_located(path)


def _read_located(path):
    """`read_csv_matrix` from the file's bytes: decoded, its blank lines
    dropped, and each failure located in file terms."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc
    # universal newlines, as a text-mode file reads them
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows, linenos = [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip():  # loadtxt strips each cell as str.strip would
            rows.append(line)
            linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: empty file")
    try:
        values = _parse(rows)
    except ValueError as exc:
        raise ParseError(f"{path}: {_locate(rows, linenos, exc)}") from None
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(f"{path}: non-finite cell at row {linenos[i]}, "
                         f"column {j + 1}")
    return values


def _parse(rows):
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def _locate(rows, linenos, exc):
    """What is wrong with the first bad row, in file terms: its first cell
    that `_parse` refuses, or else a column count unlike the first row's."""
    width = rows[0].count(",") + 1
    for row, lineno in zip(rows, linenos):
        cells = row.split(",")
        if not _parses(row):
            bad = next(i for i, c in enumerate(cells) if not _parses(c))
            return f"non-numeric cell at row {lineno}, column {bad + 1}"
        if len(cells) != width:
            return f"row {lineno} has {len(cells)} columns, expected {width}"
    return str(exc)  # no row is bad alone: numpy's own message


def _parses(text):
    # an empty cell is no number, though loadtxt reads "" as an empty line
    if not text:
        return False
    try:
        _parse([text])
    except ValueError:
        return False
    return True


def load_features(path, expect_nodes=None, transpose=False):
    """Read a headerless CSV of floats; rows are timesteps unless transpose
    is set (for files stored as one row per road)."""
    values = read_csv_matrix(path)
    if transpose:
        values = values.T
    if expect_nodes is not None and values.shape[1] != expect_nodes:
        raise ParseError(
            f"{path}: {values.shape[1]} nodes, expected {expect_nodes}")
    return TimeSeriesDataset(values=values)


def interpolate_missing(dataset, missing_marker=0.0):
    """Per node, linearly interpolate cells equal to missing_marker over time;
    leading/trailing gaps take the nearest valid value."""
    # node-major, so that each node's series is one contiguous row
    series = np.array(dataset.values.T, order="C")
    valid = series != missing_marker
    counts = valid.sum(axis=1)
    if not counts.all():
        node = np.flatnonzero(counts == 0)[0]
        raise DataError(f"node {node} has no valid observations")
    t_idx = np.arange(series.shape[1], dtype=np.float64)
    for node in np.flatnonzero(counts < series.shape[1]):
        row, ok = series[node], valid[node]
        # np.interp clamps outside the valid range, giving the edge fill
        series[node] = np.interp(t_idx, t_idx[ok], row[ok])
    return replace(dataset, values=series.T)


def normalize(dataset):
    """Min-max scale into [0,1] with statistics from the training rows only.
    Test values above the training max may exceed 1; that is allowed."""
    if dataset.is_normalized:
        return dataset
    train = dataset.values[:dataset.split_index]
    lo = float(train.min())
    hi = float(train.max())
    if hi <= lo:
        raise DataError("training split is constant; cannot normalize")
    # C-ordered whatever the input's layout (a transposed file, or
    # interpolate_missing's node-major copy), so make_windows need not copy
    scaled = np.subtract(dataset.values, lo, order="C")
    scaled /= hi - lo
    return replace(dataset, values=scaled, norm_min=lo, norm_max=hi)


def denormalize(dataset, matrix):
    if not dataset.is_normalized:
        raise DataError("dataset has no normalization statistics")
    return np.asarray(matrix) * (dataset.norm_max - dataset.norm_min) + dataset.norm_min


def make_windows(dataset, seq_len, horizon):
    """Chronological split into train/test window sets.

    The window starting at t has inputs t .. t+seq_len-1 and targets
    t+seq_len .. t+seq_len+horizon-1. With s the split index, it is a
    training window if t+seq_len+horizon < s, so its targets end at s-2 or
    earlier, and a test window if t+seq_len >= s, so its targets start at
    or after s. The windows in between are in neither set: those whose
    targets straddle s, and the one whose targets end at s-1.

    Both sets are read-only views of the series, made C-ordered first if
    need be, so a reduction over a window (the historical average) sums in
    the same order whatever the layout of the values.
    """
    check_integer("seq_len", seq_len)
    check_integer("horizon", horizon)
    values = np.ascontiguousarray(dataset.values)
    total = values.shape[0]
    if total < seq_len + horizon + 1:
        raise DataError(
            f"series of length {total} too short for seq_len={seq_len}, "
            f"horizon={horizon}")
    # window t is inputs[t] = values[t:t+seq_len] and targets[t], whose
    # [i, k] is values[t+seq_len+k, i]
    targets = sliding_window_view(values[seq_len:], horizon, axis=0)
    inputs = sliding_window_view(values, seq_len, axis=0).transpose(0, 2, 1)
    n_train = max(0, dataset.split_index - seq_len - horizon)
    first_test = max(0, dataset.split_index - seq_len)
    return (WindowSet(inputs[:n_train], targets[:n_train]),
            WindowSet(inputs[first_test:len(targets)], targets[first_test:]))


def rescaled_noise_matrix(shape, dist, param, seed):
    """Draw a noise matrix and min-max rescale it so its own extrema are
    exactly 0 and 1."""
    # the paper's settings are at most 16, and the rescale cancels a
    # Gaussian's scale; far larger values overflow the rescale (Gaussian,
    # near 1e307) or the Poisson sampler (λ near 9.2e18), and NaN fails both
    # comparisons
    if param is None or not 0 < param <= 1e6:
        raise ConfigError(f"noise parameter must be in (0, 1e6], got {param}")
    rng = np.random.default_rng(seed)
    if dist == "gaussian":
        noise = rng.normal(0.0, param, size=shape)
    elif dist == "poisson":
        # centering by the mean is cosmetic; the rescale below fixes the range
        noise = rng.poisson(param, size=shape).astype(np.float64) - param
    else:
        raise ConfigError(f"unknown noise distribution {dist!r}")
    lo, hi = noise.min(), noise.max()
    if hi <= lo:
        raise ConfigError("degenerate noise matrix; cannot rescale to [0,1]")
    return (noise - lo) / (hi - lo)


def add_noise(dataset, dist, param, seed):
    """Add a rescaled noise matrix to the normalized features, no clipping."""
    if not dataset.is_normalized:
        raise DataError("add_noise expects a normalized dataset")
    noise = rescaled_noise_matrix(dataset.values.shape, dist, param, seed)
    return replace(dataset, values=dataset.values + noise)
