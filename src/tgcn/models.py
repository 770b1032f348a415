"""Forecasting models: graph-convolutional encoder, gated recurrent cells,
sequence unrolling with a linear output head, and the historical-average
baseline. All learnable state lives in autodiff Tensors.

Every model kind first maps a series to its parameter-free features, one
per timestep, stored node by node, (T, n) -> (n, T, r): P·x_t for the GCN
baseline, [P·relu(P·x_t) | P·relu(−P·x_t)] for T-GCN (r = 2, below), and
x_t itself for the GRU and the historical average. A window is a run of
seq_len timesteps of them, so each timestep's features are computed once
however many windows share it: a stack of windows that slides over one
series by one step per window is read as that series, any other stack as
its own B·seq_len rows (`read_stack`, `FeatureWindows`). `train` computes
them once for its training stack, `predict` once per call, and every kind
reads a batch as `FeatureWindows.rows`, each node's windows in turn.

A batch of B windows over n nodes is stacked node-major: every layer works
on (n*B)-row matrices whose rows i*B ... i*B+B-1 belong to node i. Viewed as
(n, B*d), such a matrix is one feature matrix, so a graph propagation is one
matrix product and no layer needs to know B; `predict` maps the rows back to
(B, n, horizon).

The recurrent cells' input has rank r in the hidden dimension. A cell gives
`autodiff.gru_unroll` its windows' rows viewed step-major, an (L, m, r)
view, and a learned (r, hidden) lift. The unroll copies the view once
into its own feature-major (L, r, m) layout and runs every timestep as
one tape node. For T-GCN this needs the graph convolution to see only
x_t, one value per node (a convolution of [x_t | h] would not reduce): then
relu(y·w0) = relu(y)·relu(w0) + relu(−y)·relu(−w0) for y = P·x_t, so the
convolution is the features [P·relu(y) | P·relu(−y)] (r = 2) times the lift
relu([w0; −w0])·w1. For the GRU baseline x_t·w_in has r = 1.

Each encoder applies the head's weight proj_w itself, and `SequenceModel`
adds the bias. The cells multiply their last state by it. The GCN baseline
is linear after its ReLU, so it folds proj_w into its last weight and
propagates last: prop·(relu(Y·W0)·(W1·proj_w)) with Y the windows' P·x_t,
whose propagation and W1 product run on horizon columns instead of hidden
ones. Its hidden layer runs as one row-tiled `autodiff.relu_mlp`, which
keeps only the ReLU's mask for the backward.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (CheckpointError, ConfigError, ContractError, ShapeError,
                     check_integer)

CHECKPOINT_MAGIC = b"TGCN"
CHECKPOINT_VERSION = 1

GATE_PARAMS = ("w_u", "w_r", "w_c", "b_u", "b_r", "b_c")
SIGNS = np.array([[1.0], [-1.0]])  # S in the T-GCN lift relu(S·w0)·w1


def _param(rows, cols):
    return Tensor(np.zeros((rows, cols)), requires_grad=True)


def _is_bias(name):
    return name.startswith("b_") or name == "proj_b"


def _propagated(prop, series):
    """P·x_t of every timestep of a (T, n) series, as (n, T)."""
    return ad.graph_propagate(prop, np.ascontiguousarray(series.T)).data


def _values(series):
    """(T, n) series -> (n, T, 1): x_t itself, the features of the GRU and
    the historical average."""
    return np.ascontiguousarray(series.T)[..., None]


def read_stack(windows):
    """A (B, L, n) stack of windows as (series, starts), window b being
    series[starts[b]:starts[b] + L]. A stack whose windows step one row
    apart (equal first two strides: every `make_windows` set and every
    unit-step slice of one) is read as the count + L − 1 rows it covers,
    any other as its own B·L rows."""
    count, steps, n = windows.shape
    if count and windows.strides[0] == windows.strides[1]:
        series = as_strided(windows, (count + steps - 1, n),
                            windows.strides[1:], writeable=False)
        return series, np.arange(count)
    return windows.reshape(count * steps, n), np.arange(count) * steps


class FeatureWindows(NamedTuple):
    """Windows of an (n, T, r) feature series, stored node by node: window b
    covers timesteps starts[b] ... starts[b] + seq_len − 1."""
    features: np.ndarray
    starts: np.ndarray
    seq_len: int

    def take(self, idx):
        """The windows idx, in that order."""
        return self._replace(starts=self.starts[idx])

    def rows(self):
        """(n·B, seq_len, r), contiguous: each window's features, node-major
        rows (rows i·B ... i·B + B − 1 are node i's windows)."""
        rows = np.take(self.features,
                       self.starts[:, None] + np.arange(self.seq_len), axis=1)
        return rows.reshape(-1, *rows.shape[2:])


class GcnEncoder:
    """The GCN baseline: the two-layer graph convolution
    prop·relu(prop·X·W0)·W1 followed by the linear head. `params` holds the
    weights under their checkpoint names.

    `features` is the parameter-free prop·x_t of each timestep. Everything
    after the ReLU is linear, so the head folds into the last weight:
    (prop·H·W1)·head = prop·(H·(W1·head)). `encode` runs the second
    propagation last, on head's few columns rather than W1's hidden ones,
    and the hidden layer relu(Y·W0)·(W1·head) is one `autodiff.relu_mlp`
    node, so no (rows, hidden) activation is kept.
    """

    def __init__(self, propagation, in_dim, hidden):
        self.propagation = np.asarray(propagation, dtype=np.float64)
        self.w0 = _param(in_dim, hidden)
        self.w1 = _param(hidden, hidden)
        self.params = {"gcn.w0": self.w0, "gcn.w1": self.w1}

    def features(self, series):
        """(T, n) series -> (n, T, 1): prop·x_t of every timestep."""
        return _propagated(self.propagation, series)[..., None]

    def tape_bytes(self, seq_len, horizon):
        """Bytes a recording `encode` keeps per node-major row: the hidden
        layer's bool mask and its and the propagation's (rows, horizon)
        outputs."""
        return self.w1.shape[0] + 16 * horizon

    def encode(self, windows, head):
        """prop·relu(Y·W0)·W1·head for FeatureWindows whose rows Y are each
        node's seq_len features."""
        w = self.w1 @ head  # recorded, so autodiff gives w1 and head gradients
        y = windows.rows().reshape(-1, windows.seq_len)  # r = 1
        return ad.graph_propagate(self.propagation,
                                  ad.relu_mlp(y, self.w0, w))

    def forward(self, x, head):
        """prop·relu(prop·x·W0)·W1·head for a constant node-major stack x of
        n·B rows, each a window of d timesteps. x receives no gradient."""
        if getattr(x, "requires_grad", False):
            raise ContractError("GcnEncoder.forward: x requires grad, but "
                                "the encoder's input gets no gradient")
        x = getattr(x, "data", x)
        # x's d columns as one window of a d-step series over its n·B rows
        return self.encode(FeatureWindows(
            self.features(x.T), np.zeros(1, int), x.shape[-1]), head)


class TgcnCell:
    """GRU-style cell whose input transform is the graph convolution
    P·relu(P·x_t·w0)·w1 of the (m, 1) input x_t.

    `params` holds w0 and w1 (as `gcn.w0`, `gcn.w1`), then the gate weights
    and biases (`GATE_PARAMS`), all also attributes, under their checkpoint
    names. The input transform has rank r in the hidden dimension, so a
    cell supplies it as parameter-free per-timestep `features` (n, T, r)
    and a learned `lift` (r, hidden), and `autodiff.gru_unroll` runs the
    gated updates on a window's steps of them, viewed step-major.
    """

    def __init__(self, propagation, hidden):
        self.propagation = np.asarray(propagation, dtype=np.float64)
        self.w0, self.w1 = _param(1, hidden), _param(hidden, hidden)
        self._init_gates({"gcn.w0": self.w0, "gcn.w1": self.w1}, hidden)

    def _init_gates(self, input_params, hidden):
        self.hidden = hidden
        gates = {name: _param(2 * hidden if name[0] == "w" else 1, hidden)
                 for name in GATE_PARAMS}
        vars(self).update(gates)
        self.params = {**input_params, **gates}

    def features(self, series):
        """(T, n) series -> the (n, T, 2) features [P·relu(y) | P·relu(−y)],
        y = P·x_t, of every timestep; P·relu(y·w0)·w1 equals
        features[:, t]·lift()."""
        prop = self.propagation
        y = _propagated(prop, series)
        z = np.empty(y.shape + (2,))
        np.maximum(y, 0.0, out=z[..., 0])
        np.maximum(-y, 0.0, out=z[..., 1])
        f = ad.graph_propagate(prop, z.reshape(len(prop), -1)).data
        return f.reshape(z.shape)

    def tape_bytes(self, seq_len, horizon):
        """Bytes a recording `encode` keeps per node-major row: the
        recurrence's gates [u; r] and candidates c of every step."""
        return seq_len * 3 * self.hidden * 8

    def lift(self):
        """relu([w0; −w0])·w1, recorded so that w0 and w1 get gradients."""
        return ad.relu(Tensor(SIGNS) @ self.w0) @ self.w1

    def _unroll(self, rows, h0):
        # (m, L, r) rows as the step-major (L, m, r) view gru_unroll reads
        return ad.gru_unroll(rows.transpose(1, 0, 2), self.lift(), h0,
                             *(self.params[name] for name in GATE_PARAMS))

    def step(self, x_t, h_prev):
        """One update from the constant (m, 1) input x_t and state h_prev."""
        return self._unroll(self.features(
            np.reshape(getattr(x_t, "data", x_t), (1, -1))), h_prev)

    def encode(self, windows, head):
        """Unroll FeatureWindows from a zero state; the last hidden state
        times head."""
        rows = windows.rows()
        # a zero-stride constant: the zero state takes no memory
        return self._unroll(
            rows, np.broadcast_to(0.0, (len(rows), self.hidden))) @ head


class GruCell(TgcnCell):
    """Plain GRU baseline: the per-node input is lifted to hidden width by a
    learned linear map instead of a graph convolution."""

    def __init__(self, hidden):
        self.w_in = _param(1, hidden)
        self._init_gates({"w_in": self.w_in}, hidden)

    def features(self, series):
        return _values(series)

    def lift(self):
        return self.w_in


class ModelKind(NamedTuple):
    needs_graph: bool
    # model -> the encoder, which applies the linear head's weight; None
    # for the historical average, which learns nothing
    build: Callable | None


MODEL_KINDS = {
    "tgcn": ModelKind(True, lambda m: TgcnCell(m.propagation, m.hidden)),
    "gcn": ModelKind(True, lambda m: GcnEncoder(m.propagation, m.seq_len,
                                                m.hidden)),
    "gru": ModelKind(False, lambda m: GruCell(m.hidden)),
    "ha": ModelKind(False, None),
}


class SequenceModel:
    """One forecasting model: an encoder (a recurrent cell unrolled over the
    window, or the GCN over the whole window) plus the linear output head,
    whose weight the encoder applies.

    kind is a key of MODEL_KINDS. Prediction maps a window of seq_len
    timesteps over n_nodes to horizon future values per node.
    """

    def __init__(self, kind, n_nodes, hidden, seq_len, horizon, propagation=None):
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {kind!r}")
        needs_graph, build = MODEL_KINDS[kind]
        sizes = {"n_nodes": n_nodes, "seq_len": seq_len, "horizon": horizon}
        if build is not None:
            sizes["hidden"] = hidden
        for name, value in sizes.items():
            check_integer(repr(name), value)
        self.propagation = None
        if needs_graph:
            if propagation is None:
                raise ConfigError(f"model kind {kind} requires a road network")
            self.propagation = np.asarray(propagation, dtype=np.float64)
            if self.propagation.shape != (n_nodes, n_nodes):
                raise ConfigError(f"model has {n_nodes} nodes, graph has "
                                  f"shape {self.propagation.shape}")
        self.kind = kind
        self.n_nodes = n_nodes
        self.hidden = hidden
        self.seq_len = seq_len
        self.horizon = horizon
        self.encoder = self.proj_w = self.proj_b = None
        if build is not None:
            self.encoder = build(self)
            self.proj_w = _param(hidden, horizon)
            self.proj_b = _param(1, horizon)

    # -- parameter bookkeeping --------------------------------------------

    def parameters(self):
        """Ordered name -> Tensor mapping of all learnable parameters."""
        if self.encoder is None:
            return {}
        return {**self.encoder.params,
                "proj_w": self.proj_w, "proj_b": self.proj_b}

    def weight_parameters(self):
        """Weights subject to L2 regularization (biases excluded)."""
        return {k: v for k, v in self.parameters().items() if not _is_bias(k)}

    def init_parameters(self, seed):
        """Glorot-uniform weights, zero biases, deterministic per seed."""
        rng = np.random.default_rng(seed)
        for name, p in self.parameters().items():
            if _is_bias(name):
                p.data[:] = 0.0
            else:
                fan_in, fan_out = p.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                p.data[:] = rng.uniform(-bound, bound, size=p.shape)

    def tape_bytes(self):
        """Bytes a recording forward keeps per window: n_nodes rows of the
        encoder's `tape_bytes`; none for the historical average."""
        if self.encoder is None:
            return 0
        return self.n_nodes * self.encoder.tape_bytes(self.seq_len,
                                                      self.horizon)

    # -- forward -----------------------------------------------------------

    def feature_windows(self, windows):
        """An array (B, seq_len, n_nodes), or one (seq_len, n_nodes) window,
        as FeatureWindows of this kind's features (`read_stack`)."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[None]
        _, seq_len, n = windows.shape
        if seq_len != self.seq_len:
            raise ShapeError(
                f"window has {seq_len} timesteps, model expects {self.seq_len}")
        if n != self.n_nodes:
            raise ShapeError(
                f"window has {n} nodes, model expects {self.n_nodes}")
        series, starts = read_stack(windows)
        features = _values if self.encoder is None else self.encoder.features
        return FeatureWindows(features(series), starts, seq_len)

    def forward(self, windows):
        """windows: an array (B, seq_len, n_nodes), or FeatureWindows from
        `feature_windows` -> Tensor (n*B, horizon), node-major rows."""
        if not isinstance(windows, FeatureWindows):
            windows = self.feature_windows(windows)
        if self.encoder is None:  # the batch as one (seq_len, n*B) window
            window = np.ascontiguousarray(windows.rows()[..., 0].T)
            return Tensor(ha_predict(window, self.horizon))
        return self.encoder.encode(windows, self.proj_w) + self.proj_b

    def predict(self, windows):
        """Inference without graph recording; returns (batch, n, horizon)."""
        windows = np.asarray(windows, dtype=np.float64)
        with ad.no_grad():
            out = self.forward(windows).data
        # node-major rows back to (B, n, horizon)
        out = out.reshape(self.n_nodes, -1, self.horizon).transpose(1, 0, 2)
        return out[0] if windows.ndim == 2 else out


def ha_predict(window, horizon):
    """Historical average: per-node mean of the window, constant over the
    horizon (hence identical scores for every horizon setting)."""
    window = np.asarray(window, dtype=np.float64)
    means = window.mean(axis=0)
    return np.tile(means[:, None], (1, horizon))


# -- checkpoint I/O --------------------------------------------------------

def save_checkpoint(model, path):
    params = model.parameters()
    header = {
        "kind": model.kind,
        "n_nodes": model.n_nodes,
        "hidden": model.hidden,
        "seq_len": model.seq_len,
        "horizon": model.horizon,
        "params": [[name, list(p.shape)] for name, p in params.items()],
    }
    for name, p in params.items():  # before the file is touched
        if not np.all(np.isfinite(p.data)):
            raise CheckpointError(f"{path}: refusing to save non-finite {name}")
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params.values():
            fh.write(p.data.astype("<f8").tobytes())


def _check_header(path, header):
    """Raise CheckpointError naming the first header key that is missing or
    has the wrong type; SequenceModel checks the ranges."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")

    def bad(key, want):
        if key not in header:
            return CheckpointError(f"{path}: header lacks {key!r}")
        return CheckpointError(
            f"{path}: header {key!r} is {header[key]!r}, expected {want}")

    if header.get("kind") not in MODEL_KINDS:
        raise bad("kind", f"one of {', '.join(MODEL_KINDS)}")
    for key in ("n_nodes", "hidden", "seq_len", "horizon"):
        if type(header.get(key)) is not int:
            raise bad(key, "an integer")
    if not isinstance(header.get("params"), list):
        raise bad("params", "a list of [name, shape] pairs")


def load_checkpoint(path, propagation=None):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc.strerror}") from exc
    if len(raw) < 10 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    (version,) = struct.unpack("<H", raw[4:6])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (hlen,) = struct.unpack("<I", raw[6:10])
    if len(raw) < 10 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[10:10 + hlen])
    except ValueError:
        raise CheckpointError(f"{path}: corrupt header JSON")
    _check_header(path, header)
    try:
        model = SequenceModel(header["kind"], header["n_nodes"],
                              header["hidden"], header["seq_len"],
                              header["horizon"], propagation=propagation)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except (MemoryError, ValueError) as exc:  # numpy refused the allocation
        sizes = ", ".join(f"{k}={header[k]}" for k in
                          ("n_nodes", "hidden", "seq_len", "horizon"))
        raise CheckpointError(f"{path}: header sizes {sizes} are too large "
                              f"to build ({exc})") from None
    params = model.parameters()
    expected = [[name, list(p.shape)] for name, p in params.items()]
    if header["params"] != expected:
        raise CheckpointError(f"{path}: parameter table mismatch")
    offset = 10 + hlen
    for name, p in params.items():
        nbytes = p.data.size * 8
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated data for {name}")
        p.data[:] = np.frombuffer(chunk, dtype="<f8").reshape(p.shape)
        if not np.all(np.isfinite(p.data)):
            raise CheckpointError(f"{path}: non-finite value in {name}")
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after parameters")
    return model
