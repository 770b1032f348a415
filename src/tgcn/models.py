"""Forecasting models: graph-convolutional encoder, gated recurrent cells,
sequence unrolling with a linear output head, and the historical-average
baseline. All learnable state lives in autodiff Tensors.

Batches of windows are vertically stacked: a batch of B windows over n nodes
is processed as (B*n)-row matrices, with the propagation matrix applied per
n-row block.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ShapeError

MODEL_KINDS = ("tgcn", "gcn", "gru", "ha")

CHECKPOINT_MAGIC = b"TGCN"
CHECKPOINT_VERSION = 1


class GcnEncoder:
    """Two-layer graph convolution: prop @ relu(prop @ X @ W0) @ W1.

    The outer activation is the identity; the consuming gates (or linear
    head) apply their own nonlinearity.
    """

    def __init__(self, propagation, in_dim, gc_hidden, out_dim):
        self.propagation = np.asarray(propagation, dtype=np.float64)
        self.w0 = Tensor(np.zeros((in_dim, gc_hidden)), requires_grad=True)
        self.w1 = Tensor(np.zeros((gc_hidden, out_dim)), requires_grad=True)

    def forward(self, x, batch=1):
        h = ad.relu(ad.graph_propagate(self.propagation, x, batch) @ self.w0)
        return ad.graph_propagate(self.propagation, h, batch) @ self.w1


class TgcnCell:
    """GRU-style cell whose input transform is the graph convolution."""

    def __init__(self, propagation, hidden):
        self.hidden = hidden
        self.gcn = GcnEncoder(propagation, 1, hidden, hidden)
        self.w_u = Tensor(np.zeros((2 * hidden, hidden)), requires_grad=True)
        self.w_r = Tensor(np.zeros((2 * hidden, hidden)), requires_grad=True)
        self.w_c = Tensor(np.zeros((2 * hidden, hidden)), requires_grad=True)
        self.b_u = Tensor(np.zeros((1, hidden)), requires_grad=True)
        self.b_r = Tensor(np.zeros((1, hidden)), requires_grad=True)
        self.b_c = Tensor(np.zeros((1, hidden)), requires_grad=True)

    def input_transform(self, x_t, batch):
        return self.gcn.forward(x_t, batch)

    def step(self, x_t, h_prev, batch=1):
        g = self.input_transform(x_t, batch)
        return ad.gru_step(g, h_prev, self.w_u, self.w_r, self.w_c,
                           self.b_u, self.b_r, self.b_c)


class GruCell(TgcnCell):
    """Plain GRU baseline: the per-node input is lifted to hidden width by a
    learned linear map instead of a graph convolution."""

    def __init__(self, hidden):
        super().__init__(np.eye(1), hidden)
        del self.gcn
        self.w_in = Tensor(np.zeros((1, hidden)), requires_grad=True)

    def input_transform(self, x_t, batch):
        return x_t @ self.w_in


class SequenceModel:
    """One forecasting model: a cell or encoder plus the linear output head.

    kind is one of {tgcn, gcn, gru, ha}. Prediction maps a window of
    seq_len timesteps over n_nodes to horizon future values per node.
    """

    def __init__(self, kind, n_nodes, hidden, seq_len, horizon, propagation=None):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if horizon < 1 or seq_len < 1:
            raise ValueError("seq_len and horizon must be >= 1")
        self.kind = kind
        self.n_nodes = n_nodes
        self.hidden = hidden
        self.seq_len = seq_len
        self.horizon = horizon
        self.propagation = None
        self.cell = None
        self.encoder = None
        if kind == "tgcn":
            self.propagation = np.asarray(propagation, dtype=np.float64)
            self.cell = TgcnCell(self.propagation, hidden)
        elif kind == "gru":
            self.cell = GruCell(hidden)
        elif kind == "gcn":
            self.propagation = np.asarray(propagation, dtype=np.float64)
            self.encoder = GcnEncoder(self.propagation, seq_len, hidden, hidden)
        if kind == "ha":
            self.proj_w = None
            self.proj_b = None
        else:
            self.proj_w = Tensor(np.zeros((hidden, horizon)), requires_grad=True)
            self.proj_b = Tensor(np.zeros((1, horizon)), requires_grad=True)

    # -- parameter bookkeeping --------------------------------------------

    def parameters(self):
        """Ordered name -> Tensor mapping of all learnable parameters."""
        params = {}
        if self.kind == "tgcn":
            params["gcn.w0"] = self.cell.gcn.w0
            params["gcn.w1"] = self.cell.gcn.w1
        elif self.kind == "gcn":
            params["gcn.w0"] = self.encoder.w0
            params["gcn.w1"] = self.encoder.w1
        elif self.kind == "gru":
            params["w_in"] = self.cell.w_in
        if self.cell is not None:
            for name in ("w_u", "w_r", "w_c", "b_u", "b_r", "b_c"):
                params[name] = getattr(self.cell, name)
        if self.proj_w is not None:
            params["proj_w"] = self.proj_w
            params["proj_b"] = self.proj_b
        return params

    def weight_parameters(self):
        """Weights subject to L2 regularization (biases excluded)."""
        return {k: v for k, v in self.parameters().items()
                if not k.startswith("b_") and k != "proj_b"}

    def init_parameters(self, seed):
        """Glorot-uniform weights, zero biases, deterministic per seed."""
        rng = np.random.default_rng(seed)
        for name, p in self.parameters().items():
            if name.startswith("b_") or name == "proj_b":
                p.data[:] = 0.0
            else:
                fan_in, fan_out = p.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                p.data[:] = rng.uniform(-bound, bound, size=p.shape)

    # -- forward -----------------------------------------------------------

    def forward(self, windows):
        """windows: array (batch, seq_len, n_nodes) -> Tensor (batch*n, horizon)."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[None]
        batch, seq_len, n = windows.shape
        if seq_len != self.seq_len:
            raise ShapeError(
                f"window has {seq_len} timesteps, model expects {self.seq_len}")
        if n != self.n_nodes:
            raise ShapeError(
                f"window has {n} nodes, model expects {self.n_nodes}")
        if self.kind == "ha":
            return Tensor(np.concatenate(
                [ha_predict(w, self.horizon) for w in windows], axis=0))
        if self.kind == "gcn":
            # window as per-node feature vector of seq_len past values
            feats = Tensor(windows.transpose(0, 2, 1).reshape(batch * n, seq_len))
            h = self.encoder.forward(feats, batch)
        else:
            h = Tensor(np.zeros((batch * n, self.hidden)))
            for t in range(seq_len):
                x_t = Tensor(windows[:, t, :].reshape(batch * n, 1))
                h = self.cell.step(x_t, h, batch)
        return h @ self.proj_w + self.proj_b

    def predict(self, windows):
        """Inference without graph recording; returns (batch, n, horizon)."""
        windows = np.asarray(windows, dtype=np.float64)
        single = windows.ndim == 2
        if single:
            windows = windows[None]
        with ad.no_grad():
            out = self.forward(windows).data
        out = out.reshape(windows.shape[0], self.n_nodes, self.horizon)
        return out[0] if single else out


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
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, p in params.items():
            if not np.all(np.isfinite(p.data)):
                raise CheckpointError("refusing to save non-finite parameters")
            fh.write(p.data.astype("<f8").tobytes())


# the smallest value of each size a saved model can have
_HEADER_SIZES = {"n_nodes": 1, "hidden": 0, "seq_len": 1, "horizon": 1}


def _check_header(path, header):
    """Raise CheckpointError naming the first header key that is missing or
    has the wrong type or range."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")

    def bad(key, want):
        if key not in header:
            return CheckpointError(f"{path}: header lacks {key!r}")
        return CheckpointError(
            f"{path}: header {key!r} is {header[key]!r}, expected {want}")

    if header.get("kind") not in MODEL_KINDS:
        raise bad("kind", f"one of {', '.join(MODEL_KINDS)}")
    for key, least in _HEADER_SIZES.items():
        value = header.get(key)
        if type(value) is not int or value < least:
            raise bad(key, f"an integer >= {least}")
    if not isinstance(header.get("params"), list):
        raise bad("params", "a list of [name, shape] pairs")


def load_checkpoint(path, propagation=None):
    with open(path, "rb") as fh:
        raw = fh.read()
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
    kind = header["kind"]
    if kind in ("tgcn", "gcn"):
        if propagation is None:
            raise CheckpointError(f"model kind {kind} requires a road network")
        propagation = np.asarray(propagation, dtype=np.float64)
        if propagation.shape[0] != header["n_nodes"]:
            raise CheckpointError(
                f"checkpoint has {header['n_nodes']} nodes, "
                f"graph has {propagation.shape[0]}")
    model = SequenceModel(kind, header["n_nodes"], header["hidden"],
                          header["seq_len"], header["horizon"],
                          propagation=propagation)
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
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after parameters")
    return model
