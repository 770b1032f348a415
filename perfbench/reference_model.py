"""Straight-line numpy transcription of the model equations, one window at a
time, written from the paper rather than from the program's code.

The benchmark compares the program's predictions with these on a few windows
per run, so that a faster forward pass (hoisted, fused or batched
differently) has to keep computing the same function.

Notation follows the paper: f(A, X) = Â ReLU(Â X W0) W1 is the two-layer
graph convolution with Â the normalized adjacency, and the cell is

    u_t = σ(W_u [f(A, X_t), h_{t-1}] + b_u)
    r_t = σ(W_r [f(A, X_t), h_{t-1}] + b_r)
    c_t = tanh(W_c [f(A, X_t), r_t * h_{t-1}] + b_c)
    h_t = u_t * h_{t-1} + (1 - u_t) * c_t

with a linear head h_T W_p + b_p giving the horizon values per node.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _gcn(prop, x, w0, w1):
    return prop @ np.maximum(prop @ x @ w0, 0.0) @ w1


def tgcn_predict(params, prop, windows):
    """params: name -> array as in the checkpoint; windows (B, seq, n);
    returns (B, n, horizon)."""
    p = params
    out = []
    for window in windows:
        h = np.zeros((window.shape[1], p["w_u"].shape[1]))
        for x_t in window:
            g = _gcn(prop, x_t[:, None], p["gcn.w0"], p["gcn.w1"])
            gh = np.concatenate([g, h], axis=1)
            u = _sigmoid(gh @ p["w_u"] + p["b_u"])
            r = _sigmoid(gh @ p["w_r"] + p["b_r"])
            c = np.tanh(np.concatenate([g, r * h], axis=1) @ p["w_c"] + p["b_c"])
            h = u * h + (1.0 - u) * c
        out.append(h @ p["proj_w"] + p["proj_b"])
    return np.stack(out)


def gcn_predict(params, prop, windows):
    """GCN baseline: each node's seq_len past values are its features."""
    p = params
    return np.stack([
        _gcn(prop, window.T, p["gcn.w0"], p["gcn.w1"]) @ p["proj_w"] + p["proj_b"]
        for window in windows])


PREDICT = {"tgcn": tgcn_predict, "gcn": gcn_predict}
