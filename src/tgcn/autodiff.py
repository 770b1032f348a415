"""Minimal dense reverse-mode automatic differentiation on float64 numpy arrays.

The computation graph is define-by-run: every primitive that touches a tensor
requiring gradients records a closure that propagates adjoints back to its
inputs. ``backward`` replays those closures in reverse topological order.

Broadcasting is deliberately restricted: the only implicit broadcast is a
(1, d) row vector added to an (m, d) matrix (bias over rows). Everything else
must shape-match exactly so mistakes fail loudly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

# rows per block of gru_unroll: a block's step buffers stay about L2-sized
# while it runs the whole window (256 to 512 rows measured alike)
ROW_BLOCK = 512


class _GradMode(threading.local):
    # per thread, so that no_grad on an evaluation worker cannot switch
    # recording off (or leave it off) for the thread that trains
    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled():
    """Whether primitives called on this thread record the graph."""
    return _grad_mode.enabled


@contextmanager
def no_grad():
    """Disable graph recording on this thread inside the block (inference /
    evaluation)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """Dense float64 array participating in a recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g, fresh=False):
        """Add g to grad. A ``fresh`` g, a float64 result that nothing else
        holds or will write, becomes the first gradient without a copy."""
        if self.grad is None:
            self.grad = (np.asarray(g) if fresh
                         else np.array(g, dtype=np.float64, copy=True))
        else:
            self.grad += g

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _recording(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, scale(other, -1.0) if isinstance(other, Tensor) else -other)

    def __rsub__(self, other):
        return add(scale(self, -1.0), other)

    def __mul__(self, other):
        return hadamard(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- backward pass -----------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable tensor with requires_grad."""
        if self.data.ndim != 0:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones(()))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(inputs):
    return is_grad_enabled() and any(t.requires_grad for t in inputs)


def _sigmoid_values(v, out=None):
    """Logistic function 1/(1 + exp(-v)) with one transcendental per element
    and no scratch arrays; ``out`` may be ``v`` itself. Below v ≈ -709
    exp(-v) overflows to inf and σ reads 0, within 1e-307 of its true
    value, so that overflow is not reported."""
    out = np.negative(v, out=np.empty_like(v) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


# -- primitives ------------------------------------------------------------

def add(a, b):
    """Elementwise sum; also accepts a python scalar or a (1, d) bias row."""
    if not isinstance(a, Tensor):
        a, b = _lift(b), a
    if not isinstance(b, Tensor):
        b_val = float(b)

        def bwd(g, a=a):
            a._accumulate(g)

        return Tensor._make(a.data + b_val, (a,), bwd)
    if a.shape == b.shape:
        def bwd(g, a=a, b=b):
            a._accumulate(g)
            b._accumulate(g)

        return Tensor._make(a.data + b.data, (a, b), bwd)
    if (a.data.ndim == 2 and b.data.ndim == 2
            and b.shape == (1, a.shape[1])):
        def bwd(g, a=a, b=b):
            a._accumulate(g)
            b._accumulate(g.sum(axis=0, keepdims=True), fresh=True)

        return Tensor._make(a.data + b.data, (a, b), bwd)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def hadamard(a, b):
    """Elementwise product; one operand may be a python scalar."""
    if not isinstance(a, Tensor):
        a, b = _lift(b), a
    if not isinstance(b, Tensor):
        return scale(a, float(b))
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g, a=a, b=b):
        a._accumulate(g * b.data, fresh=True)
        b._accumulate(g * a.data, fresh=True)

    return Tensor._make(a.data * b.data, (a, b), bwd)


def scale(a, c):
    c = float(c)

    def bwd(g, a=a):
        a._accumulate(g * c, fresh=True)

    return Tensor._make(a.data * c, (a,), bwd)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g @ b.data.T, fresh=True)
        if b.requires_grad:
            b._accumulate(a.data.T @ g, fresh=True)

    return Tensor._make(a.data @ b.data, (a, b), bwd)


def graph_propagate(prop, x):
    """Apply a fixed n-by-n propagation matrix to a node-major stack x.

    x has n·B rows, rows i·B … i·B+B−1 belonging to node i, so x viewed as
    (n, B·d) is one feature matrix and the propagation is one matrix
    product. The propagation matrix is a constant and receives no gradient.
    """
    prop = np.asarray(prop, dtype=np.float64)
    n = prop.shape[0]
    x = _lift(x)
    if x.data.ndim != 2 or x.shape[0] % n:
        raise ShapeError(f"graph_propagate: x has shape {x.shape}, expected "
                         f"a multiple of {n} rows")
    out = (prop @ x.data.reshape(n, -1)).reshape(x.shape)

    def bwd(g, x=x, prop=prop):
        x._accumulate((prop.T @ g.reshape(n, -1)).reshape(x.shape), fresh=True)

    return Tensor._make(out, (x,), bwd)


def sigmoid(x):
    x = _lift(x)
    out = _sigmoid_values(x.data)

    def bwd(g, x=x, out=out):
        x._accumulate(g * out * (1.0 - out), fresh=True)

    return Tensor._make(out, (x,), bwd)


def tanh(x):
    x = _lift(x)
    out = np.tanh(x.data)

    def bwd(g, x=x, out=out):
        x._accumulate(g * (1.0 - out * out), fresh=True)

    return Tensor._make(out, (x,), bwd)


def relu(x):
    # gradient at exactly 0 is defined as 0
    x = _lift(x)
    mask = x.data > 0

    def bwd(g, x=x, mask=mask):
        x._accumulate(g * mask, fresh=True)

    return Tensor._make(np.maximum(x.data, 0.0), (x,), bwd)


def square(x):
    x = _lift(x)

    def bwd(g, x=x):
        x._accumulate(g * 2.0 * x.data, fresh=True)

    return Tensor._make(x.data * x.data, (x,), bwd)


def concat_cols(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    p = a.shape[1]

    def bwd(g, a=a, b=b, p=p):
        a._accumulate(g[:, :p])
        b._accumulate(g[:, p:])

    return Tensor._make(np.concatenate([a.data, b.data], axis=1), (a, b), bwd)


def gru_unroll(feats, lift, h0, w_u, w_r, w_c, b_u, b_r, b_c):
    """A window of gated recurrent updates as a single tape node.

    The input at step t has rank r: it is feats[t]·lift, with feats a
    constant (L, m, r) array and lift an (r, p) Tensor. h0 is the (m, k)
    initial state, each weight (p + k, k) and each bias (1, k). A weight's
    first p rows W_g act on the input and its last k rows W_h on the state.
    The lift folds into V = lift·W_g once per call, and a constant column
    of ones carries the biases, so with σ the logistic function step t is
    two GEMMs:

        u, r = σ([feats_t | 1 | h]·[V_u V_r; b_u b_r; W_u,h W_r,h])
        c    = tanh([feats_t | 1 | r∘h]·[V_c; b_c; W_c,h])
        h   <- c + u∘(h − c)                        (= u∘h + (1 − u)∘c)

    and the result is h after step L. No row's update reads another row,
    so the rows run in blocks of ROW_BLOCK, and each block runs all L steps
    before the next block starts: the buffers a step touches stay in cache
    across the window instead of streaming all m rows from memory on every
    step.

    A block's state lives only in its rows of the result, set from h0 and
    updated in place; each step copies feats_t and the state into its
    [feats_t | 1 | h] rows. When recording, those rows, [u|r] and c are kept
    for every step in three (L, m, ·) blocks allocated once, so the copy
    keeps h_{t−1} for the backward, and r∘h goes to a block-sized
    [feats_t | 1 | r∘h]; else every step reuses one block-sized set of the
    three and r∘h overwrites the copy of h.
    The backward replays each row block's steps in reverse with block-sized
    scratch and stitches the h0 gradient from the blocks' rows. Its GEMMs with
    the same left operands sum dV = Σ_t feats_tᵀ·dz_t over the pre-activations'
    gradients dz_t, the bias gradients and the state rows' gradients, across
    steps and blocks; lift then gets dV·W_gᵀ and W_g gets liftᵀ·dV.
    """
    lift, h0, w_u, w_r, w_c, b_u, b_r, b_c = map(
        _lift, (lift, h0, w_u, w_r, w_c, b_u, b_r, b_c))
    feats = np.asarray(feats, dtype=np.float64)
    weights, biases = (w_u, w_r, w_c), (b_u, b_r, b_c)
    n_steps, m, r = feats.shape if feats.ndim == 3 else (0, -1, -1)
    p = lift.shape[1] if lift.data.ndim == 2 else -1
    k = h0.shape[1] if h0.data.ndim == 2 else -1
    if (n_steps < 1 or p < 0 or k < 0 or lift.shape[0] != r
            or h0.shape[0] != m
            or any(w.shape != (p + k, k) for w in weights)
            or any(b.shape != (1, k) for b in biases)):
        raise ShapeError(
            f"gru_unroll: incompatible shapes feats {feats.shape}, "
            f"lift {lift.shape}, h0 {h0.shape}, "
            f"weights {[w.shape for w in weights]}, "
            f"biases {[b.shape for b in biases]}")
    record = _recording((lift, h0) + weights + biases)
    q = r + 1  # the columns before the state: feats_t and the ones
    wg_ur = np.concatenate([w_u.data[:p], w_r.data[:p]], axis=1)
    w_ur = np.concatenate([  # (q + k, 2k)
        lift.data @ wg_ur, np.concatenate([b_u.data, b_r.data], axis=1),
        np.concatenate([w_u.data[p:], w_r.data[p:]], axis=1)])
    w_xc = np.concatenate([lift.data @ w_c.data[:p], b_c.data, w_c.data[p:]])
    blocks = [(s, min(s + ROW_BLOCK, m)) for s in range(0, m, ROW_BLOCK)]
    rows = min(m, ROW_BLOCK)  # the tallest block
    out = np.empty((m, k))
    # [feats_t | 1 | h_{t-1}], [u|r] and c: every step's rows when
    # recording, else one block's rows reused by every step
    kept = (n_steps, m) if record else (1, rows)
    xh = np.empty(kept + (q + k,))
    ur = np.empty(kept + (2 * k,))
    c = np.empty(kept + (k,))
    xrh = np.empty((rows, q + k))  # [feats_t | 1 | r∘h] when recording
    xh[..., r] = 1.0
    xrh[:, r] = 1.0
    for s, e in blocks:
        rs = slice(s, e) if record else slice(0, e - s)
        state = out[s:e]
        state[...] = h0.data[s:e]
        for t in range(n_steps):
            i = t if record else 0
            x, z, cand = xh[i, rs], ur[i, rs], c[i, rs]
            x[:, :r] = feats[t, s:e]
            x[:, q:] = state
            np.matmul(x, w_ur, out=z)
            _sigmoid_values(z, out=z)
            u, rg = z[:, :k], z[:, k:]
            # r∘h beside a copy of feats_t, or unkept over x's copy of h
            xr = xrh[:e - s] if record else x
            xr[:, :r] = x[:, :r]
            np.multiply(rg, state, out=xr[:, q:])
            np.matmul(xr, w_xc, out=cand)
            np.tanh(cand, out=cand)
            state -= cand
            state *= u
            state += cand

    def bwd(grad):
        # [feats_t | 1 | h]ᵀ·dz and [feats_t | 1 | r∘h]ᵀ·dc summed over the
        # steps and row blocks: dV, then the bias gradients, then the state
        # rows' gradients
        g_ur, g_c = np.zeros((q + k, 2 * k)), np.zeros((q + k, k))
        t_ur, t_c = np.empty_like(g_ur), np.empty_like(g_c)
        dh0 = np.empty((m, k)) if h0.requires_grad else None
        # one set of block-sized buffers for the whole replay
        dh_, gu_, dc_, drh_ = (np.empty((rows, k)) for _ in range(4))
        dz_, dsig_ = np.empty((rows, 2 * k)), np.empty((rows, 2 * k))
        for s, e in blocks:
            b = e - s
            dh, gu, dc, drh = dh_[:b], gu_[:b], dc_[:b], drh_[:b]
            dz, dsig, xr = dz_[:b], dsig_[:b], xrh[:b]
            dh[...] = grad[s:e]
            for t in reversed(range(n_steps)):
                x, z, cand = xh[t, s:e], ur[t, s:e], c[t, s:e]
                h, u, rg = x[:, q:], z[:, :k], z[:, k:]
                np.multiply(dh, u, out=gu)
                # the candidate's pre-activation: dh∘(1 − u)∘(1 − c²)
                np.subtract(dh, gu, out=dc)
                np.multiply(cand, cand, out=drh)
                np.subtract(1.0, drh, out=drh)
                dc *= drh
                np.matmul(dc, w_xc[q:].T, out=drh)  # d(r∘h)
                # the update and reset pre-activations side by side,
                # through σ' = σ(1 − σ)
                np.subtract(h, cand, out=dz[:, :k])
                dz[:, :k] *= dh
                np.multiply(drh, h, out=dz[:, k:])
                np.subtract(1.0, z, out=dsig)
                dsig *= z
                dz *= dsig
                g_ur += np.matmul(x.T, dz, out=t_ur)
                xr[:, :r] = x[:, :r]
                np.multiply(rg, h, out=xr[:, q:])
                g_c += np.matmul(xr.T, dc, out=t_c)
                if t or dh0 is not None:
                    np.matmul(dz, w_ur[q:].T, out=dh)
                    dh += gu
                    np.multiply(drh, rg, out=gu)
                    dh += gu
            if dh0 is not None:
                dh0[s:e] = dh
        dv_ur, dv_c = g_ur[:r], g_c[:r]
        if lift.requires_grad:
            dlift = dv_ur @ wg_ur.T
            dlift += dv_c @ w_c.data[:p].T
            lift._accumulate(dlift, fresh=True)
        dw_ur = np.concatenate([lift.data.T @ dv_ur, g_ur[q:]])
        dw_c = np.concatenate([lift.data.T @ dv_c, g_c[q:]])
        for param, g in ((w_u, dw_ur[:, :k]), (w_r, dw_ur[:, k:]),
                         (w_c, dw_c), (b_u, g_ur[r:q, :k]),
                         (b_r, g_ur[r:q, k:]), (b_c, g_c[r:q])):
            if param.requires_grad:
                param._accumulate(g)
        if dh0 is not None:
            h0._accumulate(dh0, fresh=True)

    return Tensor._make(out, (lift, h0) + weights + biases, bwd)


def tensor_sum(x):
    x = _lift(x)

    def bwd(g, x=x):
        x._accumulate(np.broadcast_to(g, x.data.shape))

    return Tensor._make(x.data.sum(), (x,), bwd)


def tensor_mean(x):
    x = _lift(x)
    n = x.data.size

    def bwd(g, x=x, n=n):
        x._accumulate(np.broadcast_to(g / n, x.data.shape))

    return Tensor._make(x.data.mean(), (x,), bwd)


# -- gradient checking -----------------------------------------------------

GRADCHECK_STEP = 1e-5  # central-difference step h


@dataclass
class GradCheckReport:
    """Per-input maximum relative error between analytic and numeric grads."""
    max_rel_err: float
    per_input: list = field(default_factory=list)
    tol: float = 0.0

    @property
    def passed(self):
        return self.max_rel_err < self.tol


def gradcheck(f, inputs, tol=1e-4):
    """Compare analytic gradients of scalar-valued ``f`` to central differences.

    ``inputs`` is a list of Tensors with requires_grad set; f(inputs) must
    return a scalar Tensor. Returns a GradCheckReport; never raises on a
    failing comparison.
    """
    for t in inputs:
        t.zero_grad()
    out = f(inputs)
    if out.data.ndim != 0:
        raise ContractError("gradcheck: f must return a scalar Tensor")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in inputs]

    per_input = []
    worst = 0.0
    for idx, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + GRADCHECK_STEP
                fp = float(f(inputs).data)
                flat[i] = orig - GRADCHECK_STEP
                fm = float(f(inputs).data)
                flat[i] = orig
                num[i] = (fp - fm) / (2.0 * GRADCHECK_STEP)
        a = analytic[idx].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1.0)
        rel = float(np.max(np.abs(a - num) / denom)) if flat.size else 0.0
        per_input.append(rel)
        worst = max(worst, rel)
    return GradCheckReport(max_rel_err=worst, per_input=per_input, tol=tol)
