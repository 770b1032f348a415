"""Minimal dense reverse-mode automatic differentiation on float64 numpy arrays.

The computation graph is define-by-run: every primitive that touches a tensor
requiring gradients records a closure that propagates adjoints back to its
inputs, through ``_node`` as its value and one gradient per operand; the fused
kernels ``relu_mlp`` and ``gru_unroll``, whose one ``run_rows`` pass gives all
their operands' gradients, call ``Tensor._make`` instead. ``backward`` replays
those closures in reverse topological order.

Broadcasting is deliberately restricted: the only implicit broadcast is a
(1, d) row vector added to an (m, d) matrix (bias over rows). Everything else
must shape-match exactly so mistakes fail loudly.

An operand that can receive a gradient is a ``Tensor``; only data that never
receives one may be an array: ``graph_propagate``'s ``prop`` and ``x``,
``relu_mlp``'s ``x`` and ``gru_unroll``'s ``feats`` and ``h0``. Any other
constant operand is a Tensor without grad; ``scale`` takes a python number.

While worker threads are bound on a thread (``threads``), ``gru_unroll``
and ``relu_mlp`` run their row blocks, forward and backward, on them and on
the calling thread, each thread taking the next block when it finishes one
(``run_rows``). The calling thread draws every buffer the threads use and
waits for all of them, and the weight gradients are summed per block and
added in block order once every block has run, so the results do not
depend on the number of threads.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

# rows per block of gru_unroll and relu_mlp: a block's buffers stay about
# L2-sized (256 to 512 rows measured alike for gru_unroll; 512 fastest for
# relu_mlp, against 256 and 1024)
ROW_BLOCK = 512


class _ThreadState(threading.local):
    # per thread, so that no_grad on one thread cannot switch recording off
    # (or leave it off) for another, and workers bound by one thread serve
    # no other thread
    enabled = True
    threads = 1  # the row blocks' threads, this one included
    executor = None  # the threads - 1 workers


_local = _ThreadState()


def is_grad_enabled():
    """Whether primitives called on this thread record the graph."""
    return _local.enabled


@contextmanager
def _bound(**fields):
    """Set the fields of this thread's state inside the block, and restore
    their values when it ends."""
    prev = {name: getattr(_local, name) for name in fields}
    _local.__dict__.update(fields)
    try:
        yield
    finally:
        _local.__dict__.update(prev)


def no_grad():
    """Disable graph recording on this thread inside the block (inference /
    evaluation)."""
    return _bound(enabled=False)


def _empty(shape, dtype=np.float64):
    # the one place the kernels (graph_propagate, relu_mlp, gru_unroll)
    # allocate their outputs, backward results and scratch, so a test can
    # swap in an allocator that poisons every buffer it hands out
    return np.empty(shape, dtype)


@contextmanager
def threads(count):
    """Run the row blocks of the ``gru_unroll`` and ``relu_mlp`` calls made
    on this thread inside the block on ``count`` threads, this one
    included: ``count`` − 1 workers start here and stop when the block
    ends. A binding of the same count already in place is kept, so code
    that binds its threads can run inside code that bound them first, on
    the same workers."""
    if count == _local.threads:
        yield
        return
    workers = ThreadPoolExecutor(count - 1) if count > 1 else nullcontext()
    with workers as executor, _bound(threads=count, executor=executor):
        yield


def run_rows(m, task, own, sums=()):
    """task(s, e, *slots, *scratch) for every block s:e of m rows, blocks of
    ROW_BLOCK rows in order, the last one shorter, on this thread and the
    bound workers, at most one thread per block. A thread's ``scratch`` is
    own(rows), drawn here for the tallest block, and a block's ``slots``
    are its own zeroed arrays, one per shape in ``sums``. A thread takes the
    next block whenever it finishes one, so a thread slowed by other load
    runs fewer. Returns once every thread has finished, so that no worker
    still writes to a buffer when its caller goes on, re-raising this
    thread's error, or else the first worker's; after an error here the
    workers take no further block. Returns, per shape in ``sums``, 0 plus
    the blocks' slots in block order, whichever thread ran which block."""
    starts = range(0, m, ROW_BLOCK)
    slots = [np.zeros((len(starts), *shape)) for shape in sums]
    scratch = [own(min(m, ROW_BLOCK))
               for _ in range(max(1, min(len(starts), _local.threads)))]
    blocks, lock = iter(range(len(starts))), threading.Lock()

    def run(*mine):
        while True:
            with lock:
                j = next(blocks, None)
            if j is None:
                return
            task(starts[j], min(starts[j] + ROW_BLOCK, m),
                 *(slot[j] for slot in slots), *mine)

    futures = [_local.executor.submit(run, *mine) for mine in scratch[1:]]
    try:
        run(*scratch[0])
    finally:
        with lock:
            for _ in blocks:
                pass
        wait(futures)
    for future in futures:
        future.result()
    return [sum(slot, np.zeros(shape)) for slot, shape in zip(slots, sums)]


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

    def _accumulate(self, g):
        """Add g to grad; the first gradient is a float64 copy of g."""
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
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

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- backward pass -----------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable tensor with requires_grad,
        starting from this scalar loss's own gradient, 1."""
        if self.data.ndim != 0:
            raise ContractError(f"backward: shape {self.shape} is not a scalar")
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


def _shaped(buf, *shape):
    """The leading entries of the flat array buf as a contiguous array of
    the given shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _sigmoid_values(v, out=None):
    """The logistic function of the negated pre-activation v, 1/(1 + exp(v)),
    with one transcendental per element and no scratch arrays; ``out`` may
    be ``v`` itself. Callers fold the negation into what produces v
    (``gru_unroll``'s gate weights) or negate it first (``sigmoid``). Above
    v ≈ 709 exp(v) overflows to inf and σ reads 0, within 1e-307 of its
    true value, so that overflow is not reported. The errstate is entered
    here, on the thread that computes: it is a context variable, which the
    workers of ``threads`` do not inherit from their caller."""
    out = np.empty_like(v) if out is None else out
    with np.errstate(over="ignore"):
        np.exp(v, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


# -- primitives ------------------------------------------------------------

def _node(out, parents, grads):
    """A Tensor of value out over the Tensors parents, whose backward gives
    each parent that requires grad, in operand order, grads[i](g)."""
    def bwd(g):
        for t, grad in zip(parents, grads):
            if t.requires_grad:
                t._accumulate(grad(g))

    return Tensor._make(out, parents, bwd)


def add(a, b):
    """Elementwise sum of the Tensors a and b, b of a's shape or a (1, d)
    bias row."""
    if a.shape == b.shape:
        return _node(a.data + b.data, (a, b), (lambda g: g, lambda g: g))
    if a.data.ndim == 2 and b.shape == (1, a.shape[1]):
        return _node(a.data + b.data, (a, b), (
            lambda g: g, lambda g: g.sum(axis=0, keepdims=True)))
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def hadamard(a, b):
    """Elementwise product of the Tensors a and b, of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: incompatible shapes {a.shape} and {b.shape}")
    return _node(a.data * b.data, (a, b),
                 (lambda g: g * b.data, lambda g: g * a.data))


def scale(a, c):
    c = float(c)
    return _node(a.data * c, (a,), (lambda g: g * c,))


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _node(a.data @ b.data, (a, b),
                 (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


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
    out = _empty(x.shape)
    np.matmul(prop, x.data.reshape(n, -1), out=out.reshape(n, -1))

    def dx(g):
        grad = _empty(x.shape)
        np.matmul(prop.T, g.reshape(n, -1), out=grad.reshape(n, -1))
        return grad

    return _node(out, (x,), (dx,))


def sigmoid(x):
    out = _sigmoid_values(np.negative(x.data))
    return _node(out, (x,), (lambda g: g * out * (1.0 - out),))


def tanh(x):
    out = np.tanh(x.data)
    return _node(out, (x,), (lambda g: g * (1.0 - out * out),))


def relu(x):
    # gradient at exactly 0 is defined as 0, and it is 0.0 where x <= 0,
    # not g·0, which is −0.0 for a negative g
    return _node(np.maximum(x.data, 0.0), (x,),
                 (lambda g: np.where(x.data > 0, g, 0.0),))


def relu_mlp(x, w0, w1):
    """relu(x·w0)·w1 for a constant (m, d) array x, as a single tape node.

    The rows run in blocks of ROW_BLOCK on the threads bound with
    ``threads`` (``run_rows``), forward and backward, and a block's
    activation a = x·w0 lives in its thread's block-sized scratch. When
    recording, the forward also keeps the ReLU's mask a > 0 as an
    (m, hidden) bool array, 0 at the kink, so an entry of x·w0 that is
    exactly 0 passes no gradient; under ``no_grad`` it keeps nothing of
    height m but the (m, o) result. The backward copies each block's mask
    into a 0/1 float scratch M. Rather than form the (m, hidden) gradient
    M∘(g·w1ᵀ), it sums the o products G_j = (x∘g_j)ᵀ·M over the blocks,
    each block's as one GEMM on a (rows, o·d) scratch into its own slot,
    and gets both weight gradients from the slots' block-order total:

        dw0       = Σ_j G_j∘w1[:, j]ᵀ
        dw1[:, j] = Σ_d w0[d, :]∘G_j[d, :]     (relu(a)ᵀ·g_j, as M∘a = relu(a))
    """
    x = np.asarray(x, dtype=np.float64)
    if (x.ndim != 2 or w0.data.ndim != 2 or w1.data.ndim != 2
            or x.shape[1] != w0.shape[0] or w0.shape[1] != w1.shape[0]):
        raise ShapeError(f"relu_mlp: incompatible shapes x {x.shape}, "
                         f"w0 {w0.shape}, w1 {w1.shape}")
    m, d = x.shape
    hidden, o = w1.shape
    out = _empty((m, o))
    mask = _empty((m, hidden), np.bool_) if _recording((w0, w1)) else None

    def forward(s, e, act):
        a = np.matmul(x[s:e], w0.data, out=act[:e - s])
        if mask is not None:
            np.greater(a, 0.0, out=mask[s:e])
        np.maximum(a, 0.0, out=a)
        np.matmul(a, w1.data, out=out[s:e])

    run_rows(m, forward, lambda rows: (_empty((rows, hidden)),))

    def bwd(g):
        def block(s, e, gm, act, xg):
            # (x∘g_j)ᵀ·M for the block, the o products stacked as rows
            a = act[:e - s]
            a[...] = mask[s:e]  # M as 0.0/1.0
            y = xg[:e - s]
            np.multiply(g[s:e, :, None], x[s:e, None, :],
                        out=y.reshape(e - s, o, d))
            np.matmul(y.T, a, out=gm)

        gm, = run_rows(m, block, lambda rows: (
            _empty((rows, hidden)), _empty((rows, o * d))), [(o * d, hidden)])
        gm = gm.reshape(o, d, hidden)
        dw0 = np.einsum("jdk,kj->dk", gm, w1.data)
        dw1 = np.einsum("jdk,dk->kj", gm, w0.data)
        for param, grad in ((w0, dw0), (w1, dw1)):
            if param.requires_grad:
                param._accumulate(grad)

    return Tensor._make(out, (w0, w1), bwd)


def square(x):
    return _node(x.data * x.data, (x,), (lambda g: g * 2.0 * x.data,))


def concat_cols(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    p = a.shape[1]
    return _node(np.concatenate([a.data, b.data], axis=1), (a, b),
                 (lambda g: g[:, :p], lambda g: g[:, p:]))


def gru_unroll(feats, lift, h0, w_u, w_r, w_c, b_u, b_r, b_c):
    """A window of gated recurrent updates as a single tape node.

    The input at step t has rank r: it is feats[t]·lift, with feats a
    constant (L, m, r) array, which may be any view (the cells pass their
    (m, L, r) rows transposed), and lift an (r, p) Tensor. h0 is the (m, k)
    initial state, also a constant: a recording call refuses one that
    requires grad, and its backward reads h0 again, so the caller must not
    write to it until then. Each weight is (p + k, k) and each bias (1, k).
    A weight's first p rows W_g act on the input and its last k rows W_h on
    the state. The lift folds into V = lift·W_g once per call, and a
    constant row of ones carries the biases, so with σ the logistic
    function step t is two GEMMs on feature-major blocks, one column per
    row of the result:

        [u; r] = σ([V_u V_r; b_u b_r; W_u,h W_r,h]ᵀ·[feats_tᵀ; 1; h])
        c      = tanh([V_c; b_c; W_c,h]ᵀ·[feats_tᵀ; 1; r∘h])
        h     <- c + u∘(h − c)                        (= u∘h + (1 − u)∘c)

    and the result is h after step L. The gates' GEMM runs on the negated
    weights, since (−W)ᵀx is exactly −(Wᵀx) and σ's values take the
    negated pre-activation (``_sigmoid_values``). No row's update reads
    another row, so the rows run in blocks of ROW_BLOCK (the last one
    shorter), and each block runs all L steps before the next block starts:
    the buffers a step touches stay in cache across the window instead of
    streaming all m rows from memory on every step. The blocks run on the
    threads bound with ``threads`` (``run_rows``), the calling thread
    included.

    A block is stored feature-major, so u, r, h and r∘h are whole
    contiguous row ranges: x = [feats_tᵀ; 1; h] is (q + k, rows) with
    q = r + 1, [u; r] is (2k, rows), c and the backward's scratch (k, rows).
    Only feats (once per call, to (L, r, m)), h0, the final state and the
    incoming gradient are transposed. In both grad modes each thread's
    steps reuse one x, whose last k rows hold the state, updated in place,
    and one [feats_tᵀ; 1; r∘h]. Under ``no_grad`` they also reuse one
    [u; r] and c; when recording, every step's [u; r] and c are kept, each
    array in one flat L·m·width buffer whose (L, width, rows) slab for rows
    s:e starts at L·width·s: L·m·3k floats, and no state. Every per-thread
    scratch is drawn flat and shaped per block, so the short last block is
    contiguous too.

    The backward runs on the threads bound when it runs, which need not be
    the forward's. For each row block it first replays the block's states
    into a per-thread (L, q + k, rows) x, from the block's own h0 rows and
    the kept u and c, with the forward's own update, so they are the
    forward's bits and no GEMM runs again (the cheap end of Gruslys et al.,
    "Memory-Efficient Backpropagation Through Time", arXiv:1606.03401). It
    then runs the block's steps in reverse with block-sized scratch, and
    forms no state gradient at the first step, since h0 is a constant. Its
    GEMMs with the same left operands sum dV = Σ_t feats_tᵀ·dz_t over the
    pre-activations' gradients dz_t, the bias gradients and the state rows'
    gradients, over each block's steps into that block's own slot, and
    ``run_rows`` adds the slots in block order once every block has run, so
    a failed block leaves no partial gradient. lift gets dV·W_gᵀ and W_g
    gets liftᵀ·dV.
    """
    h0 = _lift(h0)
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
    if h0.requires_grad and is_grad_enabled():
        raise ContractError("gru_unroll: h0 requires grad, but the first "
                            "state gets no gradient")
    record = _recording((lift,) + weights + biases)
    q = r + 1  # the rows before the state: feats_tᵀ and the ones
    wg_ur = np.concatenate([w_u.data[:p], w_r.data[:p]], axis=1)
    # (q + k, 2k), negated: the gates' GEMM gives the negated pre-activation
    # that σ's values take, and (−W)ᵀx is exactly −(Wᵀx)
    w_ur = np.negative(np.concatenate([
        lift.data @ wg_ur, np.concatenate([b_u.data, b_r.data], axis=1),
        np.concatenate([w_u.data[p:], w_r.data[p:]], axis=1)]))
    w_xc = np.concatenate([lift.data @ w_c.data[:p], b_c.data, w_c.data[p:]])
    feats_fm = _empty((n_steps, r, m))
    feats_fm[...] = feats.transpose(0, 2, 1)
    out = _empty((m, k))
    # [u; r] and c: every step's, flat, when recording, which the threads
    # share, else one block's per thread, reused by every step
    widths = (2 * k, k)
    kept = [_empty((n_steps * m * w,)) for w in widths] if record else None

    def slabs(bufs, s, e, steps):
        # rows s:e of each flat buffer as its contiguous (steps, w, e - s)
        return [_shaped(buf[steps * w * s:], steps, w, e - s)
                for buf, w in zip(bufs, widths)]

    def advance(h, u, cand, nxt):
        # the next state c + u∘(h − c) into nxt, which may be h: the
        # forward's update and the backward's replay, so one rounding
        np.subtract(h, cand, out=nxt)
        nxt *= u
        nxt += cand

    def own(rows):
        # an x and a [feats_tᵀ; 1; r∘h] per thread, then, under no_grad, a
        # block's [u; r] and c
        return [_empty((w * rows,))
                for w in (q + k, q + k, *(() if record else widths))]

    def forward(s, e, x_, xr_, *mine):
        b = e - s
        ur, c = slabs(kept, s, e, n_steps) if record else slabs(
            mine, 0, b, 1)
        x, xr = _shaped(x_, q + k, b), _shaped(xr_, q + k, b)
        x[r] = xr[r] = 1.0
        h = x[q:]
        h[...] = h0.data[s:e].T
        for t in range(n_steps):
            i = t if record else 0
            z, cand = ur[i], c[i]
            x[:r] = feats_fm[t, :, s:e]
            np.matmul(w_ur.T, x, out=z)
            _sigmoid_values(z, out=z)
            xr[:r] = x[:r]
            np.multiply(z[k:], h, out=xr[q:])
            np.matmul(w_xc.T, xr, out=cand)
            np.tanh(cand, out=cand)
            advance(h, z[:k], cand, h)
        out[s:e] = h.T

    run_rows(m, forward, own)

    def bwd(grad):
        # a block's slots s_ur and s_c sum x·dzᵀ and [feats_tᵀ; 1; r∘h]·dcᵀ
        # over its steps: dV, then the bias gradients, then the state rows'
        # gradients
        flat = (q + k,) + (k,) * 4 + (2 * k,)

        def replay(s, e, s_ur, s_c, t_ur, t_c, xh_, *mine):
            b = e - s
            ur, c = slabs(kept, s, e, n_steps)
            xh = _shaped(xh_, n_steps, q + k, b)
            xr, dh, gu, dc, drh, dz = (
                _shaped(buf, w, b) for buf, w in zip(mine, flat))
            # every step's x = [feats_tᵀ; 1; h_{t−1}], as the forward had it
            xh[:, :r] = feats_fm[:, :, s:e]
            xh[:, r] = xr[r] = 1.0
            xh[0, q:] = h0.data[s:e].T
            for t in range(n_steps - 1):
                advance(xh[t, q:], ur[t, :k], c[t], xh[t + 1, q:])
            dh[...] = grad[s:e].T
            for t in reversed(range(n_steps)):
                x, z, cand = xh[t], ur[t], c[t]
                h, u, rg = x[q:], z[:k], z[k:]
                np.multiply(dh, u, out=gu)
                np.subtract(dh, gu, out=dc)
                # the update pre-activation's gradient, through
                # σ' = σ(1 − σ): (h − c)∘[dh∘(1 − u)]∘u, from dc before it
                # takes the tanh factor
                np.subtract(h, cand, out=dz[:k])
                dz[:k] *= dc
                dz[:k] *= u
                # the candidate's: dh∘(1 − u)∘(1 − c²)
                np.multiply(cand, cand, out=drh)
                np.subtract(1.0, drh, out=drh)
                dc *= drh
                np.matmul(w_xc[q:], dc, out=drh)  # d(r∘h)
                xr[:r] = x[:r]
                np.multiply(rg, h, out=xr[q:])
                # the reset's: d(r∘h)∘(r∘h)∘(1 − r)
                np.subtract(1.0, rg, out=dz[k:])
                dz[k:] *= xr[q:]
                dz[k:] *= drh
                s_ur += np.matmul(x, dz.T, out=t_ur)
                s_c += np.matmul(xr, dc.T, out=t_c)
                if t:
                    np.matmul(w_ur[q:], dz, out=dh)
                    np.subtract(gu, dh, out=dh)  # w_ur is negated
                    np.multiply(drh, rg, out=gu)
                    dh += gu

        def scratch(rows):
            # a thread's t_ur and t_c, then its flat block scratch: the
            # replayed x of every step, then one step's
            return (_empty((q + k, 2 * k)), _empty((q + k, k)),
                    _empty((n_steps * (q + k) * rows,)),
                    *(_empty((w * rows,)) for w in flat))

        g_ur, g_c = run_rows(m, replay, scratch,
                             [(q + k, 2 * k), (q + k, k)])
        dv_ur, dv_c = g_ur[:r], g_c[:r]
        if lift.requires_grad:
            dlift = dv_ur @ wg_ur.T
            dlift += dv_c @ w_c.data[:p].T
            lift._accumulate(dlift)
        dw_ur = np.concatenate([lift.data.T @ dv_ur, g_ur[q:]])
        dw_c = np.concatenate([lift.data.T @ dv_c, g_c[q:]])
        for param, g in ((w_u, dw_ur[:, :k]), (w_r, dw_ur[:, k:]),
                         (w_c, dw_c), (b_u, g_ur[r:q, :k]),
                         (b_r, g_ur[r:q, k:]), (b_c, g_c[r:q])):
            if param.requires_grad:
                param._accumulate(g)

    return Tensor._make(out, (lift,) + weights + biases, bwd)


def tensor_sum(x):
    return _node(x.data.sum(), (x,),
                 (lambda g: np.broadcast_to(g, x.data.shape),))


def tensor_mean(x):
    n = x.data.size
    return _node(x.data.mean(), (x,),
                 (lambda g: np.broadcast_to(g / n, x.data.shape),))


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
