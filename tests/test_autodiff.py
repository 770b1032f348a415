import itertools
import threading
import time
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PoisonedEmpty, probe_row_blocks
from tgcn import autodiff as ad
from tgcn.autodiff import Tensor, gradcheck
from tgcn.errors import ContractError, ShapeError


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal((a @ b).data, [[1, 2], [3, 4]])


def test_matmul_dot_product():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert np.allclose(out.data, [[11.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_matmul_gradient_of_sum():
    rng = np.random.default_rng(1)
    a = Tensor(rng.random((3, 4)), requires_grad=True)
    b = Tensor(rng.random((4, 2)), requires_grad=True)
    ad.tensor_sum(a @ b).backward()
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-12)


def test_elementwise_trivials():
    assert np.allclose(ad.sigmoid(Tensor(np.zeros((1, 1)))).data, 0.5)
    assert np.allclose(ad.tanh(Tensor(np.zeros((1, 1)))).data, 0.0)
    assert np.allclose(ad.relu(Tensor([[-1.0]])).data, 0.0)
    assert np.array_equal(
        ad.concat_cols(Tensor([[1.0]]), Tensor([[2.0]])).data, [[1.0, 2.0]])


def test_sigmoid_extreme_inputs_stable():
    out = ad.sigmoid(Tensor([[-1000.0, 1000.0]]))
    assert np.allclose(out.data, [[0.0, 1.0]])


def test_bias_row_broadcast():
    a = Tensor(np.zeros((3, 2)), requires_grad=True)
    b = Tensor([[1.0, 2.0]], requires_grad=True)
    out = a + b
    assert np.array_equal(out.data, [[1, 2]] * 3)
    ad.tensor_sum(out).backward()
    assert np.array_equal(b.grad, [[3.0, 3.0]])


def test_no_general_broadcast():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 1))))
    with pytest.raises(ShapeError):
        ad.hadamard(Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 2))))


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    ad.square(x).backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    x = Tensor(0.0, requires_grad=True)
    ad.sigmoid(x).backward()
    assert x.grad == pytest.approx(0.25)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x + x).backward()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_group_shares_give_their_rows_of_the_mean_squared_errors_gradient(
        data):
    # training backpropagates each window group's share of the batch's
    # mean squared error, (1/N)·Σ(pred − truth)² over the group's entries
    # with N the batch's, on its own; each group gets exactly its rows of
    # the gradient of the whole batch's mean
    m, h = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 3))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, m - 1)),
                                    max_size=m - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    magnitude = 10.0 ** data.draw(st.integers(-3, 3))
    pred = magnitude * rng.standard_normal((m, h))
    truth = magnitude * rng.standard_normal((m, h))
    whole = Tensor(pred, requires_grad=True)
    ad.tensor_mean(ad.square(whole - Tensor(truth))).backward()
    for s, e in zip([0, *cuts], [*cuts, m]):
        part = Tensor(pred[s:e], requires_grad=True)
        share = ad.scale(ad.tensor_sum(ad.square(
            part - Tensor(truth[s:e]))), 1.0 / truth.size)
        share.backward()
        assert part.grad.tobytes() == whole.grad[s:e].tobytes()


def test_gradient_accumulation_two_paths():
    x = Tensor(1.5, requires_grad=True)
    (x + x).backward()
    assert x.grad == pytest.approx(2.0)


@pytest.mark.parametrize("name", ["add", "add_bias", "hadamard",
                                  "concat_cols", "matmul"])
@pytest.mark.parametrize("const", [0, 1])
def test_binary_primitive_gives_a_constant_operand_no_gradient(name, const):
    rng = np.random.default_rng(41)
    shapes = {"add_bias": ((3, 2), (1, 2)),
              "matmul": ((3, 2), (2, 4))}.get(name, ((3, 2), (3, 2)))
    f = getattr(ad, name.removesuffix("_bias"))
    data = [rng.standard_normal(s) for s in shapes]
    weight = Tensor(rng.standard_normal(f(*map(Tensor, data)).shape))

    def grads(constant):
        ts = [Tensor(d, requires_grad=i != constant)
              for i, d in enumerate(data)]
        ad.tensor_sum(ad.hadamard(f(*ts), weight)).backward()
        return [t.grad for t in ts]

    both, got = grads(None), grads(const)
    assert got[const] is None and weight.grad is None
    assert got[1 - const].tobytes() == both[1 - const].tobytes()


def test_subtracting_a_constant_gives_its_negation_no_gradient():
    # the loss's pred − truth: the unrecorded −truth takes no copy of the
    # gradient
    rng = np.random.default_rng(42)
    data = rng.standard_normal((2, 4, 3))
    grads = []
    for constant in (False, True):
        pred = Tensor(data[0], requires_grad=True)
        truth = Tensor(data[1], requires_grad=not constant)
        neg = ad.scale(truth, -1.0)
        ad.tensor_mean(ad.square(pred + neg)).backward()
        grads.append(pred.grad)
    assert neg.grad is None and truth.grad is None
    assert grads[1].tobytes() == grads[0].tobytes()


def test_backward_deterministic():
    rng = np.random.default_rng(5)
    data = rng.random((4, 4))
    grads = []
    for _ in range(2):
        x = Tensor(data.copy(), requires_grad=True)
        y = ad.tensor_sum(ad.square(ad.tanh(x @ x)))
        y.backward()
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_relu_gradient_zero_at_kink():
    x = Tensor([[0.0]], requires_grad=True)
    ad.tensor_sum(ad.relu(x)).backward()
    assert np.array_equal(x.grad, [[0.0]])


def test_relu_gradient_is_positive_zero_where_off():
    # a negative upstream gradient times an off mask is 0.0, not −0.0
    x = Tensor([[-1.0, 2.0, 0.0]], requires_grad=True)
    ad.tensor_sum(ad.scale(ad.relu(x), -3.0)).backward()
    assert np.array_equal(x.grad, [[0.0, -3.0, 0.0]])
    assert np.array_equal(np.signbit(x.grad), [[False, True, False]])


def test_no_grad_blocks_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        y = ad.sigmoid(x)
    assert y._backward is None and not y.requires_grad


SMOOTH_PRIMITIVES = [
    ("sigmoid", lambda xs: ad.tensor_sum(ad.sigmoid(xs[0]))),
    ("tanh", lambda xs: ad.tensor_sum(ad.tanh(xs[0]))),
    ("square", lambda xs: ad.tensor_sum(ad.square(xs[0]))),
    ("scale", lambda xs: ad.tensor_sum(ad.scale(xs[0], 2.5))),
    ("mean", lambda xs: ad.tensor_mean(ad.square(xs[0]))),
    ("hadamard", lambda xs: ad.tensor_sum(ad.hadamard(xs[0], xs[0]))),
]


@pytest.mark.parametrize("name,f", SMOOTH_PRIMITIVES)
def test_primitive_gradcheck_random_points(name, f):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    for _ in range(20):
        x = Tensor(rng.uniform(-2, 2, size=(3, 2)), requires_grad=True)
        report = gradcheck(f, [x], tol=1e-6)
        assert report.passed, f"{name}: {report.max_rel_err}"


def test_relu_gradcheck_away_from_kink():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=(3, 2))
        x[np.abs(x) < 0.05] = 0.5  # keep clear of the nondifferentiable point
        t = Tensor(x, requires_grad=True)
        report = gradcheck(lambda xs: ad.tensor_sum(ad.relu(xs[0])), [t],
                           tol=1e-6)
        assert report.passed


def test_gradcheck_sum_of_squares():
    rng = np.random.default_rng(2)
    x = Tensor(rng.random((4, 3)), requires_grad=True)
    report = gradcheck(lambda xs: ad.tensor_sum(ad.square(xs[0])), [x],
                       tol=1e-8)
    assert report.passed
    assert report.max_rel_err < 1e-8


def test_gradcheck_constant_function():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    report = gradcheck(
        lambda xs: ad.scale(ad.tensor_sum(ad.square(xs[0])), 0.0), [x],
        tol=1e-10)
    assert report.passed


def test_gradcheck_requires_a_scalar_f():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError, match="gradcheck: f must return a"):
        gradcheck(lambda xs: ad.square(xs[0]), [x])


def test_gradcheck_matmul_chain():
    rng = np.random.default_rng(3)
    a = Tensor(rng.random((3, 4)), requires_grad=True)
    b = Tensor(rng.random((4, 2)), requires_grad=True)
    report = gradcheck(
        lambda xs: ad.tensor_sum(ad.square(xs[0] @ xs[1])), [a, b], tol=1e-6)
    assert report.passed


def test_graph_propagate_blocks():
    prop = np.array([[0.5, 0.5], [0.5, 0.5]])
    x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = ad.graph_propagate(prop, x)
    # node-major: rows 0-1 are node 0 and rows 2-3 node 1 of two windows;
    # each window (rows b and 2+b) is averaged independently
    expect = np.array([[2, 3], [4, 5], [2, 3], [4, 5]], dtype=float)
    assert np.allclose(out.data, expect)
    report = gradcheck(
        lambda xs: ad.tensor_sum(ad.square(
            ad.graph_propagate(prop, xs[0]))), [x], tol=1e-6)
    assert report.passed


def test_graph_propagate_shape_error():
    with pytest.raises(ShapeError):
        ad.graph_propagate(np.eye(3), Tensor(np.zeros((4, 1))))


def test_no_grad_is_per_thread():
    # a worker inside no_grad must not switch recording off elsewhere
    entered, release = threading.Event(), threading.Event()

    def worker():
        with ad.no_grad():
            entered.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(timeout=10)
        assert ad.is_grad_enabled()
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        assert ad.sigmoid(x)._backward is not None
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert ad.is_grad_enabled()


# -- sigmoid ---------------------------------------------------------------

def old_sigmoid(v):
    """The three-exp formula sigmoid used before it shared the fused
    gated step's."""
    return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                    np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))


def test_sigmoid_matches_old_formula_without_overflow():
    v = np.concatenate([np.linspace(-700.0, 700.0, 20001),
                        [-700.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 700.0]])
    v = v.reshape(-1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = ad.sigmoid(Tensor(v)).data
        far = ad.sigmoid(Tensor([[-1000.0, -710.0, 710.0, 1000.0]])).data
    assert np.max(np.abs(got - old_sigmoid(v))) <= 1e-15
    assert np.max(np.abs(far - [[0.0, 0.0, 1.0, 1.0]])) <= 1e-15


# -- fused gated recurrence ---------------------------------------------------

def unfused_gru_step(g, h, w_u, w_r, w_c, b_u, b_r, b_c):
    """The gated update composed from primitives, as the cell computed it
    before the fused kernel existed: the reference for gru_unroll's forward
    and backward."""
    gh = ad.concat_cols(g, h)
    u = ad.sigmoid(gh @ w_u + b_u)
    r = ad.sigmoid(gh @ w_r + b_r)
    c = ad.tanh(ad.concat_cols(g, ad.hadamard(r, h)) @ w_c + b_c)
    return ad.hadamard(u, h) + ad.hadamard(Tensor(np.ones(u.shape)) - u, c)


def unfused_unroll(feats, lift, h0, *gates):
    """unfused_gru_step composed over the window, the input of step t being
    the rank-r product feats[t]·lift."""
    h = h0
    for f in feats:
        h = unfused_gru_step(Tensor(f) @ lift, h, *gates)
    return h


def unroll_inputs(rng, n_steps, m, r, p, k, zero_state=False):
    """The constant (n_steps, m, r) feats, then [lift, h0, w_u, w_r, w_c,
    b_u, b_r, b_c] as Tensors. h0 is a constant: a random, nonzero one, or
    with zero_state the zero-stride zero state the models pass. Every other
    Tensor requires grad."""
    feats = rng.standard_normal((n_steps, m, r))
    shapes = [(r, p), (m, k)] + [(p + k, k)] * 3 + [(1, k)] * 3
    ts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    ts[1] = Tensor(np.broadcast_to(0.0, (m, k)) if zero_state
                   else ts[1].data)
    return feats, ts


@pytest.mark.parametrize("zero_state", [False, True])
def test_gru_step_gradcheck(zero_state):
    rng = np.random.default_rng(21)
    feats, xs = unroll_inputs(rng, 3, 4, 2, 2, 3, zero_state)
    weight = Tensor(rng.standard_normal((4, 3)))
    inputs = [x for x in xs if x.requires_grad]
    assert len(inputs) == 7

    def f(_):
        return ad.tensor_sum(ad.hadamard(ad.gru_unroll(feats, *xs), weight))

    report = gradcheck(f, inputs, tol=1e-7)
    assert report.passed, report.per_input


@pytest.mark.parametrize("m,p,k,zero_state", [
    (1, 1, 1, False), (6, 3, 3, False), (5, 2, 4, False), (7, 4, 2, True),
    (12, 5, 5, True)])
def test_gru_step_matches_unfused_composition(m, p, k, zero_state):
    for n_steps, r in itertools.product((1, 3), (1, 2)):
        rng = np.random.default_rng(m * 100 + p * 10 + k + 7 * n_steps + r)
        feats, xs = unroll_inputs(rng, n_steps, m, r, p, k, zero_state)
        weight = Tensor(rng.standard_normal((m, k)))
        outs, grads = [], []
        for unroll in (ad.gru_unroll, unfused_unroll):
            for x in xs:
                x.zero_grad()
            out = unroll(feats, *xs)
            ad.tensor_sum(ad.hadamard(out, weight)).backward()
            outs.append(out.data)
            grads.append([x.grad for x in xs])
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12
        for x, fused, unfused in zip(xs, *grads):
            if not x.requires_grad:
                assert fused is None
                continue
            assert np.max(np.abs(fused - unfused)) <= 1e-12


BLOCK = 4  # a row block small enough for a few rows to span several


@pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("zero_state", [False, True])
def test_gru_unroll_row_blocks_match_unfused(monkeypatch, m, zero_state):
    # without zero_state the first state is random, so every block's h0
    # rows count
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(30 + m)
    feats, xs = unroll_inputs(rng, 3, m, 2, 3, 2, zero_state)
    weight = Tensor(rng.standard_normal((m, 2)))
    want = unfused_unroll(feats, *xs)
    ad.tensor_sum(ad.hadamard(want, weight)).backward()
    want_grads = [x.grad for x in xs]
    with ad.no_grad():
        assert np.max(np.abs(ad.gru_unroll(feats, *xs).data
                             - want.data)) <= 1e-12
    for x in xs:
        x.zero_grad()
    out = ad.gru_unroll(feats, *xs)
    ad.tensor_sum(ad.hadamard(out, weight)).backward()
    assert np.max(np.abs(out.data - want.data)) <= 1e-12
    for x, unfused in zip(xs, want_grads):
        if not x.requires_grad:
            assert x.grad is None
            continue
        assert np.max(np.abs(x.grad - unfused)) <= 1e-12
    # one forward loop serves both grad modes, so they give the same bits
    with ad.no_grad():
        free = ad.gru_unroll(feats, *xs).data
    assert np.array_equal(free, ad.gru_unroll(feats, *xs).data)


def test_gru_unroll_gradcheck_across_row_blocks(monkeypatch):
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(31)
    m = 2 * BLOCK + 3
    feats, xs = unroll_inputs(rng, 3, m, 2, 2, 3)
    weight = Tensor(rng.standard_normal((m, 3)))

    def f(_):
        return ad.tensor_sum(ad.hadamard(ad.gru_unroll(feats, *xs), weight))

    report = gradcheck(f, [x for x in xs if x.requires_grad], tol=1e-7)
    assert report.passed, report.per_input


def _slowed_block(mp, block, slow):
    """Make row block ``slow`` (of ``block`` rows) sleep before its work, so
    that it ends after the blocks that follow it."""
    probe_row_blocks(mp, lambda start: start // block == slow
                     and time.sleep(0.002))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_gru_unroll_property(data):
    """At any shape, row block and pair of thread counts, forward and
    backward drawn apart, and in either grad mode, gru_unroll is the
    unfused composition to 1e-12 and gives one thread's bytes."""
    n_steps, m, r, p, k, block = (
        data.draw(st.integers(1, 4)), data.draw(st.integers(1, 40)),
        data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
        data.draw(st.integers(1, 6)), data.draw(st.integers(1, 16)))
    counts = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    record, zero_state = data.draw(st.booleans()), data.draw(st.booleans())
    slow = data.draw(st.integers(0, -(-m // block) - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    feats, xs = unroll_inputs(rng, n_steps, m, r, p, k, zero_state)
    weight = Tensor(rng.standard_normal((m, k)))

    def run(forward_count, backward_count):
        for x in xs:
            x.zero_grad()
        with (ad.threads(forward_count), PoisonedEmpty(),
              nullcontext() if record else ad.no_grad()):
            out = ad.gru_unroll(feats, *xs)
        if not record:
            return [out.data]
        with ad.threads(backward_count), PoisonedEmpty():
            ad.tensor_sum(ad.hadamard(out, weight)).backward()
        return [out.data] + [x.grad for x in xs if x.requires_grad]

    want = unfused_unroll(feats, *xs)
    ad.tensor_sum(ad.hadamard(want, weight)).backward()
    want = [want.data] + [x.grad for x in xs if x.requires_grad]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "ROW_BLOCK", block)
        serial = run(1, 1)
        _slowed_block(mp, block, slow)
        threaded = run(*counts)
    assert len(serial) == (8 if record else 1)
    for got, ref, one in zip(threaded, want, serial):
        assert np.max(np.abs(got - ref)) <= 1e-12
        assert got.tobytes() == one.tobytes()


def _threads_seen(monkeypatch, pause):
    """The threads that run gru_unroll's steps from now on, recorded by
    wrapping the gate function every forward step calls, which then sleeps
    ``pause`` seconds so that the blocks spread over the threads."""
    seen, sigmoid = set(), ad._sigmoid_values

    def recorded(v, out=None):
        seen.add(threading.get_ident())
        time.sleep(pause)
        return sigmoid(v, out)

    monkeypatch.setattr(ad, "_sigmoid_values", recorded)
    return seen


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("record", [False, True])
def test_gru_unroll_on_threads_matches_one_thread(monkeypatch, count, record):
    # 11 rows in 3 blocks of 4, 4 and 3 rows
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(34)
    m = 2 * BLOCK + 3
    feats, xs = unroll_inputs(rng, 3, m, 2, 3, 2)
    weight = Tensor(rng.standard_normal((m, 2)))

    # the cells' layout: each row's steps stored together, read step-major
    # through a strided view
    rows = np.ascontiguousarray(feats.transpose(1, 0, 2)).transpose(1, 0, 2)

    def run(feats=feats):
        for x in xs:
            x.zero_grad()
        if not record:
            with ad.no_grad():
                return [ad.gru_unroll(feats, *xs).data]
        out = ad.gru_unroll(feats, *xs)
        ad.tensor_sum(ad.hadamard(out, weight)).backward()
        return [out.data] + [x.grad for x in xs if x.requires_grad]

    serial = run()
    assert not rows.flags.c_contiguous
    for want, got in zip(serial, run(rows)):
        assert got.tobytes() == want.tobytes()
    seen = _threads_seen(monkeypatch, 0.002)
    # a buffer read before it is written shows as NaN
    with ad.threads(count), PoisonedEmpty() as poison:
        threaded = run()
        threaded_rows = run(rows)
    assert 1 < len(seen) <= count
    assert poison.drawn
    if record:
        # the backward's per-thread GEMM temporaries, (q + k, 2k) and
        # (q + k, k) with q = r + 1 = 3 and k = 2, are poisoned too
        assert {(5, 4), (5, 2)} <= set(poison.shapes)
    assert len(threaded) == len(threaded_rows) == (8 if record else 1)
    for want, got, got_rows in zip(serial, threaded, threaded_rows):
        assert got.tobytes() == want.tobytes()
        assert got_rows.tobytes() == want.tobytes()
    seen.clear()
    run()  # the binding ended with the block
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize("record", [False, True])
def test_gru_unroll_reads_input_views_as_their_contiguous_copies(
        monkeypatch, record):
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(43)
    m = 2 * BLOCK + 3
    feats, xs = unroll_inputs(rng, 3, m, 2, 3, 2)
    weight = Tensor(rng.standard_normal((m, 2)))
    h0 = xs[1].data
    # the cells' (m, L, r) rows read step-major; a state stored transposed,
    # and one read as every other column of a wider array
    rows = np.ascontiguousarray(feats.transpose(1, 0, 2)).transpose(1, 0, 2)
    views = [np.ascontiguousarray(h0.T).T, np.repeat(h0, 2, axis=1)[:, ::2]]
    assert not any(v.flags.c_contiguous for v in [rows, *views])

    def run(feats, h0):
        for x in xs:
            x.zero_grad()
        with nullcontext() if record else ad.no_grad():
            out = ad.gru_unroll(feats, xs[0], h0, *xs[2:])
        if not record:
            return [out.data]
        ad.tensor_sum(ad.hadamard(out, weight)).backward()
        return [out.data] + [x.grad for x in xs if x.requires_grad]

    want = run(np.ascontiguousarray(feats), h0.copy())
    assert len(want) == (8 if record else 1)
    for f, h in [(rows, h0), *((feats, v) for v in views), (rows, views[0])]:
        for a, b in zip(want, run(f, h)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("record", [False, True])
def test_gru_unroll_gate_overflow_is_silent_on_worker_threads(
        monkeypatch, record):
    """Gate pre-activations below −709 overflow exp(−v) on whichever thread
    runs their block: σ reads 0 with no RuntimeWarning there, and the
    results are finite and the same bytes at one and two threads."""
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(44)
    m, p, k = 4 * BLOCK, 3, 2
    feats, xs = unroll_inputs(rng, 3, m, 2, p, k)
    for x in xs[2:]:
        x.data *= 1e4
    weight = Tensor(rng.standard_normal((m, k)))
    # step 0's update and reset pre-activations overflow in every block
    w_ur = np.concatenate([w.data for w in xs[2:4]], axis=1)
    b_ur = np.concatenate([b.data for b in xs[5:7]], axis=1)
    z0 = (feats[0] @ xs[0].data @ w_ur[:p] + b_ur + xs[1].data @ w_ur[p:])
    assert (z0.reshape(-1, BLOCK * 2 * k) < -709).any(axis=1).all()
    seen = set()
    probe_row_blocks(monkeypatch, lambda start: (
        seen.add(threading.get_ident()), time.sleep(0.002)))

    def run(count):
        for x in xs:
            x.zero_grad()
        with (warnings.catch_warnings(), ad.threads(count),
              nullcontext() if record else ad.no_grad()):
            warnings.simplefilter("error")
            out = ad.gru_unroll(feats, *xs)
            if not record:
                return [out.data]
            ad.tensor_sum(ad.hadamard(out, weight)).backward()
        return [out.data] + [x.grad for x in xs if x.requires_grad]

    one = run(1)
    seen.clear()
    two = run(2)
    assert len(seen) == 2  # a worker ran blocks
    assert len(one) == (8 if record else 1)
    for a, b in zip(one, two):
        assert np.isfinite(b).all() and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("counts", [(2, 1), (1, 3), (3, 2)])
def test_gru_unroll_backward_runs_on_the_threads_bound_when_it_runs(
        monkeypatch, counts):
    # a tape may outlive the binding its forward ran in, or meet another
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(36)
    m = 2 * BLOCK + 3
    feats, xs = unroll_inputs(rng, 3, m, 2, 3, 2)
    weight = Tensor(rng.standard_normal((m, 2)))

    def grads(forward_count, backward_count):
        for x in xs:
            x.zero_grad()
        with ad.threads(forward_count):
            loss = ad.tensor_sum(
                ad.hadamard(ad.gru_unroll(feats, *xs), weight))
        with ad.threads(backward_count):
            loss.backward()
        return [x.grad for x in xs if x.requires_grad]

    serial = grads(1, 1)
    for want, got in zip(serial, grads(*counts)):
        assert got.tobytes() == want.tobytes()


def _gate_rows(grad, action):
    """grad as an array whose slices call action(first row) before they
    are read: gru_unroll's backward reads its gradient one block at a
    time."""
    class Gated(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice):
                action(key.start)
            return super().__getitem__(key)

    return grad.view(Gated)


def _unroll_backward(xs, feats, count, grad):
    for x in xs:
        x.zero_grad()
    out = ad.gru_unroll(feats, *xs)
    with ad.threads(count):
        out._backward(grad)
    return [x.grad for x in xs if x.requires_grad]


def test_gru_unroll_backward_adds_block_sums_in_block_order(monkeypatch):
    # the first block finishes last, and the others wait to add theirs
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(37)
    feats, xs = unroll_inputs(rng, 3, 4 * BLOCK, 2, 3, 2)
    grad = rng.standard_normal((4 * BLOCK, 2))
    serial = _unroll_backward(xs, feats, 1, grad)
    slow = _gate_rows(grad, lambda start: start or time.sleep(0.05))
    for want, got in zip(serial, _unroll_backward(xs, feats, 3, slow)):
        assert got.tobytes() == want.tobytes()


def test_gru_unroll_backward_error_releases_the_blocks_waiting_on_it(
        monkeypatch):
    # the workers fail every block, while this thread's first is slow, so
    # its next would wait forever to add its sums after a failed one
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(38)
    feats, xs = unroll_inputs(rng, 3, 4 * BLOCK, 2, 3, 2)
    caller, errors = [], []

    def gate(start):
        if threading.get_ident() != caller[0]:
            raise FloatingPointError("block")
        if start == 0:
            time.sleep(0.02)

    def run():
        caller.append(threading.get_ident())
        try:
            _unroll_backward(xs, feats, 3, _gate_rows(
                rng.standard_normal((4 * BLOCK, 2)), gate))
        except FloatingPointError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(errors) == 1


@pytest.mark.parametrize("on_worker", [False, True])
def test_gru_unroll_reraises_a_block_error_once_every_thread_stopped(
        monkeypatch, on_worker):
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    n_blocks, n_steps = 8, 2
    feats, xs = unroll_inputs(np.random.default_rng(35), n_steps,
                              n_blocks * BLOCK, 2, 2, 3)
    caller, sigmoid = threading.get_ident(), ad._sigmoid_values
    calls, running = [], []

    def failing(v, out=None):
        calls.append(None)
        running.append(None)
        try:
            time.sleep(0.002)  # the blocks spread over the threads
            if (threading.get_ident() != caller) == on_worker:
                raise FloatingPointError("gate")
            return sigmoid(v, out)
        finally:
            running.pop()

    monkeypatch.setattr(ad, "_sigmoid_values", failing)
    with ad.threads(3):  # whose end would wait for the workers
        with pytest.raises(FloatingPointError, match="gate"):
            ad.gru_unroll(feats, *xs)
        assert not running  # no thread still runs a step
    if not on_worker:
        # this thread fails in its first block, and the two workers then
        # finish the block they hold and take no other: about 5 calls,
        # against the 15 of running every block
        assert len(calls) <= 1 + 2 * 2 * n_steps


@pytest.mark.parametrize("on_worker", [False, True])
def test_gru_unroll_failed_backward_leaves_no_partial_gradient(
        monkeypatch, on_worker):
    # one block fails, on a worker or on this thread, while the others run:
    # the totals take no block's sums, so no parameter gets a gradient
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(40)
    feats, xs = unroll_inputs(rng, 3, 6 * BLOCK, 2, 3, 2)
    caller, lock = threading.get_ident(), threading.Lock()
    failed, running = [], []

    def gate(start):
        with lock:
            fail = not failed and (threading.get_ident() != caller) == on_worker
            (failed if fail else running).append(start)
        if fail:
            raise FloatingPointError("block")
        time.sleep(0.01)  # the blocks spread over the threads
        with lock:
            running.remove(start)

    grad = _gate_rows(rng.standard_normal((6 * BLOCK, 2)), gate)
    with ad.threads(3):  # whose end would wait for the workers
        with pytest.raises(FloatingPointError, match="block"):
            _unroll_backward(xs, feats, 3, grad)
        assert not running  # no thread still runs a block
    assert len(failed) == 1
    assert all(x.grad is None for x in xs)


# the shapes of the sums the property test's blocks add to their slots
SUMS = [(3,), (2, 2)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_run_rows_runs_each_block_once_and_sums_in_block_order(data):
    m, block, count = (data.draw(st.integers(1, 40)),
                       data.draw(st.integers(1, 16)),
                       data.draw(st.integers(1, 4)))
    n_blocks = -(-m // block)
    delays = data.draw(st.lists(st.sampled_from([0.0, 0.0005, 0.002]),
                                min_size=n_blocks, max_size=n_blocks))
    # the thread whose first block fails, if any: a worker may run none
    failing = data.draw(st.sampled_from([None, "caller", "worker"]))
    # slot values over many binades, so that another order of addition
    # changes the totals' last bits
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = [rng.standard_normal((n_blocks, *shape))
              * 10.0 ** rng.integers(-6, 7, (n_blocks, *shape))
              for shape in SUMS]
    caller, lock = threading.get_ident(), threading.Lock()
    events, owners, drawn = [], {}, []

    def own(rows):
        drawn.append((threading.get_ident(), rows))
        return (object(),)

    def task(s, e, *args):
        *slots, mine = args
        j, me = s // block, threading.get_ident()
        assert (s, e) == (j * block, min(j * block + block, m))
        with lock:
            fail = (failing == ("caller" if me == caller else "worker")
                    and all(ev[2] != me for ev in events)
                    and all(ev[0] != "fail" for ev in events))
            events.append(("fail" if fail else "start", j, me))
            owners.setdefault(id(mine), set()).add(me)
        if fail:
            raise FloatingPointError(f"block {j}")
        time.sleep(delays[j])
        for slot, value in zip(slots, values):
            assert not slot.any()  # each block's own zeroed slot
            slot += value[j]
        with lock:
            events.append(("end", j, me))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "ROW_BLOCK", block)
        with ad.threads(count):
            try:
                totals = ad.run_rows(m, task, own, SUMS)
            except FloatingPointError as exc:
                totals = exc
            after = list(events)
        # the binding's end joined the workers: none ran on after the call
        assert events == after
    # the scratch: drawn on this thread for the tallest block, one per
    # thread and at most one thread per block, each used by one thread
    assert drawn == [(caller, min(m, block))] * min(count, n_blocks)
    assert all(len(threads) == 1 for threads in owners.values())
    taken = [j for kind, j, _ in events if kind != "end"]
    assert len(taken) == len(set(taken))  # no block runs twice
    fails = [i for i, ev in enumerate(events) if ev[0] == "fail"]
    # every thread stopped before the call returned
    assert len(taken) == len(events) - len(taken) + len(fails)
    if not fails:
        assert sorted(taken) == list(range(n_blocks))
        for total, value in zip(totals, values):
            want = np.zeros(value.shape[1:])
            for v in value:  # the serial block-order sum
                want += v
            assert total.tobytes() == want.tobytes()
        return
    _, j, thread = events[fails[0]]
    assert str(totals) == f"block {j}"
    if thread == caller:
        # after this thread's error the workers take no further block: at
        # most one each, taken as the error was raised, starts later
        assert [ev[0] for ev in events[fails[0]:]].count("start") < count
    else:
        # a worker's error stops that worker alone
        assert sorted(taken) == list(range(n_blocks))


def test_run_rows_adds_one_entry_slots_in_block_order(monkeypatch):
    # numpy adds the entries of a lone axis pairwise, from 8 on: a slot of
    # one entry (relu_mlp's, at horizon, seq_len and hidden 1) must still
    # add in block order
    monkeypatch.setattr(ad, "ROW_BLOCK", 1)
    rng = np.random.default_rng(5)
    for m in (8, 9, 40):
        values = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m)

        def task(s, e, slot, _):
            slot += values[s]

        total, = ad.run_rows(m, task, lambda rows: (None,), [(1, 1)])
        want = np.zeros((1, 1))
        for v in values:
            want += v
        assert total.tobytes() == want.tobytes()


def test_threads_binding_is_per_thread_and_kept_when_nested():
    with ad.threads(2):
        executor = ad._local.executor
        with ad.threads(2):  # the same count: the same workers
            assert ad._local.executor is executor
        with ad.threads(3):
            assert ad._local.threads == 3
            assert ad._local.executor is not executor
        assert ad._local.executor is executor
        other = []
        thread = threading.Thread(target=lambda: other.append(
            (ad._local.threads, ad._local.executor)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and other == [(1, None)]
    assert (ad._local.threads, ad._local.executor) == (1, None)


def test_gru_unroll_refuses_an_h0_that_requires_grad():
    # the first state is a constant: a gradient asked of it would be dropped
    # without a word
    feats, xs = unroll_inputs(np.random.default_rng(33), 3, 4, 2, 2, 3)
    xs[1] = Tensor(xs[1].data, requires_grad=True)
    with pytest.raises(ContractError, match="h0 requires grad"):
        ad.gru_unroll(feats, *xs)
    with ad.no_grad():  # nothing is recorded, so nothing is dropped
        out = ad.gru_unroll(feats, *xs)
    assert out._backward is None and out.data.shape == (4, 3)


def test_gru_step_records_nothing_under_no_grad():
    m, k = 300, 40
    feats, xs = unroll_inputs(np.random.default_rng(22), 6, m, 2, 3, k)
    want = unfused_unroll(feats, *xs).data
    tracemalloc.start()
    try:
        with ad.no_grad():
            out = ad.gru_unroll(feats, *xs)
        kept, _ = tracemalloc.get_traced_memory()
        with ad.no_grad():
            ad.gru_unroll(feats, *xs)
        recorded = ad.gru_unroll(feats, *xs)
        kept_recorded, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._backward is None and not out.requires_grad
    assert out._parents == ()
    assert np.max(np.abs(out.data - want)) <= 1e-12
    # nothing outlives the call but the (m, k) result, while a recording
    # call keeps its L·m·3k gate floats, [u; r] and c, and not its states:
    # beside them only its result, the features and the (q + k, 3k)
    # weights folded with the lift, q = r + 1
    assert kept <= out.data.nbytes + 4096
    n_steps, q, gates = 6, 3, 6 * m * 3 * k * 8
    assert kept_recorded - kept >= gates
    assert kept_recorded - kept < (gates + n_steps * m * 8 + out.data.nbytes
                                   + feats.nbytes + (q + k) * 3 * k * 8)
    assert recorded._backward is not None


def test_gru_step_leaves_its_inputs_unchanged():
    feats, xs = unroll_inputs(np.random.default_rng(23), 3, 4, 2, 3, 3)
    before = [feats.copy()] + [x.data.copy() for x in xs]
    out = ad.gru_unroll(feats, *xs)
    ad.tensor_sum(out).backward()
    with ad.no_grad():
        ad.gru_unroll(feats, *xs)
    for x, b in zip([feats] + [x.data for x in xs], before):
        assert np.array_equal(x, b)


def test_gru_step_shape_error_names_shapes():
    feats, xs = unroll_inputs(np.random.default_rng(24), 2, 4, 2, 2, 3)
    bad_w = xs[:4] + [Tensor(np.zeros((4, 3)))] + xs[5:]
    with pytest.raises(ShapeError, match=r"gru_unroll.*\(4, 3\)"):
        ad.gru_unroll(feats, *bad_w)
    with pytest.raises(ShapeError, match=r"gru_unroll.*h0 \(3, 3\)"):
        ad.gru_unroll(feats, xs[0], Tensor(np.zeros((3, 3))), *xs[2:])
    with pytest.raises(ShapeError, match=r"gru_unroll.*lift \(3, 2\)"):
        ad.gru_unroll(feats, Tensor(np.zeros((3, 2))), *xs[1:])
    with pytest.raises(ShapeError, match=r"gru_unroll: .*feats \(4, 2\)"):
        ad.gru_unroll(feats[0], *xs)
    with pytest.raises(ShapeError, match=r"gru_unroll: .*feats \(0, 4, 2\)"):
        ad.gru_unroll(feats[:0], *xs)


# -- relu_mlp ------------------------------------------------------------------

def relu_mlp_inputs(rng, m, d, hidden, o):
    """x with an all-zero row and w0 with an all-zero column, so that x·w0
    has entries that are exactly 0, and weights that require grad."""
    x = rng.standard_normal((m, d))
    x[m // 2] = 0.0
    w0 = rng.standard_normal((d, hidden))
    w0[:, 1] = 0.0
    return (x, Tensor(w0, requires_grad=True),
            Tensor(rng.standard_normal((hidden, o)), requires_grad=True))


def _relu_mlp_and_grads(f, x, w0, w1, weight):
    w0.zero_grad()
    w1.zero_grad()
    out = f(x, w0, w1)
    ad.tensor_sum(ad.hadamard(out, weight)).backward()
    return out.data, w0.grad, w1.grad


def composed_relu_mlp(x, w0, w1):
    return ad.relu(Tensor(x) @ w0) @ w1


@pytest.mark.parametrize("o", [1, 3])
@pytest.mark.parametrize("block,m", [(ad.ROW_BLOCK, 7), (BLOCK, BLOCK),
                                     (BLOCK, 2 * BLOCK + 3)])
def test_relu_mlp_matches_composition(monkeypatch, o, block, m):
    # x·w0 has entries exactly on the ReLU kink (relu_mlp_inputs); at each
    # thread count, and with every buffer read before it is written showing
    # as NaN, the result and gradients are those of one thread
    monkeypatch.setattr(ad, "ROW_BLOCK", block)
    rng = np.random.default_rng(40 + m + o)
    x, w0, w1 = relu_mlp_inputs(rng, m, 3, 5, o)
    weight = Tensor(rng.standard_normal((m, o)))
    want = _relu_mlp_and_grads(composed_relu_mlp, x, w0, w1, weight)
    seen = set()
    probe_row_blocks(monkeypatch, lambda start: seen.add(
        threading.get_ident()) or time.sleep(0.002))
    for count in (1, 2, 3):
        seen.clear()
        with ad.threads(count), PoisonedEmpty():
            got = _relu_mlp_and_grads(ad.relu_mlp, x, w0, w1, weight)
            with ad.no_grad():
                free = ad.relu_mlp(x, w0, w1)
        if count == 1:
            serial = got
        for a, b, c in zip(got, want, serial):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12
            assert a.tobytes() == c.tobytes(), count
        assert free._backward is None and np.array_equal(free.data, got[0])
        # at most one thread per block
        assert len(seen) <= count
        assert (len(seen) > 1) == (count > 1 and m > block), count


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_relu_mlp_property(data):
    """At any shape, row block and pair of thread counts, forward and
    backward drawn apart, with entries of x·w0 exactly on the kink,
    relu_mlp is relu(x·w0)·w1 to 1e-12 and gives one thread's bytes."""
    m, d, hidden, o, block = (
        data.draw(st.integers(1, 40)), data.draw(st.integers(1, 4)),
        data.draw(st.integers(2, 6)), data.draw(st.integers(1, 3)),
        data.draw(st.integers(1, 16)))
    counts = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    slow = data.draw(st.integers(0, -(-m // block) - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x, w0, w1 = relu_mlp_inputs(rng, m, d, hidden, o)
    weight = Tensor(rng.standard_normal((m, o)))

    def run(forward_count, backward_count):
        w0.zero_grad()
        w1.zero_grad()
        with ad.threads(forward_count), PoisonedEmpty():
            out = ad.relu_mlp(x, w0, w1)
        with ad.threads(backward_count), PoisonedEmpty():
            ad.tensor_sum(ad.hadamard(out, weight)).backward()
        return out.data, w0.grad, w1.grad

    want = _relu_mlp_and_grads(composed_relu_mlp, x, w0, w1, weight)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "ROW_BLOCK", block)
        serial = run(1, 1)
        _slowed_block(mp, block, slow)
        threaded = run(*counts)
    for got, ref, one in zip(threaded, want, serial):
        assert np.max(np.abs(got - ref)) <= 1e-12
        assert got.tobytes() == one.tobytes()


def test_relu_mlp_zero_activation_passes_no_gradient(monkeypatch):
    # w0's zero column makes x·w0 exactly 0 in that column on every row:
    # neither that column of w0 nor that row of w1 gets any gradient
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(41)
    m = 2 * BLOCK + 3
    x, w0, w1 = relu_mlp_inputs(rng, m, 3, 5, 2)
    _, dw0, dw1 = _relu_mlp_and_grads(ad.relu_mlp, x, w0, w1,
                                      Tensor(rng.standard_normal((m, 2))))
    assert np.array_equal(dw0[:, 1], np.zeros(3))
    assert np.array_equal(dw1[1], np.zeros(2))
    assert np.all(np.delete(dw0, 1, axis=1) != 0.0)
    w0.data[:] = 0.0
    _, dw0, dw1 = _relu_mlp_and_grads(ad.relu_mlp, x, w0, w1,
                                      Tensor(np.ones((m, 2))))
    assert np.array_equal(dw0, np.zeros_like(dw0))
    assert np.array_equal(dw1, np.zeros_like(dw1))


def test_relu_mlp_gradcheck_across_row_blocks(monkeypatch):
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(42)
    m = 2 * BLOCK + 3
    x = rng.standard_normal((m, 3))
    w0 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w1 = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    weight = Tensor(rng.standard_normal((m, 2)))

    def f(ws):
        return ad.tensor_sum(ad.hadamard(ad.relu_mlp(x, *ws), weight))

    report = gradcheck(f, [w0, w1], tol=1e-7)
    assert report.passed, report.per_input


def test_relu_mlp_keeps_each_calls_mask(monkeypatch):
    # two recording calls, both backwards after both forwards: each tape
    # node holds its own ReLU mask, drawn afresh (and poisoned) per call;
    # a call under no_grad draws none
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(43)
    m = 2 * BLOCK + 3
    calls = [relu_mlp_inputs(rng, m, 3, 5, 2) for _ in range(2)]
    weights = [Tensor(rng.standard_normal((m, 2))) for _ in calls]
    want = [_relu_mlp_and_grads(composed_relu_mlp, *args, weight)
            for args, weight in zip(calls, weights)]
    for _, w0, w1 in calls:
        w0.zero_grad()
        w1.zero_grad()
    with PoisonedEmpty() as poison:
        outs = [ad.relu_mlp(*args) for args in calls]
        assert [dtype for dtype, _ in poison.drawn].count(bool) == 2
        for out, weight in zip(outs, weights):
            ad.tensor_sum(ad.hadamard(out, weight)).backward()
    for (_, w0, w1), out, expected in zip(calls, outs, want):
        for got, ref in zip((out.data, w0.grad, w1.grad), expected):
            assert np.max(np.abs(got - ref)) <= 1e-12
    with ad.no_grad(), PoisonedEmpty() as poison:
        ad.relu_mlp(*calls[0])
    assert poison.drawn and bool not in [dtype for dtype, _ in poison.drawn]


def _relu_mlp_backward(x, w0, w1, grad, count):
    w0.zero_grad()
    w1.zero_grad()
    out = ad.relu_mlp(x, w0, w1)
    with ad.threads(count):
        out._backward(grad)
    return w0.grad, w1.grad


def test_relu_mlp_backward_adds_block_sums_in_block_order(monkeypatch):
    # the first block finishes last
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(44)
    x, w0, w1 = relu_mlp_inputs(rng, 4 * BLOCK, 3, 5, 2)
    grad = rng.standard_normal((4 * BLOCK, 2))
    serial = _relu_mlp_backward(x, w0, w1, grad, 1)
    probe_row_blocks(monkeypatch, lambda start: start or time.sleep(0.05))
    for want, got in zip(serial, _relu_mlp_backward(x, w0, w1, grad, 3)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("on_worker", [False, True])
@pytest.mark.parametrize("backward", [False, True])
def test_relu_mlp_reraises_a_block_error_once_every_thread_stopped(
        monkeypatch, backward, on_worker):
    # one block fails, on a worker or on this thread, while the others run:
    # the error comes once no thread runs a block, and the weights get no
    # gradient
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(45)
    x, w0, w1 = relu_mlp_inputs(rng, 6 * BLOCK, 3, 5, 2)
    out = ad.relu_mlp(x, w0, w1) if backward else None
    caller, lock = threading.get_ident(), threading.Lock()
    failed, running = [], []

    def gate(start):
        with lock:
            fail = not failed and (threading.get_ident() != caller) == on_worker
            (failed if fail else running).append(start)
        if fail:
            raise FloatingPointError("block")
        time.sleep(0.01)  # the blocks spread over the threads
        with lock:
            running.remove(start)

    probe_row_blocks(monkeypatch, gate)
    with ad.threads(3):  # whose end would wait for the workers
        with pytest.raises(FloatingPointError, match="block"):
            if backward:
                out._backward(rng.standard_normal((6 * BLOCK, 2)))
            else:
                ad.relu_mlp(x, w0, w1)
        assert not running  # no thread still runs a block
    assert len(failed) == 1
    assert w0.grad is None and w1.grad is None


def test_relu_mlp_shape_error_names_shapes():
    x = np.zeros((4, 3))
    w0, w1 = Tensor(np.zeros((3, 5))), Tensor(np.zeros((5, 2)))
    names = r"relu_mlp: .*x \(4, 2\), w0 \(3, 5\), w1 \(5, 2\)"
    with pytest.raises(ShapeError, match=names):
        ad.relu_mlp(x[:, :2], w0, w1)
    with pytest.raises(ShapeError, match=r"relu_mlp: .*w1 \(4, 2\)"):
        ad.relu_mlp(x, w0, Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match=r"relu_mlp: .*x \(4,\)"):
        ad.relu_mlp(x[:, 0], w0, w1)
