import itertools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

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


def test_gradient_accumulation_two_paths():
    x = Tensor(1.5, requires_grad=True)
    (x + x).backward()
    assert x.grad == pytest.approx(2.0)


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
    ("hadamard", lambda xs: ad.tensor_sum(xs[0] * xs[0])),
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
    report = gradcheck(lambda xs: ad.tensor_sum(ad.square(xs[0])) * 0.0, [x],
                       tol=1e-10)
    assert report.passed


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
    c = ad.tanh(ad.concat_cols(g, r * h) @ w_c + b_c)
    return u * h + (1.0 - u) * c


def unfused_unroll(feats, lift, h0, *gates):
    """unfused_gru_step composed over the window, the input of step t being
    the rank-r product feats[t]·lift."""
    h = h0
    for f in feats:
        h = unfused_gru_step(Tensor(f) @ lift, h, *gates)
    return h


def unroll_inputs(rng, n_steps, m, r, p, k, h_const=False):
    """The constant (n_steps, m, r) feats, then [lift, h0, w_u, w_r, w_c,
    b_u, b_r, b_c] as Tensors; with h_const, h0 is the zero first state and
    needs no gradient."""
    feats = rng.standard_normal((n_steps, m, r))
    shapes = [(r, p), (m, k)] + [(p + k, k)] * 3 + [(1, k)] * 3
    ts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    if h_const:
        ts[1] = Tensor(np.zeros((m, k)))
    return feats, ts


@pytest.mark.parametrize("h_const", [False, True])
def test_gru_step_gradcheck(h_const):
    rng = np.random.default_rng(21)
    feats, xs = unroll_inputs(rng, 3, 4, 2, 2, 3, h_const)
    weight = Tensor(rng.standard_normal((4, 3)))
    inputs = [x for x in xs if x.requires_grad]
    assert len(inputs) == (7 if h_const else 8)

    def f(_):
        return ad.tensor_sum(ad.gru_unroll(feats, *xs) * weight)

    report = gradcheck(f, inputs, tol=1e-7)
    assert report.passed, report.per_input


@pytest.mark.parametrize("m,p,k,h_const", [
    (1, 1, 1, False), (6, 3, 3, False), (5, 2, 4, False), (7, 4, 2, True),
    (12, 5, 5, True)])
def test_gru_step_matches_unfused_composition(m, p, k, h_const):
    for n_steps, r in itertools.product((1, 3), (1, 2)):
        rng = np.random.default_rng(m * 100 + p * 10 + k + 7 * n_steps + r)
        feats, xs = unroll_inputs(rng, n_steps, m, r, p, k, h_const)
        weight = Tensor(rng.standard_normal((m, k)))
        outs, grads = [], []
        for unroll in (ad.gru_unroll, unfused_unroll):
            for x in xs:
                x.zero_grad()
            out = unroll(feats, *xs)
            ad.tensor_sum(out * weight).backward()
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
@pytest.mark.parametrize("h_const", [False, True])
def test_gru_unroll_row_blocks_match_unfused(monkeypatch, m, h_const):
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(30 + m)
    feats, xs = unroll_inputs(rng, 3, m, 2, 3, 2, h_const)
    if h_const:  # a nonzero first state, so every block's h0 rows count
        xs[1] = Tensor(rng.standard_normal((m, 2)))
    weight = Tensor(rng.standard_normal((m, 2)))
    want = unfused_unroll(feats, *xs)
    ad.tensor_sum(want * weight).backward()
    want_grads = [x.grad for x in xs]
    with ad.no_grad():
        assert np.max(np.abs(ad.gru_unroll(feats, *xs).data
                             - want.data)) <= 1e-12
    for x in xs:
        x.zero_grad()
    out = ad.gru_unroll(feats, *xs)
    ad.tensor_sum(out * weight).backward()
    assert np.max(np.abs(out.data - want.data)) <= 1e-12
    for x, unfused in zip(xs, want_grads):
        if not x.requires_grad:
            assert x.grad is None
            continue
        assert np.max(np.abs(x.grad - unfused)) <= 1e-12
    # one forward loop serves both grad modes, so they give the same bits,
    # from the zero-stride first state the models pass and from a random one
    for h0 in (np.broadcast_to(0.0, (m, 2)), xs[1]):
        args = [xs[0], h0, *xs[2:]]
        with ad.no_grad():
            free = ad.gru_unroll(feats, *args).data
        assert np.array_equal(free, ad.gru_unroll(feats, *args).data)


def test_gru_unroll_gradcheck_across_row_blocks(monkeypatch):
    monkeypatch.setattr(ad, "ROW_BLOCK", BLOCK)
    rng = np.random.default_rng(31)
    m = 2 * BLOCK + 3
    feats, xs = unroll_inputs(rng, 3, m, 2, 2, 3)
    weight = Tensor(rng.standard_normal((m, 3)))

    def f(_):
        return ad.tensor_sum(ad.gru_unroll(feats, *xs) * weight)

    report = gradcheck(f, xs, tol=1e-7)
    assert report.passed, report.per_input


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
    # call keeps its (L, m, ·) blocks
    assert kept <= out.data.nbytes + 4096
    assert kept_recorded - kept >= 6 * m * 4 * k * 8
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
