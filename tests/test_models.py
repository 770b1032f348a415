import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PoisonedEmpty
from tgcn import autodiff as ad
from tgcn.autodiff import Tensor, gradcheck
from tgcn.errors import CheckpointError, ConfigError, ContractError, ShapeError
from tgcn.graph import build_propagation
from tgcn.models import (GATE_PARAMS, GcnEncoder, GruCell, SequenceModel,
                         TgcnCell, ha_predict, load_checkpoint,
                         save_checkpoint)
from tgcn.training import predict_windows

from test_autodiff import unfused_gru_step


def random_graph(rng, n):
    adj = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    return build_propagation(adj + adj.T)


# -- straight-line transcriptions of the model equations, numpy only ---------

def gcn_oracle(prop, w0, w1, x):
    return prop @ np.maximum(prop @ x @ w0, 0.0) @ w1


def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def gated_step_oracle(g, h, wu, wr, wc, bu, br, bc):
    u = _sig(np.hstack([g, h]) @ wu + bu)
    r = _sig(np.hstack([g, h]) @ wr + br)
    c = np.tanh(np.hstack([g, r * h]) @ wc + bc)
    return u * h + (1.0 - u) * c


def tgcn_step_oracle(prop, cell, x, h):
    g = gcn_oracle(prop, cell.w0.data, cell.w1.data, x)
    return gated_step_oracle(g, h, cell.w_u.data, cell.w_r.data,
                             cell.w_c.data, cell.b_u.data, cell.b_r.data,
                             cell.b_c.data)


def gru_step_oracle(cell, x, h):
    g = x @ cell.w_in.data
    return gated_step_oracle(g, h, cell.w_u.data, cell.w_r.data,
                             cell.w_c.data, cell.b_u.data, cell.b_r.data,
                             cell.b_c.data)


def _randomize(cell, rng):
    for name in ("w_u", "w_r", "w_c", "b_u", "b_r", "b_c"):
        p = getattr(cell, name)
        p.data[:] = rng.standard_normal(p.shape)
    if isinstance(cell, GruCell):
        cell.w_in.data[:] = rng.standard_normal(cell.w_in.shape)
    else:
        cell.w0.data[:] = rng.standard_normal(cell.w0.shape)
        cell.w1.data[:] = rng.standard_normal(cell.w1.shape)


# -- GCN encoder -------------------------------------------------------------

def test_gcn_isolated_node_passthrough():
    enc = GcnEncoder(np.eye(1), 1, 1)
    enc.w0.data[:] = 1.0
    enc.w1.data[:] = 1.0
    out = enc.forward(Tensor([[2.0]]), Tensor([[1.0]]))
    assert np.allclose(out.data, [[2.0]])


def test_gcn_zero_input_zero_output():
    rng = np.random.default_rng(0)
    prop = random_graph(rng, 4)
    enc = GcnEncoder(prop, 2, 3)
    enc.w0.data[:] = rng.standard_normal(enc.w0.shape)
    enc.w1.data[:] = rng.standard_normal(enc.w1.shape)
    out = enc.forward(Tensor(np.zeros((4, 2))),
                      Tensor(rng.standard_normal((3, 2))))
    assert np.array_equal(out.data, np.zeros((4, 2)))


def test_gcn_matches_direct_evaluation():
    rng = np.random.default_rng(1)
    prop = random_graph(rng, 4)
    enc = GcnEncoder(prop, 2, 3)
    enc.w0.data[:] = rng.standard_normal(enc.w0.shape)
    enc.w1.data[:] = rng.standard_normal(enc.w1.shape)
    x = rng.standard_normal((4, 2))
    head = rng.standard_normal((3, 2))
    got = enc.forward(Tensor(x), Tensor(head)).data
    want = gcn_oracle(prop, enc.w0.data, enc.w1.data, x) @ head
    assert np.max(np.abs(got - want)) < 1e-12


def test_gcn_forward_shape_error():
    enc = GcnEncoder(np.eye(3), 1, 2)
    with pytest.raises(ShapeError):
        enc.forward(Tensor(np.zeros((4, 1))), Tensor(np.zeros((2, 1))))


def test_gcn_forward_refuses_an_input_that_requires_grad():
    # the input is a constant of the hidden layer: a gradient asked of it
    # would be dropped without a word
    enc = GcnEncoder(np.eye(3), 1, 2)
    with pytest.raises(ContractError, match="requires grad"):
        enc.forward(Tensor(np.zeros((3, 1)), requires_grad=True),
                    Tensor(np.zeros((2, 1))))


# -- cell steps --------------------------------------------------------------

def test_tgcn_step_zero_weights_halves_state():
    prop = random_graph(np.random.default_rng(2), 3)
    cell = TgcnCell(prop, 4)
    h = np.random.default_rng(3).standard_normal((3, 4))
    out = cell.step(Tensor(np.ones((3, 1))), Tensor(h))
    assert np.allclose(out.data, 0.5 * h, atol=1e-15)


def test_tgcn_step_zero_state_zero_weights():
    prop = random_graph(np.random.default_rng(2), 3)
    cell = TgcnCell(prop, 4)
    out = cell.step(Tensor(np.ones((3, 1))), Tensor(np.zeros((3, 4))))
    assert np.array_equal(out.data, np.zeros((3, 4)))


def test_cell_oracle_equivalence_50_instances():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        hidden = int(rng.integers(1, 6))
        prop = random_graph(rng, n)
        x = rng.standard_normal((n, 1))
        h = rng.standard_normal((n, hidden))

        cell = TgcnCell(prop, hidden)
        _randomize(cell, rng)
        got = cell.step(Tensor(x), Tensor(h)).data
        want = tgcn_step_oracle(prop, cell, x, h)
        assert np.max(np.abs(got - want)) < 1e-12

        gru = GruCell(hidden)
        _randomize(gru, rng)
        got = gru.step(Tensor(x), Tensor(h)).data
        want = gru_step_oracle(gru, x, h)
        assert np.max(np.abs(got - want)) < 1e-12


def test_gru_matches_tgcn_on_edgeless_graph():
    # on an edgeless graph the propagation is I; picking the GCN weights to
    # implement the same nonnegative input lift makes the two cells agree
    rng = np.random.default_rng(5)
    hidden = 3
    n = 4
    lift = np.abs(rng.standard_normal((1, hidden))) + 0.1
    tg = TgcnCell(build_propagation(np.zeros((n, n))), hidden)
    gr = GruCell(hidden)
    for name in ("w_u", "w_r", "w_c", "b_u", "b_r", "b_c"):
        w = rng.standard_normal(getattr(tg, name).shape)
        getattr(tg, name).data[:] = w
        getattr(gr, name).data[:] = w
    gr.w_in.data[:] = lift
    tg.w0.data[:] = lift  # relu is identity for nonnegative activations
    tg.w1.data[:] = np.eye(hidden)
    x = np.abs(rng.standard_normal((n, 1)))  # keep the relu path active
    h = rng.standard_normal((n, hidden))
    a = tg.step(Tensor(x), Tensor(h)).data
    b = gr.step(Tensor(x), Tensor(h)).data
    assert np.max(np.abs(a - b)) < 1e-12


def test_gate_ranges():
    rng = np.random.default_rng(6)
    prop = random_graph(rng, 5)
    cell = TgcnCell(prop, 4)
    _randomize(cell, rng)
    # float64 sigmoid saturates to exactly 1.0 around z ~ 37, so probe the
    # open-interval property at moderate preactivations
    g = tgcn_input_transform(cell, Tensor(rng.standard_normal((5, 1))))
    h = Tensor(rng.standard_normal((5, 4)))
    gh = ad.concat_cols(g, h)
    u = ad.sigmoid(gh @ cell.w_u + cell.b_u).data
    r = ad.sigmoid(gh @ cell.w_r + cell.b_r).data
    c = ad.tanh(ad.concat_cols(g, ad.hadamard(Tensor(r), h))
                @ cell.w_c + cell.b_c).data
    assert np.all((u > 0) & (u < 1))
    assert np.all((r > 0) & (r < 1))
    assert np.all((c > -1) & (c < 1))


def test_contraction_at_zero_weights():
    prop = random_graph(np.random.default_rng(7), 3)
    cell = TgcnCell(prop, 4)
    h0 = np.random.default_rng(8).standard_normal((3, 4))
    h = Tensor(h0)
    # forward only: a recorded step's state requires grad, and a step takes
    # its state as a constant
    with ad.no_grad():
        for t in range(1, 6):
            h = cell.step(Tensor(np.ones((3, 1))), h)
            assert np.allclose(np.linalg.norm(h.data),
                               0.5 ** t * np.linalg.norm(h0), atol=1e-12)


# -- sequence model ----------------------------------------------------------

def test_forward_zero_weights_gives_bias():
    prop = random_graph(np.random.default_rng(9), 3)
    model = SequenceModel("tgcn", 3, 4, 5, 2, propagation=prop)
    model.proj_b.data[:] = [[1.5, -2.0]]
    window = np.random.default_rng(10).random((5, 3))
    pred = model.predict(window)
    assert np.allclose(pred, np.tile([[1.5, -2.0]], (3, 1)))


def test_seq_len_one_equals_single_step():
    rng = np.random.default_rng(11)
    prop = random_graph(rng, 4)
    model = SequenceModel("tgcn", 4, 3, 1, 1, propagation=prop)
    model.init_parameters(0)
    window = rng.random((1, 4))
    pred = model.predict(window)
    with ad.no_grad():
        h = model.encoder.step(Tensor(window.T), Tensor(np.zeros((4, 3))))
        want = h.data @ model.proj_w.data + model.proj_b.data
    assert np.allclose(pred, want, atol=1e-15)


def test_forward_wrong_window_length():
    prop = random_graph(np.random.default_rng(12), 3)
    model = SequenceModel("tgcn", 3, 4, 5, 1, propagation=prop)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((4, 3)))


@pytest.mark.parametrize("kind", ["tgcn", "gcn", "gru", "ha"])
@pytest.mark.parametrize("nodes", [2, 6])
def test_window_node_count_checked(kind, nodes):
    # 6 nodes are a whole multiple of the graph's 3, which the propagation
    # alone would not refuse
    prop = random_graph(np.random.default_rng(12), 3)
    model = SequenceModel(kind, 3, 4, 5, 1, propagation=prop)
    with pytest.raises(ShapeError,
                       match=f"window has {nodes} nodes, model expects 3"):
        model.forward(np.zeros((5, nodes)))


def test_unknown_model_kind_is_config_error():
    with pytest.raises(ConfigError, match="unknown model kind 'lstm'"):
        SequenceModel("lstm", 3, 4, 5, 1)


@pytest.mark.parametrize("kind,sizes", [
    ("tgcn", (0, 4, 5, 1)), ("gcn", (3, 4, 0, 1)), ("gru", (3, 4, 5, 0)),
    ("tgcn", (3, 0, 5, 1)), ("gru", (3, -1, 5, 1)), ("ha", (3, 1, 0, 1)),
])
def test_sizes_validated(kind, sizes):
    prop = random_graph(np.random.default_rng(12), 3)
    with pytest.raises(ConfigError):
        SequenceModel(kind, *sizes, propagation=prop)


@pytest.mark.parametrize("field,value", [
    ("n_nodes", 3.0), ("hidden", 2.5), ("seq_len", True),
    ("horizon", np.float64(1.0))])
def test_sizes_must_be_integers(field, value):
    prop = random_graph(np.random.default_rng(12), 3)
    sizes = {"n_nodes": 3, "hidden": 2, "seq_len": 4, "horizon": 1}
    with pytest.raises(ConfigError, match=f"^'{field}' must be an integer"):
        SequenceModel("tgcn", **{**sizes, field: value}, propagation=prop)
    model = SequenceModel("tgcn", **{**sizes, field: np.int64(3)},
                          propagation=prop)
    assert getattr(model, field) == 3


@pytest.mark.parametrize("kind", ["tgcn", "gcn"])
def test_graph_kind_needs_fitting_propagation(kind):
    with pytest.raises(ConfigError, match="road network"):
        SequenceModel(kind, 3, 4, 5, 1)
    with pytest.raises(ConfigError, match="3 nodes"):
        SequenceModel(kind, 3, 4, 5, 1, propagation=np.eye(4))


def test_unrolled_gradcheck():
    # MSE through a 12-step unroll, all parameters at once
    rng = np.random.default_rng(13)
    prop = random_graph(rng, 3)
    model = SequenceModel("tgcn", 3, 2, 12, 1, propagation=prop)
    model.init_parameters(1)
    window = rng.random((12, 3))
    target = rng.random((3, 1))
    params = list(model.parameters().values())

    def f(_):
        pred = model.forward(window)
        return ad.tensor_mean(ad.square(pred - Tensor(target)))

    report = gradcheck(f, params, tol=1e-4)
    assert report.passed, report.per_input


def _batch_model(kind, n=4, seq_len=5, horizon=2):
    rng = np.random.default_rng(27)
    path = np.eye(n, k=1)
    prop = build_propagation(path + path.T)
    model = SequenceModel(kind, n, 3, seq_len, horizon, propagation=prop)
    for p in model.parameters().values():
        p.data[:] = rng.standard_normal(p.shape)
    return model


@pytest.mark.parametrize("kind", ["tgcn", "gcn", "gru", "ha"])
def test_batch_predict_equals_stacked_single_windows(kind):
    # a batch is stacked node-major inside the model; predict must undo
    # that, so no window sees another window's rows
    model = _batch_model(kind)
    windows = np.random.default_rng(28).random((3, 5, 4))
    got = model.predict(windows)
    want = np.stack([model.predict(w) for w in windows])
    # windows and nodes must differ, or a mixed-up layout would not show
    assert np.all(np.ptp(want, axis=0) > 1e-3)
    assert np.all(np.ptp(want, axis=1) > 1e-3)
    assert got.shape == (3, 4, 2)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("kind", ["tgcn", "gcn", "gru", "ha"])
def test_predict_on_zero_windows(kind):
    model = _batch_model(kind)
    empty = np.empty((0, 5, 4))
    assert model.predict(empty).shape == (0, 4, 2)
    assert predict_windows(model, empty).shape == (0, 4, 2)


@pytest.mark.parametrize("kind", ["tgcn", "gcn", "gru"])
def test_batch_gradcheck(kind):
    # MSE over a 3-window batch, targets aligned with the node-major rows
    rng = np.random.default_rng(29)
    model = _batch_model(kind, n=3, seq_len=4, horizon=2)
    windows = rng.random((3, 4, 3))
    targets = rng.random((3, 3, 2))  # (B, n, horizon)
    truth = Tensor(targets.transpose(1, 0, 2).reshape(-1, 2))
    params = list(model.parameters().values())

    def f(_):
        return ad.tensor_mean(ad.square(model.forward(windows) - truth))

    report = gradcheck(f, params, tol=1e-4)
    assert report.passed, report.per_input


def test_edgeless_graph_locality():
    # with no edges, node i's prediction ignores node j's history bit-exactly
    rng = np.random.default_rng(14)
    n = 5
    prop = build_propagation(np.zeros((n, n)))
    model = SequenceModel("tgcn", n, 4, 6, 2, propagation=prop)
    model.init_parameters(3)
    window = rng.random((6, n))
    base = model.predict(window)
    perturbed = window.copy()
    perturbed[:, 2] += 10.0
    pred = model.predict(perturbed)
    others = [i for i in range(n) if i != 2]
    assert np.array_equal(base[others], pred[others])
    assert not np.array_equal(base[2], pred[2])


def tape_nodes(out):
    """Recorded nodes (those with a backward closure) reachable from out."""
    seen, stack, count = set(), [out], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            count += t._backward is not None
            stack.extend(t._parents)
    return count


@pytest.mark.parametrize("kind,nodes", [("tgcn", 6), ("gru", 3)])
def test_forward_tape_node_count(kind, nodes):
    # a constant per forward, whatever seq_len: the recorded part of the
    # lift (matmul, relu, matmul for tgcn; gru's lift is w_in itself), one
    # gru_unroll, then the head's matmul and bias add
    prop = random_graph(np.random.default_rng(25), 4)
    for seq_len in (1, 12):
        model = SequenceModel(kind, 4, 3, seq_len, 1, propagation=prop)
        model.init_parameters(0)
        out = model.forward(
            np.random.default_rng(26).random((2, seq_len, 4)))
        assert tape_nodes(out) == nodes


@pytest.mark.parametrize("kind", ["tgcn", "gru", "gcn"])
def test_tape_bytes_match_what_a_recording_forward_keeps(monkeypatch, kind):
    # training sizes its window groups by tape_bytes, so a kernel that keeps
    # more per row than its encoder states must fail here. The per-row
    # figure is the difference between two batch sizes: each thread's block
    # scratch, drawn for the tallest block, cancels
    monkeypatch.setattr(ad, "ROW_BLOCK", 16)
    rng = np.random.default_rng(27)
    n, seq_len = 6, 12
    model = SequenceModel(kind, n, 32, seq_len, 3,
                          propagation=random_graph(rng, n))
    model.init_parameters(0)
    windows = model.feature_windows(rng.random((12, seq_len, n)))

    def drawn(count):
        with PoisonedEmpty() as poison:
            out = model.forward(windows.take(np.arange(count)))
        assert out._backward is not None
        return sum(nbytes for _, nbytes in poison.drawn)

    per_row = (drawn(12) - drawn(4)) / (n * 8)
    stated = model.tape_bytes() / n
    assert abs(per_row - stated) <= 0.1 * stated, (per_row, stated)


def tgcn_input_transform(cell, x_t):
    """T-GCN's graph convolution of the node-major (m, 1) input x_t,
    P·relu(P·x_t·w0)·w1, composed from primitives."""
    prop = cell.propagation
    return ad.graph_propagate(
        prop, ad.relu(ad.graph_propagate(prop, x_t) @ cell.w0) @ cell.w1)


def stepwise_forward(model, windows):
    """The cell unrolled one step at a time from primitives: the input
    transform (tgcn_input_transform, or x_t·w_in) on each timestep's
    node-major column, then unfused_gru_step, then the head."""
    cell = model.encoder
    batch, seq_len, n = windows.shape
    h = Tensor(np.zeros((n * batch, model.hidden)))
    for t in range(seq_len):
        x_t = Tensor(windows[:, t, :].T.reshape(-1, 1))
        g = (x_t @ cell.w_in if isinstance(cell, GruCell)
             else tgcn_input_transform(cell, x_t))
        h = unfused_gru_step(g, h, *(getattr(cell, k) for k in GATE_PARAMS))
    return h @ model.proj_w + model.proj_b


def _kinked_instance(rng, kind, horizon=2):
    """A random graph with an isolated node, standard-normal parameters with
    w0 entries negative, exactly zero and positive, and windows with an
    all-zero timestep and an all-zero node, so that y = P·x_t is 0."""
    n = int(rng.integers(2, 7))
    hidden = int(rng.integers(3, 6))
    adj = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    adj = adj + adj.T
    adj[0, :] = adj[:, 0] = 0.0  # node 0 is isolated
    model = SequenceModel(kind, n, hidden, 4, horizon,
                          propagation=build_propagation(adj))
    for p in model.parameters().values():
        p.data[:] = rng.standard_normal(p.shape)
    if kind == "tgcn":
        model.encoder.w0.data[0, :3] = [-0.8, 0.0, 1.1]
    windows = rng.standard_normal((3, 4, n))
    windows[:, 1, :] = 0.0
    windows[:, :, 0] = 0.0
    return model, windows


@pytest.mark.parametrize("kind", ["tgcn", "gru"])
def test_forward_equals_stepwise_unroll(kind):
    rng = np.random.default_rng(30)
    for _ in range(20):
        model, windows = _kinked_instance(rng, kind)
        target = Tensor(rng.standard_normal((windows.shape[2] * 3, 2)))
        params = list(model.parameters().values())
        outs, grads = [], []
        for forward in (model.forward, lambda w: stepwise_forward(model, w)):
            for p in params:
                p.zero_grad()
            out = forward(windows)
            ad.tensor_mean(ad.square(out - target)).backward()
            outs.append(out.data)
            grads.append([p.grad for p in params])
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-10
        for fused, reference in zip(*grads):
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(fused - reference)) <= 1e-10 * scale


def unfolded_gcn_forward(model, windows):
    """The GCN baseline in the order of its equation, the head last:
    (P·relu(P·X·W0)·W1)·proj_w + proj_b."""
    enc = model.encoder
    x = Tensor(windows.transpose(2, 0, 1).reshape(-1, windows.shape[1]))
    h = ad.relu(ad.graph_propagate(enc.propagation, x) @ enc.w0)
    return (ad.graph_propagate(enc.propagation, h) @ enc.w1 @ model.proj_w
            + model.proj_b)


@pytest.mark.parametrize("horizon", [1, 3])
def test_gcn_folded_head_equals_unfolded(horizon):
    # W1·proj_w is one recorded product, so w1 and proj_w must each get the
    # gradient the unfolded chain gives them
    check_folded_head_equals_unfolded(horizon)


@pytest.mark.parametrize("horizon", [1, 3])
def test_gcn_folded_head_equals_unfolded_across_row_blocks(monkeypatch,
                                                           horizon):
    # 6 to 18 rows in blocks of 4, so most instances end on a short block
    monkeypatch.setattr(ad, "ROW_BLOCK", 4)
    check_folded_head_equals_unfolded(horizon)


def check_folded_head_equals_unfolded(horizon):
    rng = np.random.default_rng(33 + horizon)
    for _ in range(20):
        model, windows = _kinked_instance(rng, "gcn", horizon)
        target = Tensor(rng.standard_normal((windows.shape[2] * 3, horizon)))
        params = list(model.parameters().values())
        outs, grads = [], []
        for forward in (model.forward,
                        lambda w: unfolded_gcn_forward(model, w)):
            for p in params:
                p.zero_grad()
            out = forward(windows)
            ad.tensor_mean(ad.square(out - target)).backward()
            outs.append(out.data)
            grads.append([p.grad for p in params])
        scale = max(1.0, float(np.max(np.abs(outs[1]))))
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12 * scale
        for folded, reference in zip(*grads):
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(folded - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("horizon", [1, 3])
def test_gcn_second_propagation_runs_on_horizon_columns(monkeypatch, horizon):
    n, batch, hidden, seq_len = 4, 3, 7, 5
    model = SequenceModel("gcn", n, hidden, seq_len, horizon,
                          propagation=random_graph(np.random.default_rng(35), n))
    model.init_parameters(0)
    shapes = []
    propagate = ad.graph_propagate

    def recorded(prop, x):
        shapes.append(x.shape)
        return propagate(prop, x)

    monkeypatch.setattr(ad, "graph_propagate", recorded)
    model.forward(np.random.default_rng(36).random((batch, seq_len, n)))
    # the first propagation, prop·x_t, runs once per timestep of the stack's
    # own batch·seq_len rows, as one (n, timesteps) matrix
    assert shapes == [(n, batch * seq_len), (n * batch, horizon)]


def test_relu_gradient_zero_at_kink_in_lift():
    # relu's gradient at 0 is 0: w0 entries at exactly 0 receive exactly no
    # gradient through the lift, as through the per-step GCN, and the other
    # entries still receive one
    rng = np.random.default_rng(31)
    model, windows = _kinked_instance(rng, "tgcn")
    w0 = model.encoder.w0
    target = Tensor(rng.standard_normal((windows.shape[2] * 3, 2)))
    for forward in (model.forward, lambda w: stepwise_forward(model, w)):
        w0.zero_grad()
        ad.tensor_mean(ad.square(forward(windows) - target)).backward()
        assert w0.grad[0, 1] == 0.0
        assert np.all(w0.grad[0, [0, 2]] != 0.0)
    w0.data[:] = 0.0
    w0.zero_grad()
    ad.tensor_mean(ad.square(model.forward(windows) - target)).backward()
    assert np.array_equal(w0.grad, np.zeros_like(w0.data))


def test_gcn_predict_memory_below_one_hidden_activation():
    # the GCN baseline's hidden layer runs in row blocks, so inference never
    # holds an (n·B, hidden) array, let alone the activation, its ReLU and a
    # mask
    n, batch, hidden, seq_len = 50, 40, 100, 4
    rng = np.random.default_rng(37)
    model = SequenceModel("gcn", n, hidden, seq_len, 1,
                          propagation=random_graph(rng, n))
    model.init_parameters(0)
    windows = rng.random((batch, seq_len, n))
    activation_bytes = n * batch * hidden * 8
    assert n * batch > 3 * ad.ROW_BLOCK
    model.predict(windows[:1])  # first-call allocations
    tracemalloc.start()
    try:
        model.predict(windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < activation_bytes, peak / activation_bytes


def test_predict_memory_bounded_by_state_size():
    # a batch whose (m, hidden) state is far larger than the parameters:
    # inference keeps the (m, hidden) result and row-block-sized step
    # buffers, and no full-height buffer or per-step block
    n, batch, hidden, seq_len = 50, 200, 64, 4
    rng = np.random.default_rng(32)
    model = SequenceModel("tgcn", n, hidden, seq_len, 1,
                          propagation=random_graph(rng, n))
    model.init_parameters(0)
    windows = rng.random((batch, seq_len, n))
    state_bytes = n * batch * hidden * 8
    param_bytes = sum(p.data.nbytes for p in model.parameters().values())
    assert state_bytes > 20 * param_bytes
    model.predict(windows[:1])  # first-call allocations
    tracemalloc.start()
    try:
        model.predict(windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * state_bytes, peak / state_bytes


# -- HA baseline -------------------------------------------------------------

def test_ha_constant_window():
    window = np.full((4, 3), 7.0)
    assert np.array_equal(ha_predict(window, 2), np.full((3, 2), 7.0))


def test_ha_window_mean():
    window = np.array([[1.0], [3.0]])
    assert np.array_equal(ha_predict(window, 2), [[2.0, 2.0]])


def test_ha_model_kind():
    model = SequenceModel("ha", 2, 1, 2, 3)
    window = np.array([[1.0, 0.0], [3.0, 2.0]])
    pred = model.predict(window)
    assert np.array_equal(pred, [[2.0] * 3, [1.0] * 3])


# -- initialization ----------------------------------------------------------

def test_init_deterministic_per_seed():
    prop = random_graph(np.random.default_rng(15), 3)
    a = SequenceModel("tgcn", 3, 4, 5, 1, propagation=prop)
    b = SequenceModel("tgcn", 3, 4, 5, 1, propagation=prop)
    a.init_parameters(99)
    b.init_parameters(99)
    for (ka, pa), (kb, pb) in zip(a.parameters().items(),
                                  b.parameters().items()):
        assert ka == kb and np.array_equal(pa.data, pb.data)
    b.init_parameters(100)
    assert any(not np.array_equal(pa.data, pb.data)
               for pa, pb in zip(a.parameters().values(),
                                 b.parameters().values()))


def test_init_biases_zero_and_bounds():
    prop = random_graph(np.random.default_rng(16), 3)
    model = SequenceModel("tgcn", 3, 4, 5, 1, propagation=prop)
    model.init_parameters(7)
    for name, p in model.parameters().items():
        if name.startswith("b_") or name == "proj_b":
            assert np.array_equal(p.data, np.zeros(p.shape))
        else:
            bound = np.sqrt(6.0 / sum(p.shape))
            assert np.all(np.abs(p.data) <= bound)


def test_init_mean_statistics():
    # pool ~1e5 uniform draws across many seeds; empirical mean within 3 sigma
    prop = random_graph(np.random.default_rng(17), 4)
    samples = []
    for seed in range(60):
        m = SequenceModel("tgcn", 4, 16, 5, 1, propagation=prop)
        m.init_parameters(seed)
        for name, p in m.weight_parameters().items():
            bound = np.sqrt(6.0 / sum(p.shape))
            samples.append(p.data.ravel() / bound)  # uniform on [-1, 1]
    pooled = np.concatenate(samples)
    assert pooled.size >= 1e5
    sigma = 1.0 / np.sqrt(3 * pooled.size)
    assert abs(pooled.mean()) < 3 * sigma


# -- checkpoints -------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    prop = random_graph(rng, 4)
    model = SequenceModel("tgcn", 4, 3, 5, 2, propagation=prop)
    model.init_parameters(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, propagation=prop)
    for pa, pb in zip(model.parameters().values(),
                      loaded.parameters().values()):
        assert np.array_equal(pa.data, pb.data)
    window = rng.random((5, 4))
    assert np.array_equal(model.predict(window), loaded.predict(window))


def test_checkpoint_round_trip_gru(tmp_path):
    model = SequenceModel("gru", 4, 3, 5, 1)
    model.init_parameters(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    window = np.random.default_rng(19).random((5, 4))
    assert np.array_equal(model.predict(window), loaded.predict(window))


# SHA-256 of checkpoint v1 files of seeded 3-node models (hidden 4, seq_len
# 5, horizon 2) as written before the model layer was reorganised: pins the
# byte layout, the parameter order and the order of the initial draws
PINNED_CHECKPOINTS = {
    "tgcn": "5391d7902eb5918b76a202b500b02b9af91937cace83582f1d67f2a0f9da2f9a",
    "gcn": "14e3ce2a7150c6a2b9a052c402888c5f981779f0d126fcbfea34bb58562a150c",
    "gru": "0a015ef9f0bea9f492d0fca4787bd042250bf456a8418ce7bb0b17e093d3740b",
    "ha": "ad2a800173feb1e5a577f76f8e674e7adcdf58242a2fa96fe41e3224a1fbbfc4",
}


@pytest.mark.parametrize("kind", PINNED_CHECKPOINTS)
def test_checkpoint_v1_bytes_pinned(tmp_path, kind):
    prop = build_propagation([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    model = SequenceModel(kind, 3, 4, 5, 2, propagation=prop)
    model.init_parameters(11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_CHECKPOINTS[kind]
    loaded = load_checkpoint(path, propagation=prop)
    assert list(loaded.parameters()) == list(model.parameters())


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="absent.ckpt"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_checkpoint_corrupt_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    model = SequenceModel("gru", 2, 2, 2, 1)
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.ckpt"
    model = SequenceModel("gru", 2, 2, 2, 1)
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_byte(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(SequenceModel("gru", 2, 2, 2, 1), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(path)


def test_save_checkpoint_refuses_non_finite_before_writing(tmp_path):
    # neither an existing checkpoint nor a new path is touched
    model = SequenceModel("gru", 2, 2, 2, 1)
    model.init_parameters(4)
    kept, fresh = tmp_path / "kept.ckpt", tmp_path / "fresh.ckpt"
    save_checkpoint(model, kept)
    before = kept.read_bytes()
    model.parameters()["proj_b"].data[...] = np.nan  # the last parameter
    for path in (kept, fresh):
        with pytest.raises(CheckpointError,
                           match="refusing to save non-finite proj_b"):
            save_checkpoint(model, path)
    assert kept.read_bytes() == before
    assert not fresh.exists()


def test_checkpoint_graph_size_mismatch(tmp_path):
    rng = np.random.default_rng(20)
    prop = random_graph(rng, 4)
    model = SequenceModel("tgcn", 4, 3, 5, 1, propagation=prop)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="nodes"):
        load_checkpoint(path, propagation=random_graph(rng, 5))


def _write_with_header(path, edit):
    model = SequenceModel("gru", 2, 2, 2, 1)
    save_checkpoint(model, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    header = edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob
                     + raw[10 + hlen:])


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _set(key, value):
    return lambda h: {**h, key: value}


@pytest.mark.parametrize("edit,key", [
    (_drop("kind"), "kind"), (_set("kind", 3), "kind"),
    (_set("kind", "lstm"), "kind"), (_drop("n_nodes"), "n_nodes"),
    (_set("n_nodes", "2"), "n_nodes"), (_set("n_nodes", 0), "n_nodes"),
    (_drop("hidden"), "hidden"), (_set("hidden", 2.0), "hidden"),
    (_drop("seq_len"), "seq_len"), (_set("seq_len", True), "seq_len"),
    (_drop("horizon"), "horizon"), (_set("horizon", None), "horizon"),
    (_drop("params"), "params"), (_set("params", {}), "params"),
])
def test_checkpoint_header_schema(tmp_path, edit, key):
    path = tmp_path / "model.ckpt"
    _write_with_header(path, edit)
    with pytest.raises(CheckpointError, match=repr(key)):
        load_checkpoint(path)


def test_checkpoint_header_not_an_object(tmp_path):
    path = tmp_path / "model.ckpt"
    _write_with_header(path, lambda h: [h])
    with pytest.raises(CheckpointError, match="not a JSON object"):
        load_checkpoint(path)


def test_checkpoint_header_size_too_large(tmp_path):
    path = tmp_path / "model.ckpt"
    _write_with_header(path, _set("hidden", 10 ** 12))
    with pytest.raises(CheckpointError, match="hidden=1000000000000"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_parameter(tmp_path, bad):
    path = tmp_path / "model.ckpt"
    model = SequenceModel("gru", 2, 2, 2, 1)
    save_checkpoint(model, path)
    # the last 8 bytes are proj_b, the last parameter
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", bad))
    with pytest.raises(CheckpointError, match="non-finite value in proj_b"):
        load_checkpoint(path)


def _fuzz_base(tmp_path):
    prop = build_propagation([[0, 1], [1, 0]])
    model = SequenceModel("tgcn", 2, 2, 2, 1, propagation=prop)
    model.init_parameters(3)
    path = tmp_path / "base.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes(), prop


def _loads_finite_or_refuses(path, raw, prop):
    path.write_bytes(raw)
    try:
        model = load_checkpoint(path, propagation=prop)
    except CheckpointError:
        return
    for p in model.parameters().values():
        assert np.all(np.isfinite(p.data))


def test_checkpoint_every_truncation_and_bit_flip(tmp_path):
    raw, prop = _fuzz_base(tmp_path)
    path = tmp_path / "fuzz.ckpt"
    for cut in range(len(raw)):
        _loads_finite_or_refuses(path, raw[:cut], prop)
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        _loads_finite_or_refuses(path, bytes(flipped), prop)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_edit_property(tmp_path_factory, data):
    """Any truncation, run of bit flips or overwrite of a small seeded
    checkpoint loads a model with finite parameters or is refused with a
    CheckpointError."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    raw, prop = _fuzz_base(tmp_path)
    edited = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, len(edited) - 1))
        edited[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(edited)))
    _loads_finite_or_refuses(tmp_path / "fuzz.ckpt", bytes(edited[:cut]), prop)
