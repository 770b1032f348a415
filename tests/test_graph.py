import numpy as np
import pytest

from tgcn.errors import InvalidGraph, ParseError
from tgcn.graph import build_propagation, load_adjacency, road_network


def propagation_oracle(adj):
    """Direct, unoptimized evaluation of the normalization definition."""
    adj = np.asarray(adj, dtype=float)
    n = adj.shape[0]
    a_tilde = adj + np.eye(n)
    d = np.diag(a_tilde.sum(axis=1))
    d_inv_sqrt = np.linalg.inv(np.sqrt(d))
    return d_inv_sqrt @ a_tilde @ d_inv_sqrt


def test_single_node():
    assert np.array_equal(build_propagation([[0.0]]), [[1.0]])


def test_two_node_symmetric():
    got = build_propagation([[0, 1], [1, 0]])
    assert np.allclose(got, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_three_node_path_derived_values():
    got = build_propagation([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert got[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert got[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-12)
    assert got[1, 1] == pytest.approx(1 / 3, abs=1e-12)
    assert got[0, 2] == 0.0


def test_no_edges_gives_identity():
    assert np.array_equal(build_propagation(np.zeros((5, 5))), np.eye(5))


def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(1, 21)
        adj = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
        adj = adj + adj.T
        got = build_propagation(adj)
        assert np.max(np.abs(got - propagation_oracle(adj))) < 1e-12
        assert np.max(np.abs(got - got.T)) < 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(got))) <= 1 + 1e-9


def test_deterministic_bit_identical():
    adj = ((np.arange(16).reshape(4, 4) % 3) == 0).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    a = build_propagation(adj)
    b = build_propagation(adj)
    assert np.array_equal(a, b)


def test_rejects_non_square():
    with pytest.raises(InvalidGraph):
        build_propagation(np.zeros((2, 3)))


def test_rejects_empty():
    with pytest.raises(InvalidGraph, match="adjacency is empty"):
        build_propagation(np.zeros((0, 0)))


def test_rejects_negative_entry():
    with pytest.raises(InvalidGraph):
        build_propagation([[0, -1], [-1, 0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [build_propagation, road_network])
def test_rejects_non_finite_entry(build, bad):
    adj = np.zeros((3, 3))
    adj[1, 2] = adj[2, 1] = bad
    with pytest.raises(InvalidGraph, match=r"non-finite entry at \(1, 2\)"):
        build(adj)
    adj[0, 0] = bad
    with pytest.raises(InvalidGraph, match=r"non-finite entry at \(0, 0\)"):
        build(adj)


def test_rejects_asymmetry():
    with pytest.raises(InvalidGraph):
        build_propagation([[0, 1], [0, 0]])


def test_weighted_adjacency_accepted():
    adj = np.array([[0, 2.5], [2.5, 0]])
    got = build_propagation(adj)
    assert np.allclose(got, propagation_oracle(adj), atol=1e-15)


def test_load_adjacency_two_by_two(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("0,1\n1,0\n")
    net = load_adjacency(p)
    assert net.n_nodes == 2
    assert np.allclose(net.propagation, [[0.5, 0.5], [0.5, 0.5]])


def test_load_adjacency_ragged(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("0,1\n1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_adjacency(p)


def test_load_adjacency_non_numeric(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("0,x\n1,0\n")
    with pytest.raises(ParseError, match="row 1, column 2"):
        load_adjacency(p)


def test_load_adjacency_empty(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_adjacency(p)


def test_road_network_immutability_of_fields():
    net = road_network([[0, 1], [1, 0]])
    with pytest.raises(AttributeError):
        net.n_nodes = 3
