"""Road-network adjacency handling and the symmetric-normalized propagation
matrix used by every graph convolution layer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import read_csv_matrix
from .errors import InvalidGraph, ParseError

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class RoadNetwork:
    """Immutable graph: raw adjacency plus the precomputed propagation matrix."""
    n_nodes: int
    adjacency: np.ndarray
    propagation: np.ndarray


def build_propagation(adjacency):
    """Self-loop augmented, symmetrically degree-normalized adjacency.

    Given A, returns D^{-1/2} (A + I) D^{-1/2} with D the diagonal of
    row sums of A + I. Self-loops guarantee strictly positive degrees.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidGraph(f"adjacency must be square, got shape {a.shape}")
    if a.size == 0:
        raise InvalidGraph("adjacency is empty")
    finite = np.isfinite(a)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise InvalidGraph(f"non-finite entry at ({i}, {j})")
    if np.any(a < 0):
        i, j = np.argwhere(a < 0)[0]
        raise InvalidGraph(f"negative entry at ({i}, {j})")
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise InvalidGraph("adjacency is not symmetric within tolerance")
    a_tilde = a + np.eye(a.shape[0])
    with np.errstate(over="ignore"):  # reported below
        degree = a_tilde.sum(axis=1)
    overflow = ~np.isfinite(degree)
    if overflow.any():
        raise InvalidGraph(f"degree of row {overflow.argmax()} overflows")
    d_inv_sqrt = 1.0 / np.sqrt(degree)
    return (a_tilde * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]


def road_network(adjacency):
    a = np.asarray(adjacency, dtype=np.float64)
    return RoadNetwork(n_nodes=a.shape[0], adjacency=a,
                       propagation=build_propagation(a))


def load_adjacency(path):
    """Read a headerless square CSV of nonnegative floats into a RoadNetwork."""
    a = read_csv_matrix(path)
    if a.shape[0] != a.shape[1]:
        raise ParseError(
            f"{path}: matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    return road_network(a)
