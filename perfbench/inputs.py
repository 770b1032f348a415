"""Seeded synthetic inputs with the paper's dataset shapes.

The real SZ-taxi and Los-loop files are not redistributable, so the benchmark
writes look-alikes: a sparse, symmetric, road-like graph (each road joined to
its nearest neighbours in a random plane layout) and speed series with a
daily period, per-road level and phase, graph-smoothed noise and, for the
loop-detector shape, a share of zero cells that stand for missing readings.
Both files are written as headerless CSVs with one row per road, so set-up
time runs the program's real parsers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """What the generator needs to know about one dataset."""
    n_nodes: int
    n_steps: int
    steps_per_day: int
    neighbours: int
    weighted: bool
    missing_frac: float


# SZ-taxi: 156 roads, 15-minute speeds over January 2015, 0/1 adjacency.
SZ = Shape(n_nodes=156, n_steps=2976, steps_per_day=96, neighbours=2,
           weighted=False, missing_frac=0.0)
# Los-loop: 207 detectors, 5-minute speeds, distance-weighted adjacency,
# zero cells for missing readings.
LOS = Shape(n_nodes=207, n_steps=2016, steps_per_day=288, neighbours=3,
            weighted=True, missing_frac=0.03)


def road_graph(shape, rng):
    """Symmetric nonnegative adjacency with a zero diagonal: every node is
    joined to its `neighbours` nearest nodes in a random unit-square layout."""
    n = shape.n_nodes
    pos = rng.random((n, 2))
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    nearest = np.argsort(dist, axis=1)[:, :shape.neighbours]
    adj = np.zeros((n, n))
    rows = np.repeat(np.arange(n), shape.neighbours)
    cols = nearest.ravel()
    if shape.weighted:
        sigma = np.median(dist[rows, cols])
        adj[rows, cols] = np.exp(-(dist[rows, cols] / sigma) ** 2)
    else:
        adj[rows, cols] = 1.0
    return np.maximum(adj, adj.T)


def speed_series(shape, adjacency, rng):
    """(n_steps, n_nodes) speeds in km/h with a daily cycle; when
    `missing_frac` > 0 that share of cells is zero, but never a whole road."""
    n, steps = shape.n_nodes, shape.n_steps
    t = np.arange(steps)[:, None]
    level = rng.uniform(25.0, 65.0, size=n)
    amp = rng.uniform(0.1, 0.35, size=n) * level
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    daily = np.sin(2.0 * np.pi * t / shape.steps_per_day + phase)
    # neighbouring roads share part of their noise, like real congestion
    mix = adjacency + np.eye(n)
    mix /= mix.sum(axis=1, keepdims=True)
    noise = rng.normal(0.0, 1.0, size=(steps, n)) @ mix.T
    speed = np.maximum(level + amp * daily + 3.0 * noise, 1.0)
    if shape.missing_frac > 0:
        missing = rng.random((steps, n)) < shape.missing_frac
        missing[0, :] = False  # every road keeps at least one reading
        speed[missing] = 0.0
    return speed


def write_inputs(shape, seed, adj_path, speed_path):
    """Write the adjacency and the one-row-per-road speed CSVs for `seed`;
    returns the adjacency matrix."""
    rng = np.random.default_rng(seed)
    adjacency = road_graph(shape, rng)
    speed = speed_series(shape, adjacency, rng)
    np.savetxt(adj_path, adjacency, delimiter=",",
               fmt="%.6g" if shape.weighted else "%d")
    np.savetxt(speed_path, speed.T, delimiter=",", fmt="%.4f")
    return adjacency
