import numpy as np
import pytest

from tgcn import autodiff as ad


def ring_adjacency(n=10):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = 1.0
        adj[(i + 1) % n, i] = 1.0
    return adj


def ring_series(n=10, timesteps=240, noise=0.02, seed=123):
    """Each node's next value is the mean of its two neighbours' current
    values plus small seeded noise; the alternating-sign mode persists, so
    the series stays predictable from the graph."""
    rng = np.random.default_rng(seed)
    x = 0.5 + 0.3 * np.array([(-1.0) ** i for i in range(n)])
    x += 0.05 * rng.standard_normal(n)
    out = [x.copy()]
    for _ in range(timesteps - 1):
        x = 0.5 * (np.roll(x, 1) + np.roll(x, -1)) + noise * rng.standard_normal(n)
        out.append(x.copy())
    return np.array(out)


class PoisonedEmpty:
    """Inside the block, every array a kernel allocates (``autodiff._empty``)
    starts as NaN (True if bool), so a buffer read before it is written
    shows in the results. ``drawn`` lists each draw's (dtype, bytes), and
    ``shapes`` its shape."""

    def __init__(self):
        self.drawn, self.shapes = [], []

    def empty(self, shape, dtype=np.float64):
        buf = np.full(shape, np.nan if np.dtype(dtype).kind == "f" else 1,
                      dtype)
        self.drawn.append((buf.dtype, buf.nbytes))
        self.shapes.append(buf.shape)
        return buf

    def __enter__(self):
        self._plain, ad._empty = ad._empty, self.empty
        return self

    def __exit__(self, *exc):
        ad._empty = self._plain


def probe_row_blocks(monkeypatch, action):
    """Call action(first row) on the thread that runs each row block, before
    the block's work, by wrapping the tasks that ``autodiff.run_rows`` hands
    out."""
    run_rows = ad.run_rows

    def probed(m, task, own, sums=()):
        def probed_task(s, *args):
            action(s)
            task(s, *args)

        return run_rows(m, probed_task, own, sums)

    monkeypatch.setattr(ad, "run_rows", probed)


def write_csv(path, matrix):
    np.savetxt(path, np.asarray(matrix), delimiter=",", fmt="%.12g")
    return str(path)


@pytest.fixture
def ring_files(tmp_path):
    """Adjacency + feature CSVs for the 10-node ring, ready for the CLI."""
    adj_path = write_csv(tmp_path / "adj.csv", ring_adjacency())
    feat_path = write_csv(tmp_path / "speed.csv", ring_series())
    return adj_path, feat_path
