"""The CSV-matrix reader shared by load_adjacency and load_features: every
bad input is a ParseError (or, for a graph, InvalidGraph) that names the
path, and every accepted file is a finite matrix of the stated shape."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgcn import data
from tgcn.errors import ParseError, TgcnError
from tgcn.graph import load_adjacency

LOADERS = {"adjacency": load_adjacency, "features": data.load_features}


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS)
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "NaN"])
def test_non_finite_cell_located(tmp_path, loader, token):
    path = tmp_path / "m.csv"
    path.write_text(f"0,1\n\n1,{token}\n")
    with pytest.raises(ParseError, match="non-finite cell at row 3, column 2"):
        loader(path)


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS)
def test_missing_file_names_path(tmp_path, loader):
    path = tmp_path / "absent.csv"
    with pytest.raises(ParseError, match="absent.csv"):
        loader(path)


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS)
def test_non_utf8_names_path(tmp_path, loader):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"0,1\n1,0\xe9\n")
    with pytest.raises(ParseError, match="latin1.csv: not UTF-8"):
        loader(path)


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS)
def test_ragged_row_reports_file_line(tmp_path, loader):
    path = tmp_path / "m.csv"
    path.write_text("0,1\n\n1\n")
    with pytest.raises(ParseError, match="row 3 has 1 columns, expected 2"):
        loader(path)


# -- property: finite matrix of the stated shape, or a TgcnError ------------

def _load_all(raw):
    """Run every loader on the bytes; the result of each, or None when it
    raised a TgcnError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(raw)
        out = {}
        for name, load in (("adjacency", load_adjacency),
                           ("features", data.load_features),
                           ("features_t", lambda p: data.load_features(
                               p, transpose=True))):
            try:
                out[name] = load(path)
            except TgcnError:
                out[name] = None
        return out


def _check_finite(out):
    net, ds, ds_t = out["adjacency"], out["features"], out["features_t"]
    if net is not None:
        n = net.n_nodes
        assert net.adjacency.shape == net.propagation.shape == (n, n)
        assert np.isfinite(net.adjacency).all()
        assert np.isfinite(net.propagation).all()
    if ds is not None:
        assert ds.values.ndim == 2 and ds.values.size > 0
        assert np.isfinite(ds.values).all()
        assert np.array_equal(ds_t.values, ds.values.T)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=120))
def test_reader_arbitrary_bytes(raw):
    _check_finite(_load_all(raw))


NUMBERS = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
BAD = st.sampled_from(["x", "", " ", "1..2", "--1", "0x10", "1,", "\x00"])
NON_FINITE = st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e400"])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reader_token_grids(draw):
    rows = draw.draw(st.integers(1, 4))
    cols = draw.draw(st.integers(1, 4))
    token = st.one_of(NUMBERS, NUMBERS, BAD, NON_FINITE)
    grid = [[draw.draw(token) for _ in range(cols)] for _ in range(rows)]
    text = "\n".join(",".join(row) for row in grid) + "\n"
    out = _load_all(text.encode())
    _check_finite(out)
    if all(_is_finite_number(t) for row in grid for t in row):
        want = np.array([[float(t) for t in row] for row in grid])
        assert np.array_equal(out["features"].values, want)
        if out["adjacency"] is not None:
            assert np.array_equal(out["adjacency"].adjacency, want)


def _is_finite_number(token):
    try:
        return bool(np.isfinite(float(token)))
    except ValueError:
        return False
