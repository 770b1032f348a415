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


# -- differential: against the Python-loop reader it replaced ---------------

def _loop_read(path, convert=float):
    """The reader `data.read_csv_matrix` replaced, kept as an oracle: a
    text-mode line loop that converts one cell at a time with `convert`."""
    rows, linenos = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    row = list(map(convert, cells))
                except ValueError:
                    bad = next(i for i, c in enumerate(cells)
                               if not _converts(convert, c))
                    raise ParseError(f"{path}: non-numeric cell at row "
                                     f"{lineno}, column {bad + 1}") from None
                if rows and len(row) != len(rows[0]):
                    raise ParseError(f"{path}: row {lineno} has {len(row)} "
                                     f"columns, expected {len(rows[0])}")
                rows.append(row)
                linenos.append(lineno)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        # the loop's text decoder counted from its current input, not from
        # the start of the file, which is what the reader now reports
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    values = np.array(rows, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(f"{path}: non-finite cell at row {linenos[i]}, "
                         f"column {j + 1}")
    return values


def _converts(convert, cell):
    try:
        convert(cell)
        return True
    except ValueError:
        return False


def _numpy_grammar(cell):
    """float() with the departures of numpy's number grammar: digit
    separators ("1_0") and non-ASCII digits ("١") are refused, and the
    ASCII information separators \\x1c-\\x1f pad a cell like the other
    whitespace that str.strip removes."""
    core = cell.strip()
    if "_" in core or not core.isascii():
        raise ValueError(cell)
    return float(core)


def _outcome(read, path):
    try:
        values = read(path)
    except ParseError as exc:
        return str(exc)
    return values.shape, values.tobytes()


def _assert_same_as_loop(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(raw)
        want = _outcome(lambda p: _loop_read(p, _numpy_grammar), path)
        assert _outcome(data.read_csv_matrix, path) == want


PADDING = st.sampled_from(["", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f",
                           "\x85", "\xa0", "\u2003", "\u3000"])
# tokens whose reading changed: float() took them, numpy's grammar does not,
# or (for the separators) the other way round
GRAMMAR = st.sampled_from(["1_0", "1_000.5", "\u0661", "\u0663.\u0665",
                           "1\x1c", "\x1e2", "3\x1d\x1f"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_reader_matches_loop_on_token_grids(draw):
    width = draw.draw(st.integers(1, 4))
    token = st.one_of(NUMBERS, NUMBERS, NUMBERS, BAD, NON_FINITE, GRAMMAR)
    cell = st.tuples(PADDING, token, PADDING).map("".join)
    blank = st.lists(PADDING, max_size=3).map("".join)
    lines = []
    for _ in range(draw.draw(st.integers(1, 5))):
        kind = draw.draw(st.sampled_from(["row", "row", "row", "blank",
                                          "ragged"]))
        if kind == "blank":
            lines.append(draw.draw(blank))
            continue
        cols = width if kind == "row" else draw.draw(st.integers(1, 5))
        lines.append(",".join(draw.draw(cell) for _ in range(cols)))
    text = "".join(line + draw.draw(LINE_ENDS) for line in lines)
    if not draw.draw(st.booleans()):
        text = text[:-1].rstrip("\r")  # no line end after the last line
    raw = text.encode()
    if draw.draw(st.integers(0, 4)) == 0:  # splice in bytes, maybe not UTF-8
        at = draw.draw(st.integers(0, len(raw)))
        junk = draw.draw(st.binary(min_size=1, max_size=3))
        raw = raw[:at] + junk + raw[at:]
    _assert_same_as_loop(raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(max_size=120))
def test_reader_matches_loop_on_arbitrary_bytes(raw):
    _assert_same_as_loop(raw)


@pytest.mark.parametrize("token", ["1_0", "1_000.5", "\u0661",
                                   "\u0663.\u0665"])
def test_digit_separators_and_non_ascii_digits_are_non_numeric(tmp_path,
                                                               token):
    # float() took these; numpy's number grammar does not
    path = tmp_path / "m.csv"
    path.write_text(f"0,1\n1,{token}\n", encoding="utf-8")
    assert np.isfinite(_loop_read(path)).all()
    with pytest.raises(ParseError,
                       match="non-numeric cell at row 2, column 2$"):
        data.read_csv_matrix(path)


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_information_separators_pad_a_cell(tmp_path, sep):
    # str.strip already dropped them at the ends of a line; numpy's grammar
    # drops them around any cell, where float() refused them
    path = tmp_path / "m.csv"
    path.write_text(f"0{sep},1\n1,{sep}0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-numeric cell at row 1, "):
        _loop_read(path)
    assert np.array_equal(data.read_csv_matrix(path), [[0, 1], [1, 0]])


@pytest.mark.parametrize("raw,offset", [
    (b"0,1\n" * 3000 + b"1,\xe9\n", 12002),  # past the first 8 KiB read
    (b"\x00\xc2", 1),  # an incomplete sequence at the end of the file
])
def test_non_utf8_offset_counts_from_file_start(tmp_path, raw, offset):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"at byte {offset}\\)$"):
        data.read_csv_matrix(path)
