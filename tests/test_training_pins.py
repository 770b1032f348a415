"""Pins of what training produces on the ring fixture, so that a change
that moves a bit of the parameters, history or predictions fails here.

Each learned kind trains four epochs at batch 11 over 59 windows, so five
full batches and a short one of 4, each step in groups of at most 3
windows (3, 3, 3 and 2; then 2 and 2). The SHA-256 digests of the best and
final parameters, the history and the test predictions are compared with
`training_pins.json`. They hold for one numpy, BLAS build and BLAS core,
the file's ``key``; under another key the float summary (losses, each
parameter's norm and the test RMSE) is compared at 1e-9 relative instead.
A change that moves the bits on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_training_pins.py
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from conftest import ring_adjacency, ring_series
from tgcn import data, training
from tgcn.graph import build_propagation
from tgcn.models import SequenceModel

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "training_pins.json")
KINDS = ("tgcn", "gru", "gcn")
GROUP = 3  # windows per group
SUMMARY_RTOL = 1e-9


def environment_key():
    """numpy's version, its BLAS build and the BLAS core chosen at run
    time: a DYNAMIC_ARCH OpenBLAS picks its kernels by CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        corename = getattr(ctypes.CDLL(path),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return (f"numpy {np.__version__}; {blas.get('name')} "
            f"{blas.get('version')}; {blas.get('openblas configuration')}; "
            f"core {core}")


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def run(kind):
    """Digests and float summary of one training run of the kind."""
    prop = build_propagation(ring_adjacency())
    ds = data.normalize(data.TimeSeriesDataset(
        values=ring_series(timesteps=80)))
    train_ws, test_ws = data.make_windows(ds, 4, 1)
    model = SequenceModel(kind, 10, 6, 4, 1, propagation=prop)
    model.init_parameters(28)
    config = training.TrainConfig(lr=0.01, batch_size=11, epochs=4, seed=28,
                                  weight_decay=1e-3, eval_every=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "TAPE_BYTES", GROUP * model.tape_bytes())
        result = training.train(model, train_ws, test_ws, ds, config)
    final = {k: p.data for k, p in model.parameters().items()}
    pred = training.predict_windows(model, test_ws.inputs)
    summary = {}
    for row in result.history:
        summary[f"train_loss {row['epoch']}"] = row["train_loss"]
        if row["rmse"] is not None:
            summary[f"rmse {row['epoch']}"] = row["rmse"]
    for which, params in (("best", result.best_params), ("final", final)):
        for name, value in params.items():
            summary[f"{which} |{name}|"] = float(np.linalg.norm(value))
    digests = {
        "best": _digest(*result.best_params.values()),
        "final": _digest(*final.values()),
        "history": hashlib.sha256(
            json.dumps(result.history).encode()).hexdigest(),
        "predictions": _digest(pred),
    }
    return digests, summary


def largest_change(got, want):
    """The summary entry that moved most, relative to its pinned value."""
    assert list(got) == list(want)
    return max((abs(got[k] - want[k]) / max(abs(want[k]), 1e-300), k)
               for k in want)


@pytest.mark.parametrize("kind", KINDS)
def test_training_reproduces_its_pins(kind):
    with open(PINS) as f:
        pins = json.load(f)
    digests, summary = run(kind)
    change, entry = largest_change(summary, pins["summary"][kind])
    if pins["key"] == environment_key():
        moved = [k for k, v in digests.items() if pins["digests"][kind][k] != v]
        assert not moved, (f"{kind}: the digests of {moved} differ; the "
                           f"largest relative change in the summary is "
                           f"{change:.3g}, in {entry!r}")
    else:
        assert change <= SUMMARY_RTOL, (
            f"{kind}: {entry!r} moved by {change:.3g} relative, under "
            f"another environment than the pins' ({pins['key']!r})")


def regenerate():
    pins = {"key": environment_key(), "digests": {}, "summary": {}}
    for kind in KINDS:
        pins["digests"][kind], pins["summary"][kind] = run(kind)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")
    return pins["key"]


if __name__ == "__main__":
    print(f"wrote {PINS} for {regenerate()}")
