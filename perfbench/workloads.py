"""The benchmark's workloads and the child process that runs one of them.

Each workload is a closed loop: an operation (a `training.train` call or a
`training.evaluate` call) starts only after the previous one has finished,
each in a fresh child process. The benchmark only calls the public functions
of `tgcn.graph`, `tgcn.data`, `tgcn.models`, `tgcn.training` and
`tgcn.metrics`. Outputs are checked per operation; a failed check counts as a
failed operation instead of stopping the run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import inputs

SEQ_LEN = 12  # input window, as in the paper
SETUP_REPEATS = 9
CHECK_WINDOWS = 4  # windows compared with the numpy transcription per run
PREDICT_RTOL = 1e-9
REFERENCE_RTOL = 1e-6
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. `train_batches` is the fixed prefix of whole
    training batches each `train` call uses (None: the whole train split);
    `test_windows` the fixed prefix of the test split that `evaluate` scores
    (None: all of it); `threads` the TGCN_THREADS value (None: unset);
    `min_children` the fewest children a run makes, however long they
    take."""
    name: str
    shape: inputs.Shape
    kind: str
    hidden: int
    horizon: int
    evaluate_only: bool
    batch: int = 64
    epochs: int = 1
    train_batches: int | None = None
    test_windows: int | None = None
    threads: str | None = None
    reference: str = ""  # the workload whose recorded reference applies
    min_children: int = 1


# why each workload is here: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        "sz_tgcn_train", inputs.SZ, "tgcn", hidden=100, horizon=1,
        evaluate_only=False, batch=32, epochs=1, train_batches=3,
        test_windows=16),
    Workload(
        "los_tgcn_eval", inputs.LOS, "tgcn", hidden=64, horizon=3,
        evaluate_only=True),
    Workload(
        "los_tgcn_eval_2t", inputs.LOS, "tgcn", hidden=64, horizon=3,
        evaluate_only=True, threads="2", reference="los_tgcn_eval",
        min_children=5),
    Workload(
        "sz_gcn_train", inputs.SZ, "gcn", hidden=100, horizon=1,
        evaluate_only=False, batch=64, epochs=10),
)}

TOY_SHAPE = inputs.Shape(n_nodes=9, n_steps=240, steps_per_day=24,
                         neighbours=2, weighted=True, missing_frac=0.03)


def toy(workload):
    """The same workload at a size that runs in well under a second."""
    return replace(workload, shape=TOY_SHAPE, hidden=6, batch=8,
                   train_batches=workload.train_batches and 2,
                   test_windows=workload.test_windows and 6)


def load_reference(workload, seed):
    """Recorded loss sequence and test RMSE for this workload and seed, or
    None when the seed was never recorded."""
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)
    return table["workloads"].get(workload.reference or workload.name,
                                  {}).get(str(seed))


def _close(a, b, rtol):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


def write_inputs(workload, seed, workdir):
    """Write the seeded CSVs (and, for evaluation workloads, a checkpoint
    saved by the program) that every child of one run reads."""
    from tgcn import graph, models
    paths = input_paths(workdir)
    adjacency = inputs.write_inputs(workload.shape, seed, paths["adj"],
                                    paths["speed"])
    if workload.evaluate_only:
        model = models.SequenceModel(
            workload.kind, workload.shape.n_nodes, workload.hidden,
            SEQ_LEN, workload.horizon,
            propagation=graph.build_propagation(adjacency))
        model.init_parameters(seed)
        models.save_checkpoint(model, paths["ckpt"])


def input_paths(workdir):
    return {name: os.path.join(workdir, file) for name, file in (
        ("adj", "adj.csv"), ("speed", "speed.csv"), ("ckpt", "model.ckpt"))}


class Run:
    """State of one child process: the set-up result and the outcome of
    each operation."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.seed = seed
        self.paths = input_paths(workdir)
        self.ops = []
        # filled by the probes, one list per train call
        self.step_losses = []
        self.grad_norms = []

    # -- set-up (timed) -----------------------------------------------------

    def setup(self):
        """Parse, interpolate, normalize, window, build the graph and the
        model; returns the wall time."""
        from tgcn import data, graph, models
        w = self.w
        t0 = time.perf_counter()
        network = graph.load_adjacency(self.paths["adj"])
        dataset = data.load_features(self.paths["speed"],
                                     expect_nodes=network.n_nodes,
                                     transpose=True)
        if w.shape.missing_frac > 0:
            dataset = data.interpolate_missing(dataset, missing_marker=0.0)
        dataset = data.normalize(dataset)
        train, test = data.make_windows(dataset, SEQ_LEN, w.horizon)
        if w.evaluate_only:
            model = models.load_checkpoint(self.paths["ckpt"],
                                           network.propagation)
        else:
            model = models.SequenceModel(w.kind, network.n_nodes, w.hidden,
                                         SEQ_LEN, w.horizon,
                                         propagation=network.propagation)
            model.init_parameters(self.seed)
        elapsed = time.perf_counter() - t0
        if w.train_batches is not None:
            train = data.WindowSet(train.inputs[:w.train_batches * w.batch],
                                   train.targets[:w.train_batches * w.batch])
        if w.test_windows is not None:
            test = data.WindowSet(test.inputs[:w.test_windows],
                                  test.targets[:w.test_windows])
        self.network, self.dataset, self.model = network, dataset, model
        self.train_set, self.test_set = train, test
        return elapsed

    # -- operations ---------------------------------------------------------

    def op(self):
        """One timed operation; returns (windows processed, wall seconds)."""
        from tgcn import training
        from tgcn.errors import TgcnError
        w = self.w
        if w.evaluate_only:
            t0 = time.perf_counter()
            try:
                report = training.evaluate(self.model, self.test_set,
                                           self.dataset)
            except TgcnError as exc:
                self.ops.append({"op": "evaluate", "error": repr(exc)})
                return 0, time.perf_counter() - t0
            wall = time.perf_counter() - t0
            self.ops.append({"op": "evaluate", "wall_s": wall,
                             "rmse": report.rmse})
            return len(self.test_set), wall
        config = training.TrainConfig(
            lr=0.001, batch_size=w.batch, epochs=w.epochs,
            weight_decay=1.5e-3, seed=self.seed, eval_every=10, clip=5.0)
        self.model.init_parameters(self.seed)
        self.step_losses.append([])
        self.grad_norms.append([])
        t0 = time.perf_counter()
        try:
            result = training.train(self.model, self.train_set, self.test_set,
                                    self.dataset, config)
        except TgcnError as exc:
            self.ops.append({"op": "train", "error": repr(exc),
                             "losses": self.step_losses[-1]})
            return 0, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        self.ops.append({
            "op": "train", "wall_s": wall, "losses": self.step_losses[-1],
            "epoch_losses": [h["train_loss"] for h in result.history],
            "grad_norms": self.grad_norms[-1][0],
            "rmse": [h["rmse"] for h in result.history
                     if h["rmse"] is not None]})
        return len(self.train_set) * w.epochs, wall

    # -- checks -------------------------------------------------------------

    def check_forward(self):
        """Predictions on the first test windows against the numpy
        transcription of the model equations; returns a failure or None."""
        import numpy as np
        import reference_model
        windows = self.test_set.inputs[:CHECK_WINDOWS]
        got = self.model.predict(windows)
        params = {k: p.data for k, p in self.model.parameters().items()}
        want = reference_model.PREDICT[self.w.kind](
            params, self.network.propagation, windows)
        err = float(np.max(np.abs(got - want)))
        scale = float(np.max(np.abs(want)))
        if not err <= PREDICT_RTOL * max(scale, 1.0):
            return f"predictions differ from the numpy transcription by {err!r}"
        return None


def check(workload, ops, reference):
    """Count attempted operations (training steps and evaluate calls) over
    every child of a run and list the failed ones. Every train call starts
    from the same parameters and batches, so its loss sequence, first-step
    gradient norms and test RMSE must equal the recorded reference for this
    seed or, with none recorded, the first call's."""
    attempted, failures = 0, []
    expect = reference.get("losses") if reference else None
    expect_norms = reference.get("grad_norms") if reference else None
    for i, op in enumerate(ops):
        rmses = op.get("rmse", [])
        rmses = [rmses] if op["op"] == "evaluate" else rmses
        losses = op.get("losses", [])
        attempted += len(losses) + len(rmses)
        failures += [f"op {i} step {j}: loss {v!r}"
                     for j, v in enumerate(losses) if not math.isfinite(v)]
        if "error" in op:
            attempted += not losses
            if all(map(math.isfinite, losses)):
                failures.append(f"op {i}: {op['error']}")
            continue
        failures += [f"op {i}: {op['forward']}"] if op.get("forward") else []
        if reference:
            failures += [f"op {i}: rmse {v!r} != reference "
                         f"{reference['rmse']!r}" for v in rmses
                         if not _close(v, reference["rmse"], REFERENCE_RTOL)]
        if op["op"] == "evaluate":
            continue
        seq = losses if workload.train_batches else op["epoch_losses"]
        if expect is None:
            expect = seq
        if len(seq) != len(expect):
            failures.append(f"op {i}: {len(seq)} losses, expected "
                            f"{len(expect)}")
        failures += [f"op {i}: loss[{j}] {x!r} != expected {y!r}"
                     for j, (x, y) in enumerate(zip(seq, expect))
                     if not _close(x, y, REFERENCE_RTOL)]
        if expect_norms is None:
            expect_norms = op["grad_norms"]
        if len(op["grad_norms"]) != len(expect_norms) or not all(
                _close(x, y, REFERENCE_RTOL)
                for x, y in zip(op["grad_norms"], expect_norms)):
            failures.append(f"op {i}: first-step gradient norms "
                            f"{op['grad_norms']} != expected {expect_norms}")
    return attempted, failures


def install_probes(run):
    """Record each training step's loss as `train` computes it, and the
    first step's gradient norm per parameter before clipping. Adam's first
    updates hardly depend on gradient magnitudes, so the loss sequence alone
    would miss a backward pass that is slightly wrong."""
    import numpy as np
    from tgcn import training
    loss, clip = training.loss, training.clip_gradients

    def loss_probe(*args, **kwargs):
        out = loss(*args, **kwargs)
        run.step_losses[-1].append(float(out.data))
        return out

    def clip_probe(params, max_norm):
        if not run.grad_norms[-1]:
            run.grad_norms[-1].append([
                0.0 if p.grad is None else float(np.sqrt(np.sum(p.grad ** 2)))
                for p in params.values()])
        return clip(params, max_norm)
    training.loss, training.clip_gradients = loss_probe, clip_probe


def child(workload, seed, trace, workdir, report_path):
    """Set up SETUP_REPEATS times, run one operation, check the forward
    pass and write the report as JSON. A traced child (whose set-ups are
    traced too) runs three operations: an untraced one that warms the
    process up as the first operation of every child does, then a traced
    one and an untraced one, whose wall times give the tracing overhead."""
    import tracer as tracer_mod
    run = Run(workload, seed, workdir)
    install_probes(run)
    tracer = tracer_mod.Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_s = [run.setup() for _ in range(SETUP_REPEATS)]
    walls, rates = [], []
    for i in range(3 if tracer else 1):
        if tracer and i == 1:
            tracer.install()
            windows, wall = tracer.call(tracer_mod.ROOT, run.op)
        else:
            if tracer:
                tracer.uninstall()
            windows, wall = run.op()
        walls.append(wall)
        if windows:
            rates.append(windows / wall)
    if tracer:
        tracer.uninstall()
    run.ops[-1]["forward"] = run.check_forward()
    report = {"setup_s": setup_s, "op_wall_s": walls, "windows_per_s": rates,
              "ops": run.ops}
    if tracer:
        report["layers"] = tracer.summary(SETUP_REPEATS)
        report["layers"]["trace.untraced_wall_s"] = walls[2]
        report["spans"] = len(tracer.spans)
        tracer.write(report_path + ".spans.jsonl")
    with open(report_path, "w") as fh:
        json.dump(report, fh)
