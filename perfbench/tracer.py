"""Outside-in tracer: wraps the public functions and methods of the program's
layers at run time and records one span per call.

Nothing in the program is edited. `install` replaces each named function on
its defining module and on every `tgcn` module that imported it by name
(`tgcn.training.compute_metrics` is the same function as
`tgcn.metrics.compute_metrics`), so no call path skips a span. Each autodiff
primitive's returned `out._backward` closure is wrapped as well, which times
the backward pass per primitive. Parent links are kept per thread with
`threading.local`, so spans made on the evaluation thread pool nest under
their own thread's spans. Spans stay in memory until `write`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import statistics
import sys
import threading
import time

PRIMITIVES = ("matmul", "graph_propagate", "add", "hadamard", "scale",
              "sigmoid", "tanh", "relu", "concat_cols", "square",
              "tensor_sum", "tensor_mean")

# (module, attribute, span name); attribute "A.b" is method b of class A
FUNCTIONS = (
    ("graph", "load_adjacency", "graph.load_adjacency"),
    ("data", "load_features", "data.load_features"),
    ("data", "interpolate_missing", "data.interpolate_missing"),
    ("data", "normalize", "data.normalize"),
    ("data", "make_windows", "data.make_windows"),
    ("data", "denormalize", "data.denormalize"),
    ("models", "load_checkpoint", "models.load_checkpoint"),
    ("models", "SequenceModel.forward", "models.forward"),
    ("models", "SequenceModel.predict", "models.predict"),
    ("models", "TgcnCell.step", "models.tgcn_cell_step"),
    ("models", "GcnEncoder.forward", "models.gcn_encoder"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("metrics", "compute_metrics", "metrics.compute_metrics"),
    ("training", "loss", "training.loss"),
    ("training", "clip_gradients", "training.clip_gradients"),
    ("training", "Adam.step", "training.adam_step"),
    ("training", "Adam.zero_grad", "training.zero_grad"),
    ("training", "train", "training.train"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "predict_windows", "training.predict_windows"),
)

SETUP_LAYERS = ("graph.load_adjacency", "data.load_features",
                "data.interpolate_missing", "data.normalize",
                "data.make_windows", "models.load_checkpoint")

ROOT = "bench.op"
MB = float(1 << 20)


def _shape(x):
    data = getattr(x, "data", x)
    return getattr(data, "shape", ())


class Tracer:
    """Span recorder for one traced run. A span is the tuple
    (id, parent id, name, thread id, start, end, output bytes, recorded on
    the tape, flop); parent id 0 means the span opened on an empty stack."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(),
                               t0, t1, 0, False, 0))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_primitive(self, prim, fn):
        name = "autodiff." + prim
        bwd_name = name + ".bwd"
        is_matmul = prim == "matmul"

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            flop = bwd_flop = 0
            if is_matmul:
                (m, k), (_, n) = _shape(args[0]), _shape(args[1])
                flop = 2 * m * k * n
                bwd_flop = flop * sum(bool(getattr(a, "requires_grad", False))
                                      for a in args[:2])
            recorded = out._backward is not None
            if recorded:
                out._backward = self._wrap_backward(bwd_name, out._backward,
                                                    bwd_flop)
            self.spans.append((sid, parent, name, threading.get_ident(),
                               t0, t1, out.data.nbytes, recorded, flop))
            return out
        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, name, closure, flop):
        def timed(g):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            t0 = time.perf_counter()
            closure(g)
            t1 = time.perf_counter()
            self.spans.append((sid, parent, name, threading.get_ident(),
                               t0, t1, 0, False, flop))
        return timed

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every layer boundary in FUNCTIONS and every primitive."""
        from tgcn import autodiff, data, graph, metrics, models, training  # noqa: F401
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "tgcn" or name.startswith("tgcn.")}
        targets = [(m, a, n) for m, a, n in FUNCTIONS]
        targets += [("autodiff", p, None) for p in PRIMITIVES]
        for modname, attr, span in targets:
            module = mods["tgcn." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr)
            new = (self._wrap(span, orig) if span is not None
                   else self._wrap_primitive(attr, orig))
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, new)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def write(self, path):
        keys = ("id", "parent", "name", "thread", "start", "end",
                "out_bytes", "recorded", "flop")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self, n_setups):
        """Per-layer metrics from the spans. Setup layers are per set-up
        (mean over n_setups); every other time is the total over the timed
        operations. Self time is a span's duration minus its children's."""
        spans = self.spans
        child = {}
        for s in spans:
            if s[1]:
                child[s[1]] = child.get(s[1], 0.0) + (s[5] - s[4])
        total, self_t, calls, out_b = {}, {}, {}, {}
        for s in spans:
            dur = s[5] - s[4]
            name = s[2]
            total[name] = total.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - child.get(s[0], 0.0)
            calls[name] = calls.get(name, 0) + 1
            out_b[name] = out_b.get(name, 0) + s[6]

        def tot(name):
            return total.get(name, 0.0)

        m = {}
        for layer in SETUP_LAYERS:
            m[layer + "_s"] = tot(layer) / max(n_setups, 1)
        for p in PRIMITIVES:
            name = "autodiff." + p
            m[name + ".fwd_s"] = self_t.get(name, 0.0)
            m[name + ".calls"] = calls.get(name, 0)
            m[name + ".bwd_s"] = tot(name + ".bwd")
            m[name + ".out_mb"] = out_b.get(name, 0) / MB
        m["autodiff.backward_s"] = tot("autodiff.backward")
        m["autodiff.backward_self_s"] = self_t.get("autodiff.backward", 0.0)

        prims = sorted((s for s in spans if s[2] in _PRIM_NAMES),
                       key=lambda s: s[4])
        starts = [s[4] for s in prims]

        def within(t0, t1):
            return prims[bisect.bisect_left(starts, t0):
                         bisect.bisect_right(starts, t1)]

        steps = _intervals(spans, "training.zero_grad", "training.adam_step")
        nodes, tape = [0], [0]
        for t0, t1 in steps:
            rec = [s for s in within(t0, t1) if s[7]]
            nodes.append(len(rec))
            tape.append(sum(s[6] for s in rec))
        m["autodiff.tape_nodes"] = max(nodes)
        m["autodiff.tape_mb"] = max(tape) / MB
        mm_flop = sum(s[8] for s in spans
                      if s[2] in ("autodiff.matmul", "autodiff.matmul.bwd"))
        mm_time = tot("autodiff.matmul") + tot("autodiff.matmul.bwd")
        m["autodiff.matmul.gflop"] = mm_flop / 1e9
        m["autodiff.matmul.gflops"] = mm_flop / 1e9 / mm_time if mm_time else 0.0
        evals = [(s[4], s[5]) for s in spans if s[2] == "training.evaluate"]
        m["autodiff.nodes_recorded_in_eval"] = sum(
            1 for t0, t1 in evals for s in within(t0, t1) if s[7])

        m["models.forward_self_s"] = self_t.get("models.forward", 0.0)
        m["models.predict_self_s"] = self_t.get("models.predict", 0.0)
        m["models.tgcn_cell_step_self_s"] = self_t.get("models.tgcn_cell_step", 0.0)
        m["models.gcn_encoder_self_s"] = self_t.get("models.gcn_encoder", 0.0)
        m["models.max_activation_mb"] = max((s[6] for s in prims), default=0) / MB

        m["training.loss_s"] = tot("training.loss")
        m["training.clip_gradients_s"] = tot("training.clip_gradients")
        m["training.adam_step_s"] = tot("training.adam_step")
        m["training.zero_grad_s"] = tot("training.zero_grad")
        m["training.train_self_s"] = self_t.get("training.train", 0.0)
        step_s = sorted(t1 - t0 for t0, t1 in steps)
        m["training.step_p50_s"] = _quantile(step_s, 0.5)
        m["training.step_p90_s"] = _quantile(step_s, 0.9)

        m["training.evaluate_s"] = tot("training.evaluate")
        m["training.predict_windows_s"] = tot("training.predict_windows")
        pw = [(s[4], s[5]) for s in spans if s[2] == "training.predict_windows"]
        chunks = [s[5] - s[4] for s in spans if s[2] == "models.predict"
                  and any(t0 <= s[4] <= t1 for t0, t1 in pw)]
        m["training.predict_chunk_max_s"] = max(chunks, default=0.0)
        m["training.predict_chunk_mean_s"] = (statistics.fmean(chunks)
                                              if chunks else 0.0)
        m["metrics.compute_metrics_s"] = tot("metrics.compute_metrics")
        m["data.denormalize_s"] = tot("data.denormalize")

        # on the main thread the self times of everything under the
        # per-operation root spans add up to the roots' wall time
        roots = {s[0] for s in spans if s[2] == ROOT}
        under, parent_of = set(roots), {s[0]: s[1] for s in spans}
        main = [s for s in spans if s[3] == self._main]
        for s in sorted(main, key=lambda s: s[0]):
            if parent_of[s[0]] in under:
                under.add(s[0])
        m["trace.traced_wall_s"] = tot(ROOT)
        m["trace.self_sum_s"] = sum(
            s[5] - s[4] - child.get(s[0], 0.0) for s in main if s[0] in under)
        return m


_PRIM_NAMES = frozenset("autodiff." + p for p in PRIMITIVES)


def _intervals(spans, open_name, close_name):
    """Pairs (start of an `open_name` span, end of the next `close_name`
    span) on one thread: the training steps, from zero_grad to Adam."""
    marks = sorted((s[4], s[5], s[2]) for s in spans
                   if s[2] in (open_name, close_name))
    out, start = [], None
    for t0, t1, name in marks:
        if name == open_name:
            start = t0
        elif start is not None:
            out.append((start, t1))
            start = None
    return out


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]
