"""Toy-size self-test of the benchmark harness, so it cannot rot unnoticed.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the repository root. Every workload named in BENCHMARK.json runs at
toy size, untraced and traced. The test fails if a workload or metric name
disappears, if a run is not correct, or if a traced layer that the workload
exercises reports no calls (a wrapper the program's code no longer reaches).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# per-layer metrics that must be nonzero, by which workloads exercise them
EXERCISED = {
    "all": ("autodiff.matmul.calls", "autodiff.graph_propagate.calls",
            "autodiff.add.calls", "autodiff.relu.calls",
            "graph.load_adjacency_s", "data.load_features_s",
            "data.normalize_s", "data.make_windows_s",
            "models.forward_self_s", "models.predict_self_s",
            "training.evaluate_s", "training.predict_windows_s",
            "training.predict_chunk_max_s", "metrics.compute_metrics_s",
            "data.denormalize_s", "models.max_activation_mb",
            "trace.traced_wall_s", "trace.untraced_wall_s"),
    "tgcn": ("autodiff.sigmoid.calls", "autodiff.tanh.calls",
             "autodiff.hadamard.calls", "autodiff.concat_cols.calls",
             "autodiff.scale.calls", "models.tgcn_cell_step_self_s"),
    "gcn": ("models.gcn_encoder_self_s",),
    "train": ("autodiff.square.calls", "autodiff.tensor_sum.calls",
              "autodiff.tensor_mean.calls", "autodiff.matmul.bwd_s",
              "autodiff.backward_s", "autodiff.tape_nodes",
              "autodiff.tape_mb", "autodiff.matmul.gflop",
              "training.loss_s", "training.adam_step_s",
              "training.step_p50_s", "training.train_self_s"),
    "eval": ("models.load_checkpoint_s", "data.interpolate_missing_s"),
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for name, w in workloads.WORKLOADS.items():
        result = run(name, 0)
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == e2e, (name, set(result["metrics"]))
        for metric, v in result["metrics"].items():
            assert math.isfinite(v["value"]) and v["value"] > 0, (name, metric)

        result = run(name, 1)
        assert result["correct"], (name, result)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == layers, (name, set(metrics) ^ layers)
        groups = ["all", w.kind, "eval" if w.evaluate_only else "train"]
        for metric in (m for g in groups for m in EXERCISED[g]):
            assert metrics[metric] > 0, (name, metric)
        if w.evaluate_only:
            assert metrics["autodiff.tape_nodes"] == 0, name
        assert math.isclose(metrics["trace.self_sum_s"],
                            metrics["trace.traced_wall_s"], rel_tol=1e-6)


if __name__ == "__main__":
    test_harness()
    print("perfbench self-test passed")
