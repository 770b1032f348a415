"""The benchmark's own calls into the library: every workload of
BENCHMARK.json runs at toy size and must pass all of its checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_toy_run(tmp_path, workload):
    # the benchmark reads the library from ./src and writes its records
    # under the working directory, so run it from a directory of its own
    os.symlink(ROOT / "src", tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", "0", "--toy"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result


def test_grouped_steps_keep_the_probe_contract(monkeypatch, tmp_path):
    # the benchmark's probes wrap training.loss and training.clip_gradients
    # and record one loss per call, so a step must call each once, however
    # many window groups it runs. The toy sz_tgcn_train operation runs as
    # one group a step, then in 3 groups a step, and the benchmark's own
    # check compares the second's losses and first-step gradient norms with
    # the first's
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from tgcn import autodiff, training

    for name in ("loss", "clip_gradients"):  # restored after the test
        monkeypatch.setattr(training, name, getattr(training, name))
    workload = workloads.toy(workloads.WORKLOADS["sz_tgcn_train"])
    workloads.write_inputs(workload, 3, str(tmp_path))
    run = workloads.Run(workload, 3, str(tmp_path))
    workloads.install_probes(run)
    clip, clips = training.clip_gradients, []

    def counted_clip(params, max_norm):
        clips.append(None)
        return clip(params, max_norm)

    monkeypatch.setattr(training, "clip_gradients", counted_clip)
    run.setup()
    forward, forwards = run.model.forward, []

    def counted_forward(windows):
        forwards.append(autodiff.is_grad_enabled())
        return forward(windows)

    run.model.forward = counted_forward
    steps = workload.train_batches * workload.epochs
    for group in (None, 3):  # batches of 8 windows: 8, then 3, 3 and 2
        if group is not None:
            monkeypatch.setattr(training, "TAPE_BYTES",
                                group * run.model.tape_bytes())
        forwards.clear()
        clips.clear()
        windows, _ = run.op()
        assert windows == steps * workload.batch
        assert sum(forwards) == steps * (1 if group is None else 3)
        assert len(clips) == len(run.step_losses[-1]) == steps
    run.ops[-1]["forward"] = run.check_forward()
    attempted, failures = workloads.check(workload, run.ops, None)
    assert failures == [] and attempted == 2 * (steps + 1)
