"""T-GCN benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload sz_tgcn_train --seed 1 --seconds 20 --trace 0

The seed makes the synthetic inputs; the program only sees the CSV files and
checkpoint written from it. Each operation (a `training.train` or a
`training.evaluate` call) runs in a fresh child process with one BLAS thread,
after nine timed set-ups; children run one after another until `--seconds`
have passed, and every metric is the median over them. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. A traced run is one child that runs the operation
untraced, traced and untraced again, which measures the tracing overhead.
Full records (environment, checks, every child's report) and span files go
to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUDGET_S = 170.0  # a run must end within 180 s
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

os.environ.update(PINNED)  # before anything imports numpy
sys.path.insert(0, HERE)


def source_dir():
    """`src/` of the checkout the benchmark runs in, or None without one."""
    src = os.path.join(os.getcwd(), "src")
    if os.path.isfile(os.path.join(src, "tgcn", "__init__.py")):
        return src
    return None


def child_env(workload):
    env = dict(os.environ, **PINNED, PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([source_dir(), HERE])
    env.pop("TGCN_THREADS", None)
    if workload.threads is not None:
        env["TGCN_THREADS"] = workload.threads
    return env


def spawn(workload, args, workdir, index, deadline):
    """Run one child process; returns (report or None, its peak RSS in MiB,
    failure reason or None)."""
    report_path = os.path.join(workdir, f"report{index}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--workdir", workdir,
           "--report", report_path] + (["--toy"] if args.toy else [])
    proc = subprocess.Popen(cmd, env=child_env(workload))
    pid, reason = 0, None
    try:
        while True:
            # wait4, unlike Popen.wait, returns the child's own rusage
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                reason = "timed out"
                break
            time.sleep(0.02)
    finally:
        if not pid:  # timed out or interrupted: never leave the child running
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0
    if reason is None and proc.returncode != 0:
        reason = (f"killed by signal {-proc.returncode} (out of memory?)"
                  if proc.returncode < 0 else f"exit code {proc.returncode}")
    if reason is not None:
        return None, peak_mb, reason
    with open(report_path) as fh:
        report = json.load(fh)
    spans = report_path + ".spans.jsonl"
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return report, peak_mb, None


def run_children(workload, args, workdir, deadline):
    """Fresh child processes, one operation each, until `--seconds` have
    passed and the workload's `min_children` have run. A traced run is a
    single child. Every child's
    peak RSS is its own, since each operation starts from a fresh process.
    Returns (reports, peak RSS per child, failure reason or None)."""
    start = time.monotonic()
    reports, peaks = [], []
    while True:
        report, peak_mb, reason = spawn(workload, args, workdir, len(reports),
                                        deadline)
        peaks.append(peak_mb)
        if reason is not None:
            return reports, peaks, reason
        reports.append(report)
        if args.trace or (time.monotonic() - start >= args.seconds
                          and len(reports) >= workload.min_children):
            return reports, peaks, None


def environment(workload):
    import numpy as np
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": np.__version__,
           "blas_env": PINNED,
           "TGCN_THREADS": workload.threads or "unset (default 1)"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{index}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{index}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{index}/size") as fh:
                caches[f"L{level} {kind}"] = fh.read().strip()
        except OSError:
            continue
    env["caches"] = caches
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                key, value = line.split(":", 1)
                if key in ("MemTotal", "MemAvailable"):
                    env[key] = value.strip()
    except OSError:
        pass
    env["git_sha"] = _git_sha()
    env["source_sha256"] = _source_digest()
    return env


def _source_digest():
    """Digest of the program's sources, which names the code under test
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    root = os.path.join(source_dir(), "tgcn")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_sha():
    if not os.path.exists(".git"):  # not a clone: don't report an outer repo
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def end_to_end(reports, peaks):
    """Medians over the children, except the peak RSS: that is the lowest
    child's high-water mark, the memory one operation needs. On
    `los_tgcn_eval_2t` the `no_grad` race makes some evaluate calls record a
    tape, which adds 60 to 700 MiB to a child's peak at random; a median
    over a few children then jumps with it. The per-child peaks stay in the
    record. A run whose every operation failed has no throughput and
    reports 0."""
    def med(key):
        values = [v for r in reports for v in r[key]]
        return statistics.median(values) if values else 0.0
    return {
        "windows_per_s": {"value": med("windows_per_s"), "unit": "1/s"},
        "peak_rss_mb": {"value": min(peaks), "unit": "MiB"},
        "setup_s": {"value": med("setup_s"), "unit": "s"},
    }


def per_layer(report):
    units = {"calls": "count", "tape_nodes": "count", "out_mb": "MiB",
             "tape_mb": "MiB", "max_activation_mb": "MiB", "gflop": "GFLOP",
             "gflops": "GFLOP/s", "nodes_recorded_in_eval": "count"}
    layers = report["layers"]
    metrics = {name: {"value": value,
                      "unit": units.get(name.rsplit(".", 1)[-1], "s")}
               for name, value in layers.items()}
    metrics["tracing_overhead_frac"] = {
        "value": layers["trace.traced_wall_s"]
        / layers["trace.untraced_wall_s"] - 1.0,
        "unit": "frac"}
    return metrics


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny shapes, for the harness self-test")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--report", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    deadline = time.monotonic() + BUDGET_S
    args = parse(argv)
    if source_dir() is None:
        print("perfbench: run from a checkout that has src/tgcn",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.toy:
        workload = workloads.toy(workload)
    if args.child:
        workloads.child(workload, args.seed, bool(args.trace), args.workdir,
                        args.report)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
              "environment": environment(workload),
              "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        sys.path.insert(0, source_dir())
        workloads.write_inputs(workload, args.seed, workdir)
        reports, peaks, reason = run_children(workload, args, workdir,
                                              deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["reports"] = reports
    record["peak_rss_mb"] = peaks
    ops = [op for r in reports for op in r["ops"]]
    reference = None if args.toy else workloads.load_reference(workload,
                                                               args.seed)
    attempted, failures = workloads.check(workload, ops, reference)
    record["reference"] = "recorded" if reference else "absent"
    if reason is not None:
        # an out-of-memory kill or a timeout is a failed run, never a dropped one
        attempted += 1
        failures.append(f"child {len(reports)}: {reason}")
    failed = min(len(failures), attempted)
    record["failures"] = failures
    record["failed_frac"] = failed / attempted
    if reason is not None:
        metrics = {"peak_rss_mb": {"value": max(peaks), "unit": "MiB"}}
    elif args.trace:
        metrics = per_layer(reports[0])
    else:
        metrics = end_to_end(reports, peaks)
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted,
                              "unit": "frac"}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": record["environment"], "record": path}))
    print(json.dumps(result))
    return 0 if reason is None else 1


if __name__ == "__main__":
    sys.exit(main())
