"""Record the reference loss sequences and test RMSEs that the benchmark's
correctness checks compare against, one entry per workload and seed.

    python3 perfbench/record_reference.py 0-24

Run it from the repository root at a commit whose numbers are trusted; it
runs each recorded workload once per seed (about a minute per seed) and
rewrites perfbench/reference.json. Seeds without an entry are still checked
for finite losses, repeatable train calls and predictions that match the
numpy transcription of the model.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

RECORDED = ("sz_tgcn_train", "los_tgcn_eval", "sz_gcn_train")


def seeds_from(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(name, seed):
    subprocess.run([sys.executable, os.path.join(workloads.HERE, "run.py"),
                    "--workload", name, "--seed", str(seed), "--seconds", "0",
                    "--trace", "0"], check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(".perfbench_out",
                        f"result-{name}-seed{seed}-trace0.json")
    with open(path) as fh:
        op = json.load(fh)["reports"][0]["ops"][0]
    if op["op"] == "evaluate":
        return {"rmse": op["rmse"]}
    w = workloads.WORKLOADS[name]
    return {"losses": op["losses"] if w.train_batches else op["epoch_losses"],
            "grad_norms": op["grad_norms"], "rmse": op["rmse"][-1]}


def main(argv):
    with open(workloads.REFERENCE_PATH) as fh:
        table = json.load(fh)
    for seed in seeds_from(argv[0]):
        for name in RECORDED:
            table["workloads"].setdefault(name, {})[str(seed)] = record(name,
                                                                        seed)
            print(name, seed, table["workloads"][name][str(seed)], flush=True)
        with open(workloads.REFERENCE_PATH, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
