#!/usr/bin/env python3
"""Records the benchmark's per-layer table: one traced run per workload.

    python3 perfbench/record.py [--seed N] [--out perfbench/results/seed.json]

Runs perfbench/run.py --trace 1 for every workload of workloads.json
(the gated ones of BENCHMARK.json and any kept out of the gate) and
writes, per workload, the per-layer metrics together with the program's
description of the run (graph pages against buffer or pool pages,
thread count, triangle counts) and the host it ran on. Run from the root
of a checkout.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out",
                        default=os.path.join(HERE, "results", "seed.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    record = {
        "host": {"cpus": os.cpu_count(), "cpu": cpu_model()},
        "seed": args.seed,
        "seconds": bench["run_seconds"],
        "workloads": {},
    }
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = list(json.load(f)["workloads"])
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit("%s failed:\n%s" % (workload, proc.stderr))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record["workloads"][workload] = {
            "run": [line[len("perfbench: "):]
                    for line in proc.stderr.splitlines()
                    if line.startswith("perfbench: ")
                    and "run walls" not in line],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "per_layer": {name: round(m["value"], 6)
                          for name, m in result["metrics"].items()},
        }
        print(workload, "done", file=sys.stderr)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
