#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the benchmark
program from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls reuse the build. The
workload's parameters come from perfbench/workloads.json. The program
prints metric values by name; the last line of standard output is the
result object, with the names and units of BENCHMARK.json: with
--trace 0 it carries every end-to-end metric, with --trace 1 every
per-layer metric. The traced run also writes a Chrome trace to
<build dir>/traces/<workload>-seed<N>.json.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures and builds the program once; a lock serializes builds."""
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "perfbench")
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", out_dir, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True)
    return binary


def flags(params):
    out = []
    for key, value in params.items():
        out += ["--" + key, str(value)]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in workloads:
        sys.exit("unknown workload %r (have: %s)" %
                 (args.workload, ", ".join(sorted(workloads))))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    work_dir = os.path.join(out_dir, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work_dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace_out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    command += flags(workloads[args.workload]["params"])
    # A SIGTERM to this script must not orphan the program: exiting runs
    # the finally block, which stops and reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % args.workload)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.splitlines()
    if not lines:
        sys.exit("perfbench: no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    values = result["metrics"]
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    unknown = sorted(set(values) - known)
    if unknown:
        sys.exit("perfbench: %s not in BENCHMARK.json" % ", ".join(unknown))
    if not args.trace:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            sys.exit("perfbench: no value for %s" % ", ".join(missing))
    # A layer the workload does not pass through reports 0.
    result["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
