#!/usr/bin/env python3
"""Runs one relbench workload; see relbench/README.md.

    python3 relbench/run.py --workload build|serve-read|serve-write \
        --seed N --seconds S --trace 0|1
    python3 relbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark (relbench/CMakeLists.txt, which builds the repository's own CMake
project at its default build type) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs rebuild only what changed. Run files go to
.relbench_run/<workload>/. The last line on stdout is the driver's JSON
result; the exit code is the driver's (0 only when every answer matched its
oracle and no operation failed).

--self-test runs every workload briefly with one answer deliberately
corrupted and exits 0 only if each run reports the mismatch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("build", "serve-read", "serve-write")
DRIVER_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "relbench-build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", bench_dir, "-B", build_dir])
        steps.append(["cmake", "--build", build_dir, "-j3", "--target",
                      "relbench_driver", "relspecd", "trace_check"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("relbench: build step failed: %s\n" % " ".join(step))
                return False
    return True


def run_driver(build_dir, workload, seed, seconds, trace, extra=()):
    run_dir = os.path.join(".relbench_run", workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "relbench_driver"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", run_dir,
           "--relspecd", os.path.join(build_dir, "relspec", "tools", "relspecd"),
           "--trace-check", os.path.join(build_dir, "relspec", "tools", "trace_check")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("relbench: driver timed out\n")
        return 1, ""
    return proc.returncode, out.decode()


def self_test(build_dir):
    caught = True
    for workload in WORKLOADS:
        code, out = run_driver(build_dir, workload, 1, 1, 0, ["--inject-wrong-answer"])
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = code != 0 and result.get("correct") is False
        print("self-test %-12s %s" % (workload, "mismatch caught" if ok else "NOT CAUGHT"))
        caught = caught and ok
    return 0 if caught else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(bench_dir, build_dir):
        return 1
    if args.self_test:
        return self_test(build_dir)
    code, out = run_driver(build_dir, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
