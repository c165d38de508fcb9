#!/usr/bin/env python3
"""Serve-path benchmark entry point.

Builds the benchmark package in perfbench/ (and the ntco library it links,
compiled from src/) with CMake in Release mode into .bench_build/perfbench,
then runs one workload:

    python3 perfbench/run.py --workload diurnal_day --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build log is
.bench_build/perfbench/build.log; a traced run (--trace 1) writes its spans
to .bench_build/spans/<workload>.spans.csv. The last line of stdout is the
benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds serve_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ntco sources under src/; run from a full checkout",
              file=sys.stderr)
        return None
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "serve_bench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                break
        else:
            return os.path.join(BUILD, "serve_bench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    print(f"perfbench: build failed, see {log_path}", file=sys.stderr)
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--out-dir", SPANS]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
