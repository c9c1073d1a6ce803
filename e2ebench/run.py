#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. The first call configures and builds the
orionscan libraries plus the e2ebench binary into .bench_build/e2ebench
(CMake, RelWithDebInfo); later calls only rebuild what changed. The
binary's last stdout line is the result JSON; full records land in
.bench_build/results/. `--workload all` runs every workload in turn and
prints each end-to-end metric by name and unit.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
WORKLOADS = ["ingest-14d", "serve-zipf"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no orionscan sources at {os.path.join(ROOT, 'src')}; "
             "run from the root of a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)}")


def run_one(workload, seed, seconds, trace, capture):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(ROOT, ".bench_build", "results"),
           "--work-dir", os.path.join(ROOT, ".bench_build", "work")]
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, (out.decode() if capture else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or 'all'" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    build()

    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                          capture=False)
        sys.exit(code)

    worst = 0
    for workload in WORKLOADS:
        started = time.monotonic()
        code, out = run_one(workload, args.seed, args.seconds, args.trace,
                            capture=True)
        worst = max(worst, code)
        lines = [l for l in out.splitlines() if l.strip()]
        result = json.loads(lines[-1]) if lines else {}
        print(f"== {workload} (seed {args.seed}, {time.monotonic() - started:.1f} s"
              f" wall): correct={result.get('correct')} "
              f"failed={result.get('failed')}/{result.get('attempted')}")
        for name, metric in result.get("metrics", {}).items():
            print(f"   {name:32s} {metric['value']:>18.6g} {metric['unit']}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
