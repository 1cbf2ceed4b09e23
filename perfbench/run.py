#!/usr/bin/env python3
"""Build the Kairos admission benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark in Release under .bench_build/perfbench (or under
$CARGO_TARGET_DIR/perfbench when that is set); later calls only re-check the
build. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The result is also kept in
perfbench/out/result_<workload>_<seed>_trace<t>.json and, with --trace 1,
the spans in perfbench/out/trace_<workload>.json (Chrome trace format).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("crisp_serial", "crisp_service", "mesh10k_service")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "kairos_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "kairos_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out",
               os.path.join(out_dir, "trace_%s.json" % args.workload)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s"
              % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stderr.write(run.stdout)
        return run.returncode or 2
    result_path = os.path.join(out_dir, "result_%s_%d_trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(result_path, "w") as result:
        result.write(lines[-1] + "\n")
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
