#!/usr/bin/env python3
"""Build perf_bench from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 perf_bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--out-dir <dir>]

The perf_bench binary is configured and built as a Release build under
$CARGO_TARGET_DIR/perf_bench (default .bench_build/perf_bench); build
output goes to stderr. Its standard output is passed through, and its
last line - the JSON result - is printed only after its metric names
were checked against BENCHMARK.json. Result files go to --out-dir (default
<build dir>/results). See README.md.
"""

import json
import os
import subprocess
import sys

# A clean build takes well under a minute on 4 cores, and a run measures
# for --seconds (20 in BENCHMARK.json); far beyond either is a hang.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perf_bench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def main(argv):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"verifier sources not found under {root}/src", code=2)
    manifest = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(manifest):
        fail(f"{manifest} not found", code=2)

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perf_bench")
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", bench_dir, "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build, "-j", jobs,
                  "--target", "perf_bench"]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")

    args = list(argv)
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(build, "results")]
    try:
        run = subprocess.run([os.path.join(build, "perf_bench")] + args,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perf_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if len(lines) > 1:
        print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        fail(f"perf_bench exited with code {run.returncode}",
             code=run.returncode)

    result = json.loads(lines[-1])
    with open(manifest) as f:
        declared = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    section = "per_layer" if traced else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        units = sorted(n for n in want.keys() & got.keys()
                       if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json {section}: "
             f"missing {sorted(want.keys() - got.keys())}, "
             f"undeclared {sorted(got.keys() - want.keys())}, "
             f"unit mismatch {units}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
