#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 45 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the probsyn
library from src/ plus the benchmark program) under
$CARGO_TARGET_DIR/perfbench/<key>, or .bench_build/perfbench/<key> when the
variable is unset, where <key> is a hash of the checkout's absolute path, so
checkouts that share one CARGO_TARGET_DIR never share a build; later runs
only bring the build up to date. The program's
report goes to stdout, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. Before forwarding that line, this
script checks that its metric names are exactly the ones BENCHMARK.json
lists for the mode (end_to_end for --trace 0, per_layer for --trace 1).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("construct", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build_dir_for(checkout):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = checkout / target
    key = hashlib.sha256(str(checkout).encode()).hexdigest()[:12]
    return target / "perfbench" / key


def build(checkout, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(checkout / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def expected_metrics(checkout, trace):
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    checkout = Path(__file__).resolve().parent.parent
    if not (checkout / "src" / "engine" / "synopsis_engine.h").is_file():
        return fail(f"no probsyn sources under {checkout / 'src'}")
    if not (checkout / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {checkout}")
    build_dir = build_dir_for(checkout)
    try:
        build(checkout, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")

    scratch = build_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(scratch)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return fail(f"benchmark exited with {run.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        return fail("benchmark's last line is not JSON")
    want = expected_metrics(checkout, args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    print("\n".join(lines[:-1]))
    if got != want:
        return fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
