#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload flow_1t --seed 1 --seconds 30 --trace 0

Builds perfbench/ (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the checkout), runs one measurement of the
workload, checks the result line against BENCHMARK.json and prints it as the
last line of stdout. Build output and diagnostics go to stderr. Exits
non-zero, without a result line, when the build, the run or a check fails.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow_1t", "flow_4t", "serve_sweep")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    return ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build():
    out = build_dir()
    if not (out / "build.ninja").exists() and not (out / "Makefile").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, or units differ" % (missing, extra))
    if not result["attempted"] >= 1:
        raise ValueError("nothing attempted")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        exe = build()
    except (subprocess.SubprocessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    out = build_dir()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = out / "work" / ("%s-%d" % (tag, os.getpid()))
    (out / "traces").mkdir(parents=True, exist_ok=True)
    # The benchmark fixes its own thread counts, SIMD auto-selection, log
    # level and tracing; the placer's environment knobs must not change them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XPLACE_")}
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        cmd += ["--trace-out", str(out / "traces" / (tag + ".json"))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: run failed with exit code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        print("perfbench: bad result line: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
