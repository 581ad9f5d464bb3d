#!/usr/bin/env python3
"""Builds and runs the stps end-to-end benchmark (see README.md).

  python3 perfbench/run.py --workload <join_sweep|serve_rw|snapshot_restart>
                           --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Builds perfbench/ (which compiles the stps
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. The last line of standard
output is the result object {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics, derived from the spans of a traced run
and compared with an untraced run of the same seed (trace.overhead_*).
Exit status 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import derive  # noqa: E402

WORKLOADS = ("join_sweep", "serve_rw", "snapshot_restart")
DEADLINE_S = 175  # a run must end within 180 s; builds are exempt


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then rebuilds incrementally. Returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "stps_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(out, "stps_perfbench")
    if not os.path.exists(binary):
        fail("build produced no " + binary)
    return binary


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_binary(binary, args, started):
    """Runs one workload; returns (result dict, stdout lines before it)."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 5:
        fail("no time left for another run")
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % DEADLINE_S, 3)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing (exit %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("workload's last line is not a result: " + lines[-1])
    return result, lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny presets: every check, seconds of run time")
    opts = parser.parse_args()
    if opts.seconds <= 0 or opts.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")

    contract = load_contract()
    binary = build()
    started = time.monotonic()
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--work-dir", work]
    if opts.smoke:
        args.append("--smoke")

    result, lines = run_binary(binary, args + ["--trace", "0"], started)
    for line in lines:
        print(line)
    if opts.trace:
        untraced = result
        spans_path = os.path.join(work, opts.workload + ".spans.jsonl")
        traced, lines = run_binary(
            binary, args + ["--trace", "1", "--spans", spans_path], started)
        for line in lines:
            print("traced " + line)
        layer = derive.derive(derive.load_spans(spans_path))
        # Tracing overhead: how much worse each end-to-end metric reads in
        # the traced run, as a share of the untraced value.
        for m in contract["end_to_end"]:
            base = untraced["metrics"][m["name"]]["value"]
            worse = traced["metrics"][m["name"]]["value"] - base
            if m["better"] == "higher":
                worse = -worse
            layer["trace.overhead_" + m["name"]] = derive.ratio(worse, base)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        unknown = sorted(set(layer) - set(units))
        if unknown:
            fail("derived metrics missing from BENCHMARK.json: %s" % unknown)
        result = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "metrics": metrics,
        }
    else:
        declared = {m["name"] for m in contract["end_to_end"]}
        if set(result["metrics"]) != declared:
            fail("workload metrics %s != BENCHMARK.json end_to_end %s"
                 % (sorted(result["metrics"]), sorted(declared)))
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
