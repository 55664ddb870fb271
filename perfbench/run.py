#!/usr/bin/env python3
"""Whole-stack benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload scale_10k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library from ./src together
with the benchmark binary (perfbench/CMakeLists.txt) into .bench_build,
or into $CARGO_TARGET_DIR when that is set. Later calls only rebuild
what changed.

A run prints a human-readable summary, then, as its last stdout line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; this script checks names and units against
that file. Any failed correctness check makes the exit code nonzero.

--selftest runs every workload at toy size, traced and untraced, and
checks that each run passes its checks and prints every metric with its
unit.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Untraced runs of these workloads measure several processes for
# seconds/count each and report medians across them: with identical
# inputs, the per-round cost of one scale_10k process differs from the
# next by up to 40 % on the same host (address-space randomisation off
# too), far more than within a process. cnn_sim stays one process: its
# crash scenario and accuracy check need about ten rounds in one.
PROCESSES = {"scale_10k": 4, "tcp_mlp": 3}
# Wall-clock budget of one measurement, all its processes together.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the binary; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src" % ROOT)
        sys.exit(2)
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(res, spec, trace):
    """Problems with one result, as a list of strings."""
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(res))
        return problems
    if res["correct"] is not True:
        problems.append("a correctness check failed")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = spec["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if set(v) != {"value", "unit"} or v["unit"] != m["unit"]:
            problems.append("%s: expected unit %s, got %s" % (
                m["name"], m["unit"], v))
        elif not trace and not v["value"] > 0:
            problems.append("%s: end-to-end metric is not positive" % m["name"])
    return problems


def run_process(binary, workload, seed, seconds, trace, toy, timeout):
    """Runs the binary once; returns (exit code, summary lines, result)."""
    bdir = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", os.path.join(bdir, "traces"),
           "--scratch-dir", os.path.join(bdir, "scratch")]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, [], None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: binary exited with %d and no result" % proc.returncode)
        return proc.returncode or 1, lines, None
    return proc.returncode, lines[:-1], result


def merge(results):
    """One result from the results of several processes."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "peak_rss_mb":
            value = max(values)
        elif name == "round_commit_ratio":
            value = (attempted - failed) / attempted
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] is True for r in results),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def measure(binary, spec, workload, seed, seconds, trace, toy=False):
    """Runs one measurement; returns (exit code, lines to print)."""
    processes = 1 if trace or toy else PROCESSES.get(workload, 1)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    rc, out, results = 0, [], []
    for i in range(processes):
        prc, lines, result = run_process(
            binary, workload, seed, seconds / processes, trace, toy,
            max(1.0, deadline - time.monotonic()))
        if processes > 1:
            out.append("--- process %d of %d" % (i + 1, processes))
        out.extend(lines)
        if result is None:
            return prc or 1, out
        rc = rc or prc
        results.append(result)
    result = merge(results) if processes > 1 else results[0]
    problems = check_result(result, spec, trace)
    for p in problems:
        log("perfbench: %s: %s" % (workload, p))
    if problems:
        result["correct"] = False
        rc = rc or 1
    out.append(json.dumps(result))
    return rc, out


def selftest(binary, spec):
    failures = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            rc, lines = measure(binary, spec, w["name"], 7, 3, trace,
                                toy=True)
            ok = rc == 0
            failures += 0 if ok else 1
            print("selftest %-10s trace=%d  %s" % (w["name"], trace,
                                                   "ok" if ok else "FAILED"))
            if lines and lines[-1].startswith("{"):
                for name, v in json.loads(lines[-1])["metrics"].items():
                    print("    %-32s %-14.6g %s" % (name, v["value"],
                                                   v["unit"]))
    print("selftest: %s" % ("all passed" if failures == 0 else
                            "%d run(s) failed" % failures))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    binary = build()
    spec = load_spec()
    if args.selftest:
        return selftest(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: --workload must be one of %s" % ", ".join(names))
        return 2
    rc, lines = measure(binary, spec, args.workload, args.seed,
                        args.seconds, args.trace == 1)
    for line in lines:
        print(line)
    return rc


if __name__ == "__main__":
    sys.exit(main())
