#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --selftest           # the benchmark's own tests

The measuring program (perfbench/src) is built in Release mode against the
crowdprice library compiled from this source tree, in $CARGO_TARGET_DIR
(default .bench_build) under the repository root. Build output goes to
stderr; stdout carries the program's report, whose last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build fails or any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["decide_direct", "decide_routed_churn", "solve_wave",
             "solve_interactive"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                              ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs]):
        return None
    return os.path.join(out, target)


def source_id():
    """The git commit when available, else a digest of the library sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def run_workload(binary, workload, args, capture):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def run_all(binary, args):
    """Every workload in turn; one combined JSON line with metric names
    prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, workload, args, capture=True)
        if code != 0 or result is None:
            status = 1
            combined["correct"] = False
            if result is None:
                continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return status


def selftest(args):
    """The unit self-tests, then a tiny run of every workload in both modes
    checked against the metric names BENCHMARK.json declares."""
    binary = build("perfbench_selftest")
    if binary is None or subprocess.run([binary]).returncode != 0:
        return 1
    binary = build("perfbench")
    if binary is None:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            tiny = argparse.Namespace(seed=args.seed, seconds=1, trace=trace)
            code, result = run_workload(binary, workload, tiny, capture=True)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = ({} if result is None else
                   {n: m["unit"] for n, m in result["metrics"].items()})
            ok = code == 0 and result is not None and result["correct"] \
                and got == want
            if not ok:
                failures += 1
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                print(f"selftest FAIL {workload} trace={trace}: exit {code} "
                      f"missing {missing} extra {extra}", file=sys.stderr)
            else:
                print(f"selftest ok   {workload} trace={trace}",
                      file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(binary, args)
    return run_workload(binary, args.workload, args, capture=False)[0]


if __name__ == "__main__":
    sys.exit(main())
