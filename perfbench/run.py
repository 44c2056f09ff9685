#!/usr/bin/env python3
"""Build and run the Sonata end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload sonata-fleet --seed 1 --seconds 10 --trace 0
      one run; the last stdout line is the JSON result
  python3 perfbench/run.py --workload dist-shm --steady 10 [--seed 1]
      steadiness mode: k runs of one seed, then each metric's median,
      quartiles and spread, flagged where the spread exceeds the bound in
      BENCHMARK.json; the window digests of the k runs must be equal
  python3 perfbench/run.py --selftest
      build and run the benchmark's own tests

The benchmark compiles the repository's libraries from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(target):
    """Configure (once) and build `target`; returns the build directory."""
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return bdir


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def bench_cmd(binary, workload, seed, seconds, trace):
    scratch = os.path.join(build_root(), "perfbench-run")
    os.makedirs(scratch, exist_ok=True)
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scratch-dir", scratch, "--git-rev", git_rev()]


def run_once(cmd, echo):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    return proc.returncode, lines


def load_bounds(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m.get("bound") for m in metrics}


def steady(binary, args):
    bounds = load_bounds(args.trace)
    values, digests, failures = {}, [], 0
    cmd = bench_cmd(binary, args.workload, args.seed, args.seconds, args.trace)
    for i in range(args.steady):
        code, lines = run_once(cmd, echo=False)
        if code != 0 or not lines:
            sys.exit("perfbench: run %d failed with exit code %d" % (i, code))
        result = json.loads(lines[-1])
        ctx = next((json.loads(l[8:]) for l in lines if l.startswith("context ")), {})
        digests.append(ctx.get("pass_digest"))
        if not result["correct"] or result["failed"]:
            failures += 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("run %d seed %d correct=%s windows=%d digest=%s" %
            (i, args.seed, result["correct"], result["attempted"], digests[-1]))
    print("%-40s %14s %14s %14s %8s %8s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    flagged = []
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and iqr > bound:
            mark = "  SPREAD > BOUND"
            flagged.append(name)
        elif bound is not None and iqr > bound / 3:
            mark = "  spread > bound/3"
        print("%-40s %14.6g %14.6g %14.6g %8.4f %8.4f %6s%s" %
              (name, med, q1, q3, iqr, rng, "-" if bound is None else bound, mark))
    if len(set(digests)) != 1:
        print("digests differ across runs of seed %d: %s" % (args.seed, sorted(set(digests))))
        flagged.append("digest")
    print("runs %d, incorrect %d, flagged %s" % (args.steady, failures, flagged or "none"))
    return 1 if flagged or failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        bdir = build("perfbench_test")
        return subprocess.run([os.path.join(bdir, "perfbench_test")], cwd=ROOT).returncode
    if not args.workload:
        p.error("--workload is required")
    binary = os.path.join(build("sonata_perfbench"), "sonata_perfbench")
    if args.steady > 0:
        return steady(binary, args)
    code, _ = run_once(bench_cmd(binary, args.workload, args.seed, args.seconds, args.trace),
                       echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
