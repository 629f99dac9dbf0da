#!/usr/bin/env python3
"""Build and run the MaskSearch benchmark (see README.md beside this file).

One workload, one process; the last line of standard output is the JSON
result, and a copy is written under --out:

  python3 msbench/run.py --workload explore_cold --seed 1 --seconds 20 --trace 0

Every workload in both modes, for several seeds:

  python3 msbench/run.py --runs 5 --out results/change

Smoke test (tiny scale, every answer checked, a few seconds):

  python3 msbench/run.py --smoke

The program is built in Release into .bench_build/ at the repository root
the first time (or whenever sources change), and datasets are generated
once into .bench_build/data/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "msbench")
DATA = os.path.join(BUILD, "data")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# A workload's first run also generates its dataset.
RUN_TIMEOUT_S = 850


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the msbench target; exits on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "msbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except OSError as e:
            log("cannot run %s: %s" % (cmd[0], e))
            sys.exit(1)
        if rc != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for the mode, or None without it."""
    if not os.path.exists(SPEC_PATH):
        return None
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, out_dir):
    """Runs one workload process, echoes its output and saves the result.

    Returns the exit code. The JSON line is echoed last, and only when it is
    well formed and carries exactly the metrics BENCHMARK.json lists."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", DATA]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log("%s printed no result (exit %d)" % (workload, proc.returncode))
        return proc.returncode or 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    wanted = expected_metrics(trace)
    if wanted is not None and set(result["metrics"]) != wanted:
        log("metrics differ from BENCHMARK.json: %s"
            % sorted(set(result["metrics"]) ^ wanted))
        return 1
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": trace, "git_sha": git_sha(), "result": result}
        path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                            % (workload, seed, trace))
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(lines[-1], flush=True)
    return proc.returncode


def main():
    spec = {}
    if os.path.exists(SPEC_PATH):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    workloads = [w["name"] for w in spec.get("workloads", [])]

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="run only this workload")
    p.add_argument("--seed", type=int, default=1, help="(first) seed")
    p.add_argument("--seconds", type=float,
                   default=spec.get("run_seconds", 20),
                   help="timed window per run")
    p.add_argument("--trace", type=int, choices=[0, 1],
                   help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default with --workload: 0, else both)")
    p.add_argument("--runs", type=int, default=1,
                   help="seeds per workload and mode: seed .. seed+runs-1")
    p.add_argument("--out", default=os.path.join(BUILD, "results"),
                   help="directory for one result JSON per run")
    p.add_argument("--smoke", action="store_true",
                   help="tiny scale, all workloads, every answer checked")
    args = p.parse_args()

    build()
    if args.smoke:
        return subprocess.run([BINARY, "--smoke", "--data-dir",
                               os.path.join(BUILD, "smoke-data")],
                              cwd=ROOT).returncode
    if args.workload is not None:
        if workloads and args.workload not in workloads:
            log("unknown workload %s (have %s)" % (args.workload, workloads))
            return 2
        targets = [args.workload]
    else:
        targets = workloads
    modes = [args.trace] if args.trace is not None else (
        [0] if args.workload is not None else [0, 1])
    worst = 0
    for workload in targets:
        for trace in modes:
            for seed in range(args.seed, args.seed + args.runs):
                rc = run_one(workload, seed, args.seconds, trace, args.out)
                worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
