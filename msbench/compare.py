#!/usr/bin/env python3
"""Compare benchmark runs of a parent and a change (see README.md).

  python3 msbench/compare.py --parent P [P ...] --change C [C ...]
  python3 msbench/compare.py --summary DIR [DIR ...] [--json FILE]

Each directory holds result files written by run.py (one JSON per run). All
runs found under the --parent directories form one side, all under --change
the other; runs of the two sides are paired by workload and seed.

For each workload x end-to-end metric the comparison prints both sides'
median and quartiles and a verdict, using the bound BENCHMARK.json gives the
metric (the share of the parent's median by which it may get worse):

  better      the change wins at least 9 in 10 of the pairs (ties count for
              neither) and its median moved by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  a side's spread (interquartile range / median) exceeds the
              bound, unless every change run beats every parent run
  same        otherwise

Per-layer runs (--trace 1) are compared too: counts that repeat exactly
for a given seed must match exactly, and the other per-layer medians are
listed side by side for attribution.

--summary prints each metric's median, quartiles and spread for one set of
runs; --json also writes them (the form of the files in baselines/).
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Per-layer counts that repeat exactly for a given seed: one client, a fixed
# prefix of the request sequence, deterministic executors. Compared exactly.
EXACT = {
    "explore_cold": [
        "storage.masks_loaded_per_query",
        "storage.bytes_read_per_query",
        "storage.disk_requests_per_query",
        "index.fml",
        "index.pruned_frac",
        "index.verify_precision",
    ],
}


def load_runs(dirs, stamps=None):
    """{(workload, trace): {seed: {metric: value}}} from run.py results.

    `stamps`, when given, collects each run's git sha and window length."""
    runs = {}
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "**", "*.json"),
                                     recursive=True)):
            with open(path) as f:
                rec = json.load(f)
            if "result" not in rec:
                continue
            key = (rec["workload"], rec["trace"])
            metrics = {k: v["value"]
                       for k, v in rec["result"]["metrics"].items()}
            runs.setdefault(key, {})[rec["seed"]] = metrics
            if stamps is not None:
                stamps.setdefault("git_sha", set()).add(rec["git_sha"])
                stamps.setdefault("seconds", set()).add(rec["seconds"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better, bound):
    """Verdict for one metric; parent/change map seed -> value."""
    p_vals, c_vals = list(parent.values()), list(change.values())
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    gain = sign * (c_med - p_med)
    pairs = [s for s in parent if s in change]
    wins = sum(1 for s in pairs if sign * (change[s] - parent[s]) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p_q3 - p_q1):
        return "better"
    if -gain > bound * abs(p_med):
        return "worse"
    if spread(p_vals) > bound or spread(c_vals) > bound:
        if min(sign * v for v in c_vals) > max(sign * v for v in p_vals):
            return "better"
        return "unresolved"
    return "same"


def fmt(v):
    return "%.4g" % v


def summary(runs, spec, stamps):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    out = {k: sorted(v) for k, v in stamps.items()}
    for (workload, trace), by_seed in sorted(runs.items()):
        metrics = sorted({m for vals in by_seed.values() for m in vals})
        print("\n%s (%s, %d runs)" % (workload, "per-layer" if trace
                                       else "end-to-end", len(by_seed)))
        for m in metrics:
            vals = [v[m] for v in by_seed.values() if m in v]
            q1, med, q3 = quartiles(vals)
            print("  %-40s median %-10s q1 %-10s q3 %-10s spread %5.1f%% %s"
                  % (m, fmt(med), fmt(q1), fmt(q3), 100 * spread(vals),
                     units.get(m, "")))
            out.setdefault("workloads", {}).setdefault(
                workload, {}).setdefault(
                "per_layer" if trace else "end_to_end", {})[m] = {
                    "median": med, "q1": q1, "q3": q3, "runs": len(vals),
                    "unit": units.get(m, "")}
    return out


def compare(parent, change, spec):
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bad = False
    print("%-16s %-20s %-26s %-26s %s" % ("workload", "metric",
                                          "parent med [q1, q3]",
                                          "change med [q1, q3]", "verdict"))
    for workload in sorted({w for w, t in parent if t == 0}):
        p_runs = parent.get((workload, 0), {})
        c_runs = change.get((workload, 0), {})
        for m, (better, bound) in bounds.items():
            p = {s: v[m] for s, v in p_runs.items() if m in v}
            c = {s: v[m] for s, v in c_runs.items() if m in v}
            if not p or not c:
                print("%-16s %-20s missing runs" % (workload, m))
                bad = True
                continue
            pq = quartiles(list(p.values()))
            cq = quartiles(list(c.values()))
            v = verdict(p, c, better, bound)
            bad = bad or v in ("worse", "unresolved")
            print("%-16s %-20s %-26s %-26s %s" % (
                workload, m,
                "%s [%s, %s]" % (fmt(pq[1]), fmt(pq[0]), fmt(pq[2])),
                "%s [%s, %s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])), v))
    for workload in sorted({w for w, t in parent if t == 1}):
        p_runs = parent.get((workload, 1), {})
        c_runs = change.get((workload, 1), {})
        print("\n%s per-layer (parent median -> change median)" % workload)
        for m in sorted({m for v in p_runs.values() for m in v}):
            p = [v[m] for v in p_runs.values() if m in v]
            c = [v[m] for v in c_runs.values() if m in v]
            line = "  %-40s %s -> %s" % (
                m, fmt(statistics.median(p)),
                fmt(statistics.median(c)) if c else "-")
            if m in EXACT.get(workload, []):
                seeds = [s for s in p_runs if s in c_runs]
                same = all(p_runs[s][m] == c_runs[s][m] for s in seeds)
                line += "  exact: %s over %d seeds" % (
                    "match" if same else "CHANGED", len(seeds))
            print(line)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--parent", nargs="+", default=[])
    p.add_argument("--change", nargs="+", default=[])
    p.add_argument("--summary", nargs="+", default=[])
    p.add_argument("--json", help="with --summary: write the summary here")
    args = p.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.summary:
        stamps = {}
        out = summary(load_runs(args.summary, stamps), spec, stamps)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(out, f, indent=1, sort_keys=True)
        return 0
    if not args.parent or not args.change:
        p.error("give --parent and --change directories, or --summary")
    return compare(load_runs(args.parent), load_runs(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
