#!/usr/bin/env python3
"""Compare two sets of e2ebench runs, e.g. a parent commit and a change.

    python3 e2ebench/compare.py BASE CHANGE [--bench BENCHMARK.json]

BASE and CHANGE are directories of untraced result records
(<workload>.seed<N>.trace0.json, as run.py leaves them in
.bench_build/results/). For every (workload, end-to-end metric) it prints
each side's median and quartiles, the pair win rate of CHANGE over BASE
(pairs matched by seed; ties count for neither side), and a verdict:

  improved     CHANGE wins at least 9 of 10 pairs and the medians differ
               by more than BASE's own quartile spread
  no-worse     CHANGE's median is within the metric's bound of BASE's
  unresolved   BASE's quartile spread is wider than the bound, so "no
               worse" cannot be shown (unless every CHANGE run beats
               every BASE run)
  regressed    CHANGE's median is worse than BASE's by more than the bound

Exit status: 1 if any pair regressed or any record is incorrect.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ENV_KEYS = ["hardware_concurrency", "simd_level", "build_type", "archive_fs",
            "shards", "daemon_workers", "daemon_refresh_ms", "open_loop_qps"]


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace0.json"))):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, bound, lower_is_better):
    # goodness: larger is better whichever way the metric points
    good = (lambda x: -x) if lower_is_better else (lambda x: x)
    q1, med_a, q3 = quartiles(base)
    _, med_b, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if good(b) > good(a))
    win_rate = wins / len(pairs) if pairs else 0.0
    worse = (good(med_a) - good(med_b)) / med_a if med_a else 0.0
    spread = (q3 - q1) / med_a if med_a else 0.0
    all_better = min(map(good, change)) > max(map(good, base))
    all_worse = max(map(good, change)) < min(map(good, base))
    if win_rate >= 0.9 and abs(med_b - med_a) > (q3 - q1) and worse < 0:
        return "improved", win_rate
    if worse > bound and (spread <= bound or all_worse):
        return "regressed", win_rate
    if (spread > bound and not all_better) or worse > bound:
        return "unresolved", win_rate
    return "no-worse", win_rate


def env_of(records):
    return {k: sorted({str(r["env"].get(k)) for r in records}) for k in ENV_KEYS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base), load(args.change)
    status = 0

    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, {}), change.get(workload, {})
        if not a_runs or not b_runs:
            print(f"{workload}: runs on one side only; skipped")
            continue
        records = list(a_runs.values()) + list(b_runs.values())
        bad = [r for r in records if not r["correct"]]
        if bad:
            status = 1
            print(f"{workload}: {len(bad)} incorrect run(s)")
        env_a, env_b = env_of(a_runs.values()), env_of(b_runs.values())
        if env_a != env_b or any(len(v) > 1 for v in env_a.values()):
            print(f"{workload}: environment stamps differ: {env_a} vs {env_b}")
        seeds = sorted(set(a_runs) & set(b_runs))
        if seeds:
            a_list = [a_runs[s] for s in seeds]
            b_list = [b_runs[s] for s in seeds]
        else:
            a_list = [a_runs[s] for s in sorted(a_runs)]
            b_list = [b_runs[s] for s in sorted(b_runs)]
        print(f"\n{workload}: {len(a_list)} base run(s), {len(b_list)} change "
              f"run(s){' matched by seed' if seeds else ''}")
        print(f"  {'metric':16s} {'unit':10s} {'base q1/med/q3':>34s} "
              f"{'change q1/med/q3':>34s} {'win':>5s}  verdict (bound)")
        for m in metrics:
            name = m["name"]
            a = [r["end_to_end"][name]["value"] for r in a_list
                 if name in r["end_to_end"]]
            b = [r["end_to_end"][name]["value"] for r in b_list
                 if name in r["end_to_end"]]
            if not a or not b:
                continue
            v, win = verdict(a, b, m["bound"], m["better"] == "lower")
            if v == "regressed":
                status = 1
            qa, qb = quartiles(a), quartiles(b)
            fmt = lambda q: "%10.4g %10.4g %10.4g" % q
            print(f"  {name:16s} {m['unit']:10s} {fmt(qa):>34s} {fmt(qb):>34s} "
                  f"{win:5.2f}  {v} ({m['bound']:.0%})")
    sys.exit(status)


if __name__ == "__main__":
    main()
