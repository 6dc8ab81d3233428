#!/usr/bin/env python3
"""Prints the per-layer table of a traced benchmark run.

    python3 perfbench/summarize.py [--seed N] [--out .bench_out]

For each workload's span file (`spans-<workload>-seed<N>.jsonl`, written by
`--trace 1`) it prints one row per span name: calls, total ms, and self ms
(duration minus the time covered by child spans). It then prints each
workload's tracing overhead from the traced run's record.
"""

import argparse
import glob
import json
import os
import re
import sys


def table(path):
    spans = [json.loads(line) for line in open(path) if line.strip()]
    child = {}
    for s in spans:
        if s["parent"]:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    rows = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        r = rows.setdefault(s["name"], [0, 0, 0])
        r[0] += 1
        r[1] += dur
        r[2] += max(0, dur - child.get(s["id"], 0))
    requests = len({s["req"] for s in spans if s["req"]})
    return rows, len(spans), requests


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, help="seed of the traced run (default: newest)")
    ap.add_argument("--out", default=".bench_out", help="directory the benchmark wrote to")
    args = ap.parse_args()

    files = glob.glob(os.path.join(args.out, "spans-*-seed*.jsonl"))
    if args.seed is not None:
        files = [f for f in files if f.endswith(f"-seed{args.seed}.jsonl")]
    if not files:
        sys.exit(f"no span files in {args.out}; run the benchmark with --trace 1 first")
    if args.seed is None:
        newest = max(files, key=os.path.getmtime)
        args.seed = int(re.search(r"-seed(\d+)\.jsonl$", newest).group(1))
        files = [f for f in files if f.endswith(f"-seed{args.seed}.jsonl")]

    for path in sorted(files):
        workload = re.search(r"spans-(.+)-seed\d+\.jsonl$", path).group(1)
        rows, count, requests = table(path)
        print(f"\n{workload}: {count} spans, {requests} request ids ({path})")
        print(f"  {'span':<44} {'calls':>7} {'total ms':>12} {'self ms':>12}")
        for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<44} {calls:>7} {total / 1e6:>12.3f} {own / 1e6:>12.3f}")

    records = glob.glob(os.path.join(args.out, f"*-seed{args.seed}-trace1.json"))
    for path in records:
        metrics = json.load(open(path))["metrics"]
        print("\ntracing overhead (traced minus untraced pass time):")
        for name, m in sorted(metrics.items()):
            if name.startswith("trace.") and name.endswith(".overhead_pct"):
                print(f"  {name.split('.')[1]:<16} {m['value']:+.2f} %")


if __name__ == "__main__":
    main()
