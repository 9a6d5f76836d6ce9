#!/usr/bin/env python3
"""Summarise benchmark results over runs with different seeds.

    python3 bench/summarize.py bench/out/*-trace*.json [--json FILE]

For each workload and end-to-end metric: the median, the quartiles from
`statistics.quantiles(values, n=4)`, and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json.  --json also
writes the table, the environment record of the runs and the per-layer
metrics of any traced results to FILE.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results: list, end_to_end: list) -> dict:
    by_workload: dict = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    table = {}
    for name, runs in by_workload.items():
        rows = {}
        for m in end_to_end:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else float("inf"),
                "bound": m["bound"], "values": values,
            }
        table[name] = {"seeds": [r["env"]["seed"] for r in runs],
                       "correct": all(r["correct"] for r in runs), "metrics": rows}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [json.loads(p.read_text()) for p in args.results]
    table = summarize([r for r in results if not r["trace"]], spec["end_to_end"])
    for name, entry in table.items():
        print(f"{name}: {len(entry['seeds'])} runs, correct={entry['correct']}")
        for metric, row in entry["metrics"].items():
            flag = "ok" if row["spread"] <= row["bound"] / 3 else "WIDE"
            print(f"  {metric:<12} median {row['median']:>12.6g} {row['unit']:<5} "
                  f"q1 {row['q1']:>12.6g} q3 {row['q3']:>12.6g} "
                  f"spread {row['spread']:7.2%} bound {row['bound']:.0%}  {flag}")
    if args.json:
        envs = {json.dumps({k: v for k, v in r["env"].items() if k != "seed"}, sort_keys=True)
                for r in results}
        traced = {r["workload"]: {"seed": r["env"]["seed"],
                                  **{k: m["value"] for k, m in r["metrics"].items()}}
                  for r in results if r["trace"]}
        args.json.write_text(json.dumps(
            {"env": [json.loads(e) for e in sorted(envs)], "end_to_end": table,
             "per_layer": traced}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
