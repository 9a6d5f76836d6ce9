"""One repetition of one workload in a fresh interpreter.

Times the set-up (importing hypercf and building the inputs) and the
body, and the reference computation just before and just after the body
(`reference.py`); reads the process's peak resident memory, runs the
known-answer checks outside the timed region, and prints one JSON object.  With
--trace 1 the body runs under the span tracer and the object also holds
the per-layer values; --spans writes the spans to a file at the end.

    python3 bench/worker.py --workload engine_deep --seed 1 --trace 0
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from run import WORKLOAD_NAMES


def layer_values(spans: list, seconds: dict) -> dict:
    """Every per-layer value a traced body yields, by metric name."""
    from tracer import SPAN_NAMES, aggregate
    from workloads import GRID_PARTS

    stats = aggregate(spans)
    empty = {"calls": 0, "self_s": 0.0, "coeff_ops": 0, "infos": []}
    values = {}
    for name in SPAN_NAMES:
        s = stats.get(name, empty)
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.self_s"] = s["self_s"]
        values[f"{name}.coeff_ops"] = s["coeff_ops"]
    mul = stats.get("algebra.mul", empty)
    values["algebra.mul.ops_per_s"] = mul["coeff_ops"] / mul["self_s"] if mul["self_s"] > 0 else 0.0
    runs = stats.get("expansion.expand", empty)["infos"]
    values["expansion.quotients"] = sum(q for q, _, _ in runs)
    values["expansion.max_coeff_degree"] = max((h for _, h, _ in runs), default=0)
    values["expansion.height_headroom"] = max((h / b for _, h, b in runs), default=0.0)
    values["series.max_window"] = max(
        (w for name, s in stats.items() if name.startswith("series.") for w in s["infos"]),
        default=0)
    for part in GRID_PARTS:
        values[f"cli.verify_grid.{part}"] = seconds.get(part, 0.0)
    root = spans[0]
    values["trace.wall_s"] = root[2] - root[1]
    values["trace.unattributed_s"] = stats[root[0]]["self_s"]
    values["trace.spans"] = len(spans)
    return values


def run_body(workload, inputs, tracer):
    if tracer is None:
        return workload.body(inputs)
    with tracer.installed(), tracer.span("bench.body"):
        return workload.body(inputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - start
    from reference import reference_s  # after set-up: it imports numpy too

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
    ref_before = reference_s()
    start = time.perf_counter()
    try:
        out = run_body(workload, inputs, tracer)
    except Exception:  # noqa: BLE001  (a raising body fails every check)
        traceback.print_exc()
        out = None
    wall_s = time.perf_counter() - start
    ref_s = (ref_before + reference_s()) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = workload.check(inputs, out)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "wall_rel": wall_s / ref_s,
        "peak_rss_mb": peak_rss_mb,
        "cert_depth": checks.cert_depth,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "inputs": {"u": inputs.get("u")},
    }
    if tracer is not None:
        seconds = out.get("seconds", {}) if isinstance(out, dict) else {}
        result["layers"] = layer_values(tracer.spans, seconds)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
