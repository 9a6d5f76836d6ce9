#!/usr/bin/env python3
"""The hypercf benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload engine_deep --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16

Run from the root of a checkout; hypercf is imported from its `src`.
Every repetition runs in a fresh interpreter (`bench/worker.py`), which
sets up, runs the timed body once and checks its outputs.  New
repetitions start until --seconds have passed (at least three run), so
a run lasts at most --seconds plus one repetition.

--trace 0 reports the `end_to_end` metrics of BENCHMARK.json: medians
over the repetitions of set-up time, of `wall_rel` and of peak resident
memory, and the shallowest certified depth.  `wall_rel` is the body's
wall time in units of a fixed reference computation timed around it in
the same process (`reference.py`): the host's speed drifts too much for
raw wall times of different runs to be compared within a bound, and
cancels in the ratio.  The raw medians are printed as well.  --trace 1
alternates untraced and traced repetitions and reports the `per_layer`
metrics: medians over the traced ones, plus the RUN_LEVEL ones from the
untraced ones: their raw body and reference times, and
trace.overhead_s, the traced median body time minus the untraced one.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; each result is
also written, with its environment record, under bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("engine_deep", "certify_deep", "verify_grid")
MIN_REPS = 3
# per-layer metrics the runner derives from untraced repetitions
RUN_LEVEL = ("trace.overhead_s", "bench.wall_s", "bench.ref_s")
DEADLINE_S = 170  # a single-workload run must end within 180 s


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    also in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypercf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def run_rep(name: str, seed: int, rep: int, traced: bool, spans: Path | None,
            timeout: float) -> dict | None:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--run-id", f"{name}-seed{seed}-rep{rep}"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"bench: {name} repetition {rep} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: {name} repetition {rep} exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """All repetitions of one workload and the metrics they give."""
    plain, traced, crashed = [], [], 0
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        is_traced = trace and rep % 2 == 1
        spans = OUT / f"spans-{name}.json" if is_traced and not traced else None
        rec = run_rep(name, seed, rep, is_traced, spans,
                      DEADLINE_S - (time.perf_counter() - start))
        rep += 1
        if rec is None:
            crashed += 1
            break
        (traced if is_traced else plain).append(rec)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps) + crashed
    failed = sum(r["failed"] for r in reps) + crashed
    values = {}
    if trace and plain and traced:
        for m in spec["per_layer"]:
            if m["name"] not in RUN_LEVEL:
                values[m["name"]] = statistics.median(r["layers"][m["name"]] for r in traced)
        values["bench.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        values["bench.ref_s"] = statistics.median(r["ref_s"] for r in plain)
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - values["bench.wall_s"])
    elif not trace and plain:
        for key in ("setup_s", "wall_rel", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in plain)
        values["cert_depth"] = min(r["cert_depth"] for r in plain)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {
        "workload": name,
        "trace": int(trace),
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reps": {"untraced": len(plain), "traced": len(traced), "crashed": crashed},
        "inputs": reps[0]["inputs"] if reps else None,
        "raw": reps,
    }


def report(result: dict, why: str) -> None:
    print(f"== {result['workload']}  inputs {result['inputs']}  "
          f"repetitions {result['reps']}")
    print(f"   why: {why}")
    for name, m in result["metrics"].items():
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")
    plain = [r for r in result["raw"] if "layers" not in r]
    if plain and not result["trace"]:
        for key in ("wall_s", "ref_s"):
            value = statistics.median(r[key] for r in plain)
            print(f"   {key + ' (raw, untraced)':<40} {value:>16.6g} s")
    ratio = result["failed"] / result["attempted"]
    print(f"   {'fail_ratio':<40} {ratio:>16.6g} ({result['failed']}/{result['attempted']} checks)")
    if result["trace"] and result["metrics"]:
        value = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"   the listed layers' self_s cover the traced body but "
              f"{value['trace.unattributed_s']:.3g} s; tracing overhead "
              f"{value['trace.overhead_s']:.3g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypercf" / "__init__.py").is_file():
        print(f"bench: no hypercf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    print(f"env {json.dumps(env)}")
    OUT.mkdir(exist_ok=True)

    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        report(result, whys[name])
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, **result}, indent=1))
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
