#!/usr/bin/env python3
"""Sweep the committed parameter grid: for every prime and triple, compare
the predicted pattern against the extraction engine to depth n_2 + p^2 + 2
and certify both series residuals to the deepest order the quotients
support (the convergent floor).  Exits nonzero on any failure."""
from __future__ import annotations

import sys
import time

from hypercf import PrimeField, build_spec, verify_pattern
from hypercf.grids import VERIFICATION_TRIPLES, verification_steps


def main() -> int:
    failures = 0
    total_start = time.perf_counter()
    for p, triples in VERIFICATION_TRIPLES.items():
        field = PrimeField(p)
        steps = verification_steps(p)
        for u in triples:
            start = time.perf_counter()
            report = verify_pattern(build_spec(field, u), steps)
            elapsed = time.perf_counter() - start
            status = "ok" if report.ok else "FAILED"
            tail = report.tail_relation_residual
            eq = report.equation_residual
            print(
                f"p={p:>2} u={u} steps={steps:>3}: {status:>6} "
                f"(tail residual to {tail.floor}, equation residual to "
                f"{eq.floor}, {elapsed:.2f}s)"
            )
            if not report.ok:
                failures += 1
    print(f"# sweep finished in {time.perf_counter() - total_start:.1f}s, "
          f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
