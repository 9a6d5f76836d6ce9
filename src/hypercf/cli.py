"""Command-line surface: expansion, pattern generation, verification,
identity checks, and the degree measure, with text or JSON output.

Each command builds its JSON records and its text lines from the same
values and hands both to `_emit`, the one writer to stdout and the one
reader of `--format`.

Exit codes: 0 success / verified, 1 verification mismatch, 2 usage or
parameter error.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Iterable, Optional, Sequence, Tuple

from .algebra import Poly, PrimeField
from .cf import PartialQuotients
from .construction import (
    Triple,
    build_spec,
    check_identities,
    closed_forms,
    irrationality_report,
    mills_robbins_equation,
    mills_robbins_u2,
    nu,
    pattern,
    pattern_degree,
    pattern_equation,
    profile,
    verify_pattern,
)
from .expansion import BiPoly, NoAdmissibleQuotientError, expand
from .grids import VERIFICATION_TRIPLES

__all__ = ["main", "render_json", "parse_equation_file"]


def _validate_args(args) -> None:
    """Check the parsed arguments against the module preconditions before
    any work starts, and normalise `--u`/`--u1` to residues in place."""
    field = PrimeField(args.p)
    steps = getattr(args, "steps", None)
    if steps is not None and steps < 1:
        raise ValueError("steps must be >= 1")
    if getattr(args, "jobs", 1) < 1:
        raise ValueError("jobs must be >= 1")
    # requests that would check nothing and still report success
    if getattr(args, "k", 1) < 1:
        raise ValueError("k must be >= 1")
    if getattr(args, "fib_count", 1) < 1:
        raise ValueError("fib-count must be >= 1")
    u = getattr(args, "u", None)
    if isinstance(u, list):  # verify accumulates triples
        args.u = [Triple.from_ints(field, triple).as_ints() for triple in u]
    elif u is not None:
        args.u = Triple.from_ints(field, u).as_ints()
    u1 = getattr(args, "u1", None)
    if u1 is not None:
        mills_robbins_u2(field, u1)
        args.u1 = u1 % field.p
    if args.command == "expand":
        sources = (args.u, args.u1, args.equation_file)
        if sum(source is not None for source in sources) != 1:
            raise ValueError("expand takes exactly one of --u, --u1 or --equation-file")
    if args.command == "verify" and steps < 5:
        raise ValueError(
            "verify steps must be >= 5: fewer quotients leave no residual to certify"
        )


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _emit(args, records: Iterable[dict], lines: Iterable[str]) -> None:
    """The one writer: each record as a JSON line, or the text lines,
    which are read only on a text run."""
    for line in map(render_json, records) if args.format == "json" else lines:
        print(line)


def _emit_quotients(args, u: Sequence[int], pqs: PartialQuotients) -> None:
    """The quotients as one JSON record, or as the three reference lines:
    quotients, degrees, leading coefficients."""
    record = {
        "p": args.p,
        "u": list(u),
        "partial_quotients": [{"coeffs": a.coeffs.tolist()} for a in pqs],
        "degrees": pqs.degrees(),
        "leading_coefficients": pqs.leading_coefficients(),
    }
    heads = (("cfe", pqs), ("degrees", record["degrees"]),
             ("lead.coef.", record["leading_coefficients"]))
    _emit(args, [record], (f"{head} {value}" for head, value in heads))


def parse_equation_file(field: PrimeField, path: str) -> BiPoly:
    """One line per x-power: `i: c0 c1 c2 ...` with ascending T-coefficients
    as residues; blank lines and `#` comments are ignored."""
    coeffs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                head, rest = line.split(":", 1)
                power = int(head)
                values = [int(tok) for tok in rest.split()]
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: malformed line (expected `i: c0 c1 ...`, all integers)"
                ) from None
            if power < 0:
                raise ValueError(f"{path}:{lineno}: negative x-power")
            if power in coeffs:
                raise ValueError(f"{path}:{lineno}: duplicate x-power {power}")
            coeffs[power] = Poly(field, values)
    if not coeffs:
        raise ValueError(f"{path}: no coefficients")
    return BiPoly(field, coeffs)


def _parse_triple(text: str) -> Tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("u must be three comma-separated residues")
    try:
        return tuple(int(x) for x in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError("u components must be integers")


# -- subcommand handlers -----------------------------------------------------

def _cmd_expand(args) -> int:
    field = PrimeField(args.p)
    if args.equation_file is not None:
        equation = parse_equation_file(field, args.equation_file)
        u: Sequence[int] = []
    elif args.u1 is not None:
        equation = mills_robbins_equation(field, args.u1)
        u = [args.u1]
    else:
        equation = pattern_equation(build_spec(field, args.u))
        u = list(args.u)
    result = expand(equation, args.steps)
    if result.rational:
        print(
            f"rational root reached after {len(result.quotients)} quotients",
            file=sys.stderr,
        )
    _emit_quotients(args, u, result.quotients)
    return 0


def _cmd_pattern(args) -> int:
    spec = build_spec(PrimeField(args.p), args.u)
    _emit_quotients(args, args.u, pattern(spec, args.steps))
    return 0


def _verify_line(row: dict) -> str:
    """A verify record as its text line."""
    if row["verified"]:
        verdict = f"verified, residuals zero to order {row['residual_order']}"
    elif not row["match"]:
        verdict = f"MISMATCH (first mismatch at index {row['first_mismatch']})"
    else:
        verdict = "RESIDUAL NONZERO"
    return f"p={row['p']} u={tuple(row['u'])} steps={row['steps']}: {verdict}"


def _verify_one(job: Tuple[int, Tuple[int, int, int], int, str]) -> dict:
    p, u, steps, r_convention = job
    field = PrimeField(p)
    spec = build_spec(field, u)
    r_override = field.T ** p if r_convention == "tp" else None
    report = verify_pattern(spec, steps, r_override=r_override)
    residuals = [
        r.floor
        for r in (report.tail_relation_residual, report.equation_residual)
        if r is not None and r.zero_to_floor
    ]
    return {
        "p": p,
        "u": list(u),
        "steps": steps,
        "verified": report.ok,
        "match": report.match,
        "first_mismatch": report.first_mismatch,
        "engine_aborted": report.engine_aborted,
        "residual_order": max(residuals) if residuals else 0,
    }


def _cmd_verify(args) -> int:
    if args.grid and args.p not in VERIFICATION_TRIPLES:
        raise ValueError(f"no committed grid for p={args.p}")
    triples = [*VERIFICATION_TRIPLES[args.p], *args.u] if args.grid else args.u
    if not triples:
        raise ValueError("verify needs --u or --grid")
    jobs = [(args.p, u, args.steps, args.r_convention) for u in triples]
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it and its logging import cost every other run
        # several milliseconds of start-up
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, jobs))
    else:
        results = [_verify_one(job) for job in jobs]
    _emit(args, results, map(_verify_line, results))
    return 0 if all(r["verified"] for r in results) else 1


def _cmd_identities(args) -> int:
    report = check_identities(PrimeField(args.p), fib_cf_limit=args.fib_count)
    labels = {
        "f_pm1_equals_F": "f_(p-1) = (t^2+4)^((p-1)/2)",
        "f_p_plus_f_pm2_equals_Tp": "f_p + f_(p-2) = t^p",
        "R_equals_2_f_pm2": "remainder of t^p by F = 2*f_(p-2)",
        "fibonacci_cf_all_T":
            f"cf(f_n/f_(n-1)) = [t]*n for n <= {report.fibonacci_cf_checked_through}",
    }
    record = {"p": args.p, "verified": report.all_ok}
    record.update((key, getattr(report, key)) for key in labels)
    lines = (f"{label}: {'ok' if record[key] else 'FAILED'}" for key, label in labels.items())
    _emit(args, [record], itertools.chain([f"p={args.p}"], lines))
    return 0 if report.all_ok else 1


def _cmd_measure(args) -> int:
    measure = nu(args.p)
    payload = {
        "p": args.p,
        "nu": {"num": measure.numerator, "den": measure.denominator},
    }
    prof = None
    if args.steps is not None:
        # the engine's stream, checked against the closed forms: entries
        # are units times T or P_n, so no triple changes the degrees
        spec = build_spec(PrimeField(args.p), (1, 1, 1))
        prof = profile(expand(pattern_equation(spec), args.steps).quotients, args.p)
        payload["big_positions"] = [list(entry) for entry in prof.big_positions]
        payload["verified"] = prof.consistent

    def lines():
        yield f"p={args.p}"
        for k in range(1, args.k + 1):
            n_k, s_k = closed_forms(args.p, k)
            yield f"k={k}: position n_k={n_k}, degree {pattern_degree(args.p, k)}, partial sum s_k={s_k}"
        upper = irrationality_report(args.p, kmax=args.k).liouville_upper
        yield f"nu = {measure} (bounds: 2 < nu <= degree <= {upper})"
        if prof is not None:
            yield (f"observed big positions: {prof.big_positions} "
                   f"({'consistent' if prof.consistent else 'INCONSISTENT'})")

    _emit(args, [payload], lines())
    return 0 if prof is None or prof.consistent else 1


@functools.lru_cache(maxsize=None)  # parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercf",
        description=(
            "Exact continued fractions of hyperquadratic power series over "
            "F_p((1/T)): expand algebraic equations, generate the predicted "
            "block pattern, and verify the two against each other."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, steps_required=True):
        sp.add_argument("--p", type=int, required=True, help="odd prime modulus")
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", dest="format"
        )
        if steps_required:
            sp.add_argument(
                "--steps", type=int, required=True, help="number of partial quotients"
            )

    sp = sub.add_parser("expand", help="run the extraction engine on an equation")
    sp.set_defaults(handler=_cmd_expand)
    add_common(sp)
    sp.add_argument("--u", type=_parse_triple, help="unit triple u1,u2,u3")
    sp.add_argument("--u1", type=int, help="single unit for the all-linear family")
    sp.add_argument("--equation-file", help="explicit equation, one `i: c0 c1 ...` line per x-power")

    sp = sub.add_parser("pattern", help="generate the predicted block pattern")
    sp.set_defaults(handler=_cmd_pattern)
    add_common(sp)
    sp.add_argument("--u", type=_parse_triple, required=True)

    sp = sub.add_parser("verify", help="pattern vs engine, plus series residuals")
    sp.set_defaults(handler=_cmd_verify)
    add_common(sp)
    sp.add_argument("--u", type=_parse_triple, action="append", default=[])
    sp.add_argument("--grid", action="store_true", help="sweep the committed triples for p")
    sp.add_argument(
        "--r-convention",
        choices=("remainder", "tp"),
        default="remainder",
        help="R as the remainder of t^p by F (default), or the bare t^p",
    )
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")

    sp = sub.add_parser("identities", help="Fibonacci-polynomial identity checks")
    sp.set_defaults(handler=_cmd_identities)
    add_common(sp, steps_required=False)
    sp.add_argument("--fib-count", type=int, default=12)

    sp = sub.add_parser("measure", help="degree positions and irrationality measure")
    sp.set_defaults(handler=_cmd_measure)
    add_common(sp, steps_required=False)
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--steps", type=int, help="also profile the engine's expansion")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        return args.handler(args)
    except (ValueError, ZeroDivisionError, NoAdmissibleQuotientError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
