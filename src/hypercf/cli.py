"""Command-line surface: expansion, pattern generation, verification,
identity checks, and degree analytics, with text or JSON output.

Exit codes: 0 success / verified, 1 verification mismatch, 2 usage or
parameter error.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .algebra import Poly, PrimeField
from .analytics import closed_forms, irrationality_report, nu, profile
from .cf import PartialQuotients
from .construction import (
    Triple,
    build_spec,
    check_identities,
    mills_robbins_equation,
    mills_robbins_u2,
    pattern,
    pattern_degree,
    pattern_equation,
    verify_pattern,
)
from .expansion import BiPoly, NoAdmissibleQuotientError, expand
from .grids import VERIFICATION_TRIPLES

__all__ = ["main", "render_json", "quotient_lines", "parse_equation_file"]


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
    order = getattr(args, "order", None)
    if order is not None and order >= 0:
        raise ValueError("order must be < 0: residuals are certified below t^0")
    u = getattr(args, "u", None)
    if isinstance(u, list):  # verify accumulates triples; validate each
        for triple in u:
            Triple.from_ints(field, triple)
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


def quotient_lines(pqs: PartialQuotients) -> List[str]:
    """The three reference lines: quotients, degrees, leading coefficients."""
    cfe = ", ".join(str(a) for a in pqs)
    return [
        f"cfe [{cfe}]",
        f"degrees {pqs.degrees()}",
        f"lead.coef. {pqs.leading_coefficients()}",
    ]


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _print_quotients(args, u: Sequence[int], pqs: PartialQuotients) -> None:
    """The quotients as one JSON object, or as the three reference lines."""
    if args.format == "json":
        print(render_json({
            "p": args.p,
            "u": list(u),
            "partial_quotients": [{"coeffs": [int(c) for c in a.coeffs]} for a in pqs],
            "degrees": pqs.degrees(),
            "leading_coefficients": pqs.leading_coefficients(),
        }))
    else:
        for line in quotient_lines(pqs):
            print(line)


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
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: malformed line ({err})")
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
    _print_quotients(args, u, result.quotients)
    return 0


def _cmd_pattern(args) -> int:
    spec = build_spec(PrimeField(args.p), args.u)
    _print_quotients(args, args.u, pattern(spec, args.steps))
    return 0


def _verify_one(job: Tuple[int, Tuple[int, int, int], int, Optional[int], str]) -> dict:
    p, u, steps, order, r_convention = job
    field = PrimeField(p)
    spec = build_spec(field, u)
    r_override = field.T ** p if r_convention == "tp" else None
    report = verify_pattern(spec, steps, order=order, r_override=r_override)
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
    triples: List[Tuple[int, int, int]] = []
    if args.grid:
        if args.p not in VERIFICATION_TRIPLES:
            raise ValueError(f"no committed grid for p={args.p}")
        triples.extend(VERIFICATION_TRIPLES[args.p])
    if args.u:
        triples.extend(args.u)
    if not triples:
        raise ValueError("verify needs --u or --grid")
    jobs = [(args.p, u, args.steps, args.order, args.r_convention) for u in triples]
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, jobs))
    else:
        results = [_verify_one(job) for job in jobs]
    all_ok = all(r["verified"] for r in results)
    if args.format == "json":
        for r in results:
            print(render_json(r))
    else:
        for r in results:
            u = tuple(r["u"])
            if r["verified"]:
                print(
                    f"p={r['p']} u={u} steps={r['steps']}: verified, "
                    f"residuals zero to order {r['residual_order']}"
                )
            elif not r["match"]:
                print(
                    f"p={r['p']} u={u} steps={r['steps']}: "
                    f"MISMATCH (first mismatch at index {r['first_mismatch']})"
                )
            else:
                print(f"p={r['p']} u={u} steps={r['steps']}: RESIDUAL NONZERO")
    return 0 if all_ok else 1


def _cmd_identities(args) -> int:
    field = PrimeField(args.p)
    report = check_identities(field, fib_cf_limit=args.fib_count)
    if args.format == "json":
        print(
            render_json(
                {
                    "p": args.p,
                    "verified": report.all_ok,
                    "f_pm1_equals_F": report.f_pm1_equals_F,
                    "f_p_plus_f_pm2_equals_Tp": report.f_p_plus_f_pm2_equals_Tp,
                    "R_equals_2_f_pm2": report.R_equals_2_f_pm2,
                    "fibonacci_cf_all_T": report.fibonacci_cf_all_T,
                }
            )
        )
    else:
        flag = lambda ok: "ok" if ok else "FAILED"
        print(f"p={args.p}")
        print(f"f_(p-1) = (t^2+4)^((p-1)/2): {flag(report.f_pm1_equals_F)}")
        print(f"f_p + f_(p-2) = t^p: {flag(report.f_p_plus_f_pm2_equals_Tp)}")
        print(f"remainder of t^p by F = 2*f_(p-2): {flag(report.R_equals_2_f_pm2)}")
        print(
            f"cf(f_n/f_(n-1)) = [t]*n for n <= {report.fibonacci_cf_checked_through}: "
            f"{flag(report.fibonacci_cf_all_T)}"
        )
    return 0 if report.all_ok else 1


def _cmd_measure(args) -> int:
    field = PrimeField(args.p)
    measure = nu(field)
    payload = {
        "p": args.p,
        "nu": {"num": measure.numerator, "den": measure.denominator},
    }
    prof = None
    if args.steps is not None:
        # entries are units times T or P_n: no triple changes the degrees
        spec = build_spec(field, (1, 1, 1))
        prof = profile(pattern(spec, args.steps), field)
        payload["big_positions"] = [list(entry) for entry in prof.big_positions]
        payload["verified"] = prof.consistent
    if args.format == "json":
        print(render_json(payload))
    else:
        print(f"p={args.p}")
        for k in range(1, args.k + 1):
            n_k, s_k = closed_forms(field, k)
            print(f"k={k}: position n_k={n_k}, degree {pattern_degree(args.p, k)}, partial sum s_k={s_k}")
        report = irrationality_report(field, kmax=args.k, degree_profile=prof)
        print(f"nu = {measure} (bounds: 2 < nu <= degree <= {report.liouville_upper})")
        if prof is not None:
            print(
                f"observed big positions: {prof.big_positions} "
                f"({'consistent' if prof.consistent else 'INCONSISTENT'})"
            )
    if prof is not None and not prof.consistent:
        return 1
    return 0


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
    sp.add_argument("--order", type=int, help="residual inspection depth (clamped to the achievable floor)")
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
    sp.add_argument("--steps", type=int, help="also profile a generated pattern")

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
