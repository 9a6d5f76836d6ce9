"""The benchmark's workloads: set-up, timed body and known-answer checks.

Importing this module imports hypercf from the `src` directory of the
checkout this file sits in, and from nowhere else, so a run measures
the code next to the benchmark and not an installed copy.

Each workload is closed-loop with one caller: the body makes one call at
a time, in-process, and waits for it.  A check is one comparison of an
output with an answer known independently of the code path being timed.
An exception or a wrong exit code fails every check of that call.
"""
from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hypercf" / "__init__.py").is_file():
    raise ImportError(f"no hypercf sources under {SRC}")
sys.path.insert(0, str(SRC))

import hypercf  # noqa: E402
from hypercf import cf, cli, construction, grids  # noqa: E402
from hypercf.algebra import PrimeField  # noqa: E402
from hypercf.series import LaurentSeries  # noqa: E402

if Path(hypercf.__file__).resolve().parent != SRC / "hypercf":
    raise ImportError(f"hypercf was imported from {hypercf.__file__}, not {SRC}")

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

DEEP_P = 7
DEEP_STEPS = 410  # n_4 at p = 7: the stream reaches the degree-4801 quotient
GRID_PRIMES = (3, 5, 7, 11)
GRID_PARTS = tuple(f"p{p}_s" for p in GRID_PRIMES) + ("control_s",)


@dataclass
class Checks:
    attempted: int
    failed: int
    cert_depth: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[..., dict]
    body: Callable[[dict], object]
    check: Callable[[dict, object], Checks]


def draw_triple(seed: int, p: int = DEEP_P) -> Tuple[int, int, int]:
    """The seeded unit triple, drawn from (F_p*)^3."""
    rng = random.Random(seed)
    return tuple(rng.randrange(1, p) for _ in range(3))  # type: ignore[return-value]


def run_cli(argv: Sequence[str]) -> Tuple[Optional[int], str]:
    """`hypercf.cli.main(argv)` in-process with its output captured.

    The exit code is None when the call raised.  `cli.main` is looked up
    at call time so that a tracer's wrapper is the one called.
    """
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception as err:  # noqa: BLE001  (a raising call fails its checks)
        print(f"bench: {' '.join(argv)} raised {err!r}", file=sys.stderr)
        return None, ""
    return code, out.getvalue()


# -- engine_deep ---------------------------------------------------------------

def setup_engine(seed: int, p: int = DEEP_P, steps: int = DEEP_STEPS) -> dict:
    u = draw_triple(seed, p)
    spec = construction.build_spec(PrimeField(p), u)
    return {"p": p, "steps": steps, "u": u, "spec": spec}


def body_engine(inp: dict) -> Tuple[Optional[int], str]:
    return run_cli(["expand", "--p", str(inp["p"]), "--u", ",".join(map(str, inp["u"])),
                    "--steps", str(inp["steps"]), "--format", "json"])


def check_engine(inp: dict, out) -> Checks:
    """One check per quotient: coefficients, degree and leading coefficient
    agree with the block pattern.  cert_depth is the depth in 1/T that the
    agreeing prefix pins the expansion down to."""
    expected = construction.pattern(inp["spec"], inp["steps"])
    code, text = out if out is not None else (None, "")
    got: List[Tuple[list, int, int]] = []
    if code == 0:
        try:
            payload = json.loads(text)
            got = list(zip([q["coeffs"] for q in payload["partial_quotients"]],
                           payload["degrees"], payload["leading_coefficients"]))
        except (ValueError, KeyError, TypeError):
            got = []
    failed = 0
    prefix = None
    for i, a in enumerate(expected):
        want = (a.coeffs.tolist(), int(a.degree), a.leading_coefficient().value)
        if i >= len(got) or tuple(got[i]) != want:
            failed += 1
            if prefix is None:
                prefix = i
    agreed = expected[: len(expected) if prefix is None else prefix]
    depth = -cf.convergent_validity_floor(agreed) if len(agreed) else 0
    return Checks(len(expected), failed, depth)


# -- certify_deep --------------------------------------------------------------

def setup_certify(seed: int, p: int = DEEP_P, steps: int = DEEP_STEPS,
                  floors: Optional[Dict[str, int]] = None) -> dict:
    u = draw_triple(seed, p)
    spec = construction.build_spec(PrimeField(p), u)
    return {"p": p, "steps": steps, "u": u, "spec": spec,
            "quotients": construction.pattern(spec, steps),
            "floors": dict(EXPECTED["certify_deep"] if floors is None else floors)}


def body_certify(inp: dict) -> Dict[str, LaurentSeries]:
    """The series half of `verify`, at the convergent floor, on the block
    pattern alone: the tail relation alpha^p - 4*u1*u3*F*alpha_4 - u1*R
    and the equation evaluated at alpha."""
    spec, pqs = inp["spec"], inp["quotients"]
    field, p = spec.field, spec.field.p
    u1, u3 = spec.u.u1, spec.u.u3
    alpha = construction.cf_to_series(pqs, cf.convergent_validity_floor(pqs))
    tail = pqs.tail(4)
    alpha4 = construction.cf_to_series(tail, cf.convergent_validity_floor(tail))
    hint = min(alpha.valid_order, alpha4.valid_order) - p
    tail_residual = (
        alpha.frobenius()
        - LaurentSeries.from_poly(spec.F * (field(4) * u1 * u3), hint) * alpha4
        - LaurentSeries.from_poly(spec.R * u1, hint)
    )
    equation = construction.pattern_equation(spec)
    return {"tail": tail_residual,
            "equation": construction.eval_at_series(equation, alpha)}


def check_certify(inp: dict, out) -> Checks:
    """One check per residual: zero down to a floor at least as deep as the
    committed one.  cert_depth is the shallower of the two floors."""
    floors = inp["floors"]
    failed = 0
    depths = []
    for name, want in floors.items():
        res = out.get(name) if isinstance(out, dict) else None
        ok = res is not None and res.is_zero_to_floor and res.valid_order <= want
        failed += not ok
        depths.append(-res.valid_order if ok else 0)
    return Checks(len(floors), failed, min(depths))


# -- verify_grid ---------------------------------------------------------------

CONTROL = ["verify", "--p", "7", "--u", "2,4,5", "--steps", "65",
           "--r-convention", "tp", "--jobs", "1"]


def setup_grid(seed: int, primes: Sequence[int] = GRID_PRIMES) -> dict:
    del seed  # the grid is the committed one
    return {"runs": {p: ["verify", "--p", str(p), "--grid",
                         "--steps", str(grids.verification_steps(p)),
                         "--format", "json", "--jobs", "1"] for p in primes},
            "expected": {p: EXPECTED["verify_grid"][str(p)] for p in primes}}


def body_grid(inp: dict) -> dict:
    outputs, seconds = {}, {}
    for p, argv in inp["runs"].items():
        start = time.perf_counter()
        outputs[p] = run_cli(argv)
        seconds[f"p{p}_s"] = time.perf_counter() - start
    start = time.perf_counter()
    control = run_cli(CONTROL)
    seconds["control_s"] = time.perf_counter() - start
    return {"grid": outputs, "control": control, "seconds": seconds}


def check_grid(inp: dict, out) -> Checks:
    """One check per triple, against its committed verdict and a residual
    order at least as deep; one for the `tp` control, which must exit 1
    with MISMATCH.  cert_depth sums |residual_order| over passing triples."""
    attempted = failed = depth = 0
    for p, rows in inp["expected"].items():
        code, text = out["grid"][p] if out is not None else (None, "")
        got = []
        if code == 0:
            try:
                got = [json.loads(line) for line in text.splitlines()]
            except ValueError:
                got = []
        for i, want in enumerate(rows):
            attempted += 1
            row = got[i] if i < len(got) else {}
            ok = (isinstance(row, dict)
                  and (row.get("p"), row.get("u"), row.get("verified"))
                  == (want["p"], want["u"], want["verified"])
                  and isinstance(row.get("residual_order"), int)
                  and row["residual_order"] <= want["residual_order"])
            failed += not ok
            depth += -row["residual_order"] if ok else 0
    code, text = out["control"] if out is not None else (None, "")
    attempted += 1
    failed += not (code == 1 and "MISMATCH" in text)
    return Checks(attempted, failed, depth)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "engine_deep",
            "The p=7 expand through n_4 (410 quotients, working-equation height "
            "7209) spends ~95% of its time in the extraction engine's Taylor "
            "shifts (Poly mul/add) and does no series or cf work, so an engine "
            "change shows here undiluted.",
            setup_engine, body_engine, check_engine,
        ),
        Workload(
            "certify_deep",
            "Certifying the p=7 depth-410 pattern by its two series residuals "
            "uses no engine at all: it stresses cf.continuants products, "
            "series_from_rational division and ~12k-term series products, "
            "so multiplication and division kernels show here and engine "
            "changes should not.",
            setup_certify, body_certify, check_certify,
        ),
        Workload(
            "verify_grid",
            "`verify --grid` for p=3,5,7,11 plus the `tp` negative control is "
            "the user-visible sweep: it mixes engine (~70%) and certification "
            "(~28%) with many small-operand calls at p<=7, so a gain on one "
            "deep workload that costs another layer shows here.",
            setup_grid, body_grid, check_grid,
        ),
    )
}
