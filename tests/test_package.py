from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hypercf
from hypercf import (
    BiPoly, LaurentSeries, PartialQuotients, Poly, PrimeField, Triple, build_Pn,
    build_spec, cli, continuants, fibonacci_poly,
)

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypercf"

PUBLIC_NAMES = {
    "__version__",
    "NEG_INFINITY", "is_prime", "PrimeField", "FieldElement", "Poly",
    "LaurentSeries", "series_from_rational", "InsufficientPrecisionError",
    "PartialQuotients", "continuants", "rational_to_cf", "cf_to_series",
    "convergent_validity_floor",
    "BiPoly", "ExpansionResult", "NoAdmissibleQuotientError",
    "expand", "eval_at_series",
    "Triple", "PatternSpec", "build_spec", "build_Pn", "pattern",
    "pattern_position", "pattern_degree", "pattern_equation",
    "mills_robbins_u2", "mills_robbins_equation", "fibonacci_poly",
    "IdentityReport", "check_identities", "ResidualSummary",
    "PatternVerification", "verify_pattern",
    "closed_forms", "nu", "DegreeProfile", "profile", "profile_from_degrees",
    "IrrationalityReport", "irrationality_report",
}


def test_public_surface():
    assert len(hypercf.__all__) == len(PUBLIC_NAMES) == 42
    assert set(hypercf.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(hypercf, name) is not None


def test_no_assert_statement_is_a_runtime_check():
    # `python -O` strips assert statements: a check the package relies on
    # raises an error of its own instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def _quick_start():
    """(argv, expected stdout lines) for each `$ hypercf ...` line of the
    README's Quick start block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ hypercf "):
            runs.append((line.split()[2:], []))
        elif line:
            runs[-1][1].append(line)
    return runs


def test_readme_quick_start(capsys):
    runs = _quick_start()
    assert runs
    for argv, expected in runs:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv


F5, F7 = PrimeField(5), PrimeField(7)

#: one row per input check: (the bad call, its exception, its message)
BAD_INPUTS = {
    "poly field mismatch": (lambda: Poly(F5, (1, 1)) + Poly(F7, (1, 1)),
                            ValueError, "field mismatch"),
    "negative power": (lambda: F5.T ** -1,
                       ValueError, "exponent must be a nonnegative integer"),
    "term below the floor": (lambda: LaurentSeries.from_poly(F5.T, -4).term(-5),
                             ValueError, "exponent -5 is below the validity floor -4"),
    "series field mismatch": (
        lambda: LaurentSeries.from_poly(F5.T, -4) + LaurentSeries.from_poly(F7.T, -4),
        ValueError, "operands must be series over the same field"),
    "negative x-exponent": (lambda: BiPoly(F5, {-1: F5.T, 1: 1}),
                            ValueError, "x-exponents must be nonnegative"),
    "tail out of range": (lambda: PartialQuotients([F5.T, F5.T]).tail(3),
                          IndexError, "tail start 3 out of range"),
    "no quotients": (lambda: continuants(PartialQuotients()),
                     ValueError, "continuants need at least one partial quotient"),
    "two-value triple": (lambda: Triple.from_ints(F5, (1, 2)),
                         ValueError, "a triple needs exactly three components"),
    "triple of another field": (lambda: build_spec(F7, Triple.from_ints(F5, (1, 2, 3))),
                                ValueError, "triple is over a different field"),
    "negative tower index": (lambda: build_Pn(build_spec(F5, (1, 2, 3)), -1),
                             ValueError, "n must be >= 0"),
    "negative fibonacci index": (lambda: fibonacci_poly(F5, -1),
                                 ValueError, "n must be >= 0"),
}


@pytest.mark.parametrize("row", BAD_INPUTS)
def test_bad_input_fails_fast(row):
    call, error, message = BAD_INPUTS[row]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_zero_to_a_power_is_zero():
    assert Poly(F5, ()) ** 3 == Poly(F5, ())
