"""Acceptance suite: one test per criterion, each printing a PASS line
once its assertions (exact comparisons at the stated budgets) hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

from hypercf import (
    PartialQuotients,
    Poly,
    PrimeField,
    build_spec,
    check_identities,
    cli,
    closed_forms,
    continuants,
    expand,
    mills_robbins_equation,
    nu,
    pattern,
    pattern_equation,
    profile,
    rational_to_cf,
    verify_pattern,
)
from hypercf.expansion import NoAdmissibleQuotientError
from hypercf.grids import MILLS_ROBBINS_U1, VERIFICATION_TRIPLES, verification_steps

from reference import poly_dict

REFERENCE_CFE = "cfe [2*t, 4*t, 5*t, 6*t, 6*t^13 + 2*t^11 + t^9 + 6*t^7, t, 4*t]"
REFERENCE_DEGREES = [1, 1, 1, 1, 13] + [1] * 8 + [97] + [1] * 50 + [685]
REFERENCE_LEADS = (
    [2, 4, 5, 6, 6, 1, 4, 2, 4, 2, 4, 2, 2, 4, 5] + [5, 3] * 24 + [6, 6]
)


def report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_golden_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(
        ["expand", "--p", "7", "--u", "2,4,5", "--steps", "65", "--format", "json"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    payload = json.loads(out[0])
    assert payload["degrees"] == REFERENCE_DEGREES
    assert payload["leading_coefficients"] == REFERENCE_LEADS

    K = PrimeField(7)
    quotients = PartialQuotients(
        [Poly(K, entry["coeffs"]) for entry in payload["partial_quotients"]]
    )
    first_seven = ", ".join(str(a) for a in list(quotients)[:7])
    assert f"cfe [{first_seven}]" == REFERENCE_CFE
    assert elapsed < 10.0
    report(
        f"ACCEPTANCE 1: PASS - 65-step expansion at p=7 reproduces the "
        f"reference quotients, degrees, and leading coefficients in {elapsed:.2f}s"
    )


def test_criterion_2_pattern_engine_equivalence():
    start = time.perf_counter()
    runs = 0
    for p, triples in VERIFICATION_TRIPLES.items():
        K = PrimeField(p)
        steps = verification_steps(p)
        for u in triples:
            spec = build_spec(K, u)
            predicted = pattern(spec, steps)
            extracted = expand(pattern_equation(spec), steps).quotients
            assert predicted == extracted, f"p={p} u={u} diverged"
            runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 20
    assert elapsed < 120.0
    report(
        f"ACCEPTANCE 2: PASS - pattern and engine agree exactly on {runs} "
        f"parameter sets (p in 3,5,7,11; depth n_2+p^2+2) in {elapsed:.1f}s"
    )


def test_criterion_3_tail_relation_residual():
    worst = -10**9
    for p in (3, 5, 7):
        K = PrimeField(p)
        steps = verification_steps(p)
        for u in VERIFICATION_TRIPLES[p]:
            rep = verify_pattern(build_spec(K, u), steps)
            res = rep.tail_relation_residual
            assert res.zero_to_floor, f"p={p} u={u}: nonzero residual"
            assert res.floor <= -170, f"p={p} u={u}: floor {res.floor}"
            worst = max(worst, res.floor)
    report(
        f"ACCEPTANCE 3: PASS - alpha^p - 4*u1*u3*F*alpha_4 - u1*R vanishes "
        f"to its floor (<= -170, worst {worst}) for p in 3,5,7"
    )


def test_criterion_4_equation_root_residual():
    worst = -10**9
    for p in (3, 5, 7):
        K = PrimeField(p)
        steps = verification_steps(p)
        for u in VERIFICATION_TRIPLES[p]:
            rep = verify_pattern(build_spec(K, u), steps)
            res = rep.equation_residual
            assert res.zero_to_floor, f"p={p} u={u}: nonzero residual"
            assert res.floor <= -170, f"p={p} u={u}: floor {res.floor}"
            worst = max(worst, res.floor)
    report(
        f"ACCEPTANCE 4: PASS - the degree-(p+1) equation vanishes at the "
        f"pattern series to its floor (worst {worst}) for p in 3,5,7"
    )


def test_criterion_5_remainder_convention_resolution():
    # the remainder convention R = t^p - t*F passes criteria 1-4 above;
    # substituting the bare t^p must derail the engine within four steps
    for p in (3, 5, 7):
        K = PrimeField(p)
        spec = build_spec(K, VERIFICATION_TRIPLES[p][0])
        assert spec.R == divmod(K.T ** p, spec.F)[1]
        predicted = pattern(spec, 4)
        try:
            run = expand(pattern_equation(spec, r_override=K.T ** p), 4)
            diff = predicted.first_difference(run.quotients)
            failed_by = diff if diff is not None else (
                5 if len(run.quotients) >= 4 else len(run.quotients) + 1
            )
        except NoAdmissibleQuotientError as err:
            failed_by = err.step
        assert failed_by <= 4, f"p={p}: survived past step 4 with R=t^p"
    report(
        "ACCEPTANCE 5: PASS - with R = t^p - t*F all checks pass; with the "
        "bare t^p the engine diverges from the pattern by step 4"
    )


def test_criterion_6_fibonacci_identities():
    for p in (3, 5, 7, 11, 13):
        rep = check_identities(PrimeField(p), fib_cf_limit=12)
        assert rep.f_pm1_equals_F, f"p={p}"
        assert rep.f_p_plus_f_pm2_equals_Tp, f"p={p}"
        assert rep.R_equals_2_f_pm2, f"p={p}"
        assert rep.fibonacci_cf_all_T, f"p={p}"
    report(
        "ACCEPTANCE 6: PASS - f_(p-1) = (t^2+4)^((p-1)/2), f_p + f_(p-2) = t^p, "
        "R = 2*f_(p-2), and cf(f_n/f_(n-1)) = [t]*n (n <= 12) for p in 3,5,7,11,13"
    )


def test_criterion_7_all_linear_family():
    start = time.perf_counter()
    for p in (5, 7, 11):
        K = PrimeField(p)
        minus_t = (p - 1) * K.T
        run = expand(mills_robbins_equation(K, p - 1), 200)
        assert len(run.quotients) == 200
        assert all(a == minus_t for a in run.quotients), f"p={p} u1=-1"
        for u1 in MILLS_ROBBINS_U1[p]:
            run = expand(mills_robbins_equation(K, u1), 200)
            assert len(run.quotients) == 200
            assert run.quotients.degrees() == [1] * 200, f"p={p} u1={u1}"
            assert all(c != 0 for c in run.quotients.leading_coefficients())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        f"ACCEPTANCE 7: PASS - u1=-1 gives 200 quotients equal to -t and the "
        f"other admissible u1 give 200 degree-1 quotients (p in 5,7,11) "
        f"in {elapsed:.1f}s"
    )


def test_criterion_8_closed_forms():
    for p, kmax in ((3, 3), (5, 2), (7, 2)):
        K = PrimeField(p)
        steps = closed_forms(p, kmax)[0]
        prof = profile(pattern(build_spec(K, (1, 1, 1)), steps), p)
        assert prof.consistent
        assert len(prof.big_positions) == kmax
        for k in range(1, kmax + 1):
            n_k, s_k = closed_forms(p, k)
            assert prof.big_positions[k - 1] == (k, n_k, 2 * p ** k - 1)
            assert prof.partial_sums[k - 1] == (k, s_k)
    for p in (3, 5, 7, 11, 13):
        assert closed_forms(p, 1) == (5, 4)
        assert nu(p) == 2 + Fraction(2 * (p - 1), 3)
    assert nu(3) == Fraction(10, 3)
    assert nu(3) <= 4
    report(
        "ACCEPTANCE 8: PASS - generated patterns confirm (n_k, 2p^k-1, s_k); "
        "n_1=5, s_1=4 for all p; nu(p) = 2 + 2(p-1)/3 exactly, nu(3) = 10/3 <= 4"
    )


def test_criterion_9_randomized_property_suites():
    cases = 500
    start = time.perf_counter()
    for p in (3, 5, 7):
        K = PrimeField(p)
        rng = random.Random(1000 + p)

        def rand_poly(min_deg, max_deg):
            d = rng.randint(min_deg, max_deg)
            coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
            return Poly(K, coeffs)

        for _ in range(cases):
            a, b = rand_poly(0, 10), rand_poly(0, 6)
            q, r = divmod(a, b)
            assert q * b + r == a and r.degree < b.degree

        for _ in range(cases):
            pqs = PartialQuotients([rand_poly(1, 3) for _ in range(rng.randint(1, 6))])
            for n in range(1, len(pqs) + 1):
                x, y, x_prev, y_prev = continuants(pqs[:n])
                assert x * y_prev - x_prev * y == Poly(K, ((-1) ** n,))
            assert rational_to_cf(x, y) == pqs

        for _ in range(cases):
            a = rand_poly(0, 10)
            assert poly_dict(a ** p) == {p * e: c for e, c in poly_dict(a).items()}
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        f"ACCEPTANCE 9: PASS - divmod contract, determinant identity, "
        f"cf/rational roundtrip, and the Frobenius exponent law hold on "
        f"{cases} randomized cases per property per p in 3,5,7 ({elapsed:.1f}s)"
    )
