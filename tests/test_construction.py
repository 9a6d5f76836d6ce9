from __future__ import annotations

import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercf import (
    NoAdmissibleQuotientError,
    PartialQuotients,
    Poly,
    PrimeField,
    Triple,
    build_Pn,
    build_spec,
    cf_to_series,
    check_identities,
    continuants,
    convergent_validity_floor,
    eval_at_series,
    expand,
    fibonacci_poly,
    mills_robbins_equation,
    mills_robbins_u2,
    pattern,
    pattern_degree,
    pattern_equation,
    pattern_position,
    series_from_rational,
    verify_pattern,
)
from hypercf import algebra, cli, construction

from conftest import FIELDS
from reference import poly_dict, rfibonacci


class TestBuildSpec:
    def test_p3(self):
        K = FIELDS[3]
        spec = build_spec(K, (1, 1, 1))
        assert spec.F == K.T ** 2 + 1
        assert spec.R == 2 * K.T

    def test_p7(self):
        K = FIELDS[7]
        spec = build_spec(K, (2, 4, 5))
        assert spec.F == Poly(K, (1, 0, 6, 0, 5, 0, 1))
        assert spec.R == Poly(K, (0, 6, 0, 1, 0, 2))

    def test_degree_bounds(self):
        K = FIELDS[5]
        spec = build_spec(K, (1, 2, 3))
        assert spec.F.degree == 4
        assert spec.R.degree <= 3

    def test_rejects_zero_units(self):
        K = FIELDS[5]
        with pytest.raises(ValueError, match="nonzero"):
            build_spec(K, (1, 0, 2))

    def test_triple_field_coherence(self):
        with pytest.raises(ValueError):
            Triple(FIELDS[3](1), FIELDS[5](1), FIELDS[5](2))

    @pytest.mark.parametrize("p", (65537, 2147483647))
    def test_family_refuses_p_beyond_its_bound_at_once(self, p):
        K = PrimeField(p)
        start = time.perf_counter()
        for build in (
            lambda: build_spec(K, (1, 2, 3)),
            lambda: mills_robbins_equation(K, 1),
            lambda: check_identities(K),
        ):
            with pytest.raises(ValueError, match=r"below 2\^16 = 65536"):
                build()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p", sorted(FIELDS))
    def test_family_builds_below_its_bound(self, p):
        spec = build_spec(FIELDS[p], (1, 1, 1))
        assert spec.F.degree == p - 1


class TestBuildPn:
    def test_base_case(self):
        for p in (3, 5, 7):
            spec = build_spec(FIELDS[p], (1, 1, 1))
            assert build_Pn(spec, 0) == FIELDS[p].T

    def test_p7_first_step(self):
        K = FIELDS[7]
        spec = build_spec(K, (2, 4, 5))
        assert build_Pn(spec, 1) == Poly(K, [0] * 7 + [1, 0, 6, 0, 5, 0, 1])

    def test_degree_formula(self):
        spec = build_spec(FIELDS[3], (1, 1, 1))
        assert build_Pn(spec, 2).degree == 17
        assert build_Pn(spec, 3).degree == 2 * 27 - 1


class TestPattern:
    def test_reference_prefix_p7(self):
        K = FIELDS[7]
        T = K.T
        spec = build_spec(K, (2, 4, 5))
        expected = PartialQuotients(
            [2 * T, 4 * T, 5 * T, 6 * T, Poly(K, [0] * 7 + [6, 0, 1, 0, 2, 0, 6]), T, 4 * T]
        )
        assert pattern(spec, 7) == expected

    def test_p3_all_ones_first_ten(self):
        K = FIELDS[3]
        T = K.T
        spec = build_spec(K, (1, 1, 1))
        expected = PartialQuotients(
            [
                T, T, T,
                T, T ** 5 + T ** 3, T, 2 * T, 2 * T,
                T, Poly(K, [0] * 9 + [1, 0, 1, 0, 0, 0, 1, 0, 1]),
            ]
        )
        assert pattern(spec, 10) == expected

    def test_opening_block(self):
        K = FIELDS[5]
        T = K.T
        spec = build_spec(K, (2, 3, 3))
        assert pattern(spec, 3) == PartialQuotients([2 * T, 3 * T, 3 * T])

    def test_block_lengths_and_positions(self):
        # |C_n| = p^n + 2; entry k sits at n_k with degree 2p^k - 1, all
        # other entries have degree exactly 1
        for p, count in ((3, 21), (5, 39)):
            spec = build_spec(FIELDS[p], (1, 2, 1))
            degs = pattern(spec, count).degrees()
            big = {pattern_position(p, k): pattern_degree(p, k) for k in (1, 2, 3)}
            for pos, d in enumerate(degs, start=1):
                assert d == big.get(pos, 1)

    def test_count_validation(self):
        spec = build_spec(FIELDS[3], (1, 1, 1))
        with pytest.raises(ValueError):
            pattern(spec, 0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_large_entries_prefixes_and_degrees(self, data):
        # the k-th large entry is a unit times P_k, a shorter pattern is a
        # prefix of a longer one, and since every other entry is a unit
        # times T the degrees are those of the (1, 1, 1) pattern
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        K = FIELDS[p]
        u = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        spec = build_spec(K, u)
        longest = pattern_position(p, 3) + 4
        m, m_long = sorted(data.draw(st.tuples(st.integers(1, longest), st.integers(1, longest))))
        full = pattern(spec, longest)
        for k in (1, 2, 3):
            entry = full.quotient(pattern_position(p, k))
            P_k = build_Pn(spec, k)
            assert entry == P_k * entry.leading_coefficient()
        short, long_ = pattern(spec, m), pattern(spec, m_long)
        assert long_[:m] == short
        assert long_ == full[:m_long]
        assert full.degrees() == pattern(build_spec(K, (1, 1, 1)), longest).degrees()

    def test_convergent_accuracy_on_generated_stream(self):
        # deg(alpha - x_n/y_n) = -deg(y_n) - deg(y_{n+1}) along the pattern
        K = FIELDS[5]
        spec = build_spec(K, (1, 3, 2))
        pqs = pattern(spec, 14)
        order = convergent_validity_floor(pqs)
        alpha = cf_to_series(pqs, order)
        for n in (3, 5, 8, 11):
            _, y_next, x_n, y_n = continuants(pqs[: n + 1])
            approx = series_from_rational(x_n, y_n, order)
            expected = -int(y_n.degree) - int(y_next.degree)
            assert (alpha - approx).top_degree == expected


class TestPatternEquation:
    def test_leading_coefficient_is_y3(self):
        for p, u in ((3, (2, 1, 2)), (7, (2, 4, 5)), (11, (3, 10, 5))):
            K = PrimeField(p)
            spec = build_spec(K, u)
            eq = pattern_equation(spec)
            assert eq.degree_x == p + 1
            assert eq.coefficient(p + 1) == (u[1] * u[2] % p) * K.T ** 2 + 1

    def test_p3_all_ones_coefficients(self):
        K = FIELDS[3]
        T = K.T
        eq = pattern_equation(build_spec(K, (1, 1, 1)))
        assert eq.coefficient(4) == T ** 2 + 1
        assert eq.coefficient(3) == -(T ** 3 + 2 * T)
        assert eq.coefficient(2).is_zero
        assert eq.coefficient(1) == 2 * T ** 3 + 2 * T
        assert eq.coefficient(0) == T ** 4 + 2 * T ** 2 + 2

    def test_exactly_four_nonzero_coefficients(self):
        for p in (3, 5, 7):
            spec = build_spec(FIELDS[p], (1, 2, 2))
            eq = pattern_equation(spec)
            nonzero = [i for i in range(p + 2) if not eq.coefficient(i).is_zero]
            assert nonzero == [0, 1, p, p + 1]

    def test_engine_agrees_with_pattern(self):
        K = FIELDS[7]
        spec = build_spec(K, (2, 4, 5))
        assert expand(pattern_equation(spec), 7).quotients == pattern(spec, 7)


class TestMillsRobbins:
    def test_u2_formula(self):
        K = FIELDS[5]
        assert mills_robbins_u2(K, 1) == K(3)
        assert mills_robbins_u2(K, 4) == K(4)  # u1 = -1 gives u2 = -1

    def test_parameter_validation(self):
        K = FIELDS[5]
        with pytest.raises(ValueError):
            mills_robbins_u2(K, 0)
        with pytest.raises(ValueError):
            mills_robbins_u2(K, 2)  # -1/2 mod 5
        with pytest.raises(ValueError, match="p >= 5"):
            mills_robbins_equation(FIELDS[3], 2)

    def test_negative_one_gives_negated_golden_ratio(self):
        K = FIELDS[5]
        run = expand(mills_robbins_equation(K, 4), 50)
        assert all(a == 4 * K.T for a in run.quotients)

    def test_first_two_quotients_p5(self):
        K = FIELDS[5]
        run = expand(mills_robbins_equation(K, 1), 2)
        assert list(run.quotients) == [K.T, 3 * K.T]

    def test_all_linear_sample(self):
        K = FIELDS[7]
        run = expand(mills_robbins_equation(K, 2), 60)
        assert run.quotients.degrees() == [1] * 60


class TestFibonacci:
    def test_first_values(self):
        K = FIELDS[7]
        T = K.T
        assert fibonacci_poly(K, 0) == Poly(K, (1,))
        assert fibonacci_poly(K, 1) == T
        assert fibonacci_poly(K, 2) == T * T + 1

    def test_f6_is_F_at_p7(self):
        K = FIELDS[7]
        assert fibonacci_poly(K, 6) == (K.T ** 2 + 4) ** 3

    def test_sum_identity_at_p7(self):
        K = FIELDS[7]
        assert fibonacci_poly(K, 7) + fibonacci_poly(K, 5) == K.T ** 7

    @pytest.mark.parametrize("p", sorted(FIELDS))
    def test_matches_reference_recurrence(self, p):
        expected = rfibonacci(60, p)
        for n in range(61):
            assert poly_dict(fibonacci_poly(FIELDS[p], n)) == expected[n]


class TestIdentities:
    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_all_identities_hold(self, p):
        report = check_identities(FIELDS[p])
        assert report.all_ok
        assert report.fibonacci_cf_checked_through == 12

    def test_deep_expansions_in_one_pass(self):
        start = time.perf_counter()
        report = check_identities(FIELDS[3], 3000)
        elapsed = time.perf_counter() - start
        assert report.all_ok and report.fibonacci_cf_checked_through == 3000
        assert elapsed < 2.0

    @pytest.mark.parametrize("n", (3, 7, 19))
    def test_corrupted_remainder_fails(self, monkeypatch, n):
        # the one Euclid pass on (f_20, f_19) must divide f_n by f_(n-1)
        # for every n <= 20: a wrong remainder at any of them shows
        K = FIELDS[5]
        f_n = fibonacci_poly(K, n)
        exact = Poly.__divmod__

        def corrupted(a, b):
            q, r = exact(a, b)
            return (q, r + 1) if a == f_n else (q, r)

        monkeypatch.setattr(Poly, "__divmod__", corrupted)
        report = check_identities(K, 20)
        assert not report.fibonacci_cf_all_T
        assert report.f_pm1_equals_F and report.f_p_plus_f_pm2_equals_Tp
        assert report.R_equals_2_f_pm2

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            check_identities(FIELDS[3], 0)


class TestVerifyPattern:
    def test_p3_deep(self):
        spec = build_spec(FIELDS[3], (1, 1, 1))
        report = verify_pattern(spec, 21)
        assert report.match and report.ok
        assert report.tail_relation_residual.zero_to_floor
        assert report.tail_relation_residual.floor <= -50
        assert report.equation_residual.zero_to_floor

    def test_trivial_match(self):
        spec = build_spec(FIELDS[5], (2, 2, 1))
        report = verify_pattern(spec, 3)
        assert report.match and report.ok
        assert report.tail_relation_residual is None

    def test_alternate_r_fails_fast(self):
        K = FIELDS[3]
        spec = build_spec(K, (1, 1, 1))
        report = verify_pattern(spec, 8, r_override=K.T ** 3)
        assert not report.match
        assert report.engine_aborted or report.first_mismatch <= 4

    def test_engine_abort_is_a_mismatch(self, monkeypatch, capsys):
        # no pattern equation is known to abort: over 12 quotients, no unit
        # triple at p <= 7 did with T^p or eight other small R in place of
        # R, so the engine is made to abort after its first k quotients,
        # the pattern's
        K, k, steps = FIELDS[3], 5, 8
        spec = build_spec(K, (1, 1, 1))
        real = construction.expand

        def aborting(equation, m):
            emitted = real(equation, k).quotients
            raise NoAdmissibleQuotientError(k + 1, Poly(K, (2,)), emitted)

        monkeypatch.setattr(construction, "expand", aborting)
        report = verify_pattern(spec, steps)
        assert report.engine_aborted and not report.match
        assert report.first_mismatch == k + 1 and not report.ok
        code = cli.main(["verify", "--p", "3", "--u", "1,1,1", "--steps", str(steps)])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            f"p=3 u=(1, 1, 1) steps={steps}: MISMATCH (first mismatch at index {k + 1})"]

    def test_a_nonzero_residual_is_not_ok(self, monkeypatch):
        # the series route dissents: the streams match, and the equation
        # residual, one more at T^0 above its floor, is not zero
        real = construction.eval_at_series
        monkeypatch.setattr(construction, "eval_at_series", lambda P, s: real(P, s) + 1)
        report = verify_pattern(build_spec(FIELDS[7], (2, 4, 5)), 65)
        assert report.match and not report.ok
        assert report.tail_relation_residual.zero_to_floor
        assert not report.equation_residual.zero_to_floor

    def test_one_switch_makes_every_route_exact(self, monkeypatch):
        # p=7 (2,4,5) through n_4 transforms at all four FFT sites; with
        # the exactness bound at 0 it transforms at none, and reports the same
        spec = build_spec(FIELDS[7], (2, 4, 5))
        real, sites = algebra._spectrum, Counter()

        def spectrum(*args):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
                caller = caller.f_back
            sites[caller.f_code.co_name] += 1
            return real(*args)

        monkeypatch.setattr(algebra, "_spectrum", spectrum)
        default = verify_pattern(spec, 410)
        assert set(sites) == {"_fft_product", "_top_quotient", "_product", "_spectral"}
        assert default.ok and default.tail_relation_residual.floor == -11990
        assert default.equation_residual.floor == -11993
        sites.clear()
        monkeypatch.setattr(algebra, "_FFT_EXACT_BOUND", 0)
        assert verify_pattern(spec, 410) == default and not sites


class TestResidualIdentity:
    """The two verify residuals are one certificate seen twice: from
    _eliminate_tail, eq(alpha) = (y_3*alpha - x_3) * (alpha^p - G*alpha_4 - H)
    with G = 4*u1*u3*F and H = u1*R.  A fault in the elimination shows up
    as the two sides disagreeing; the `tp` control, where both residuals
    are nonzero, keeps the identity from holding only as 0 = 0."""

    @pytest.mark.parametrize(
        "p, u, tp",
        [(7, (2, 4, 5), False), (5, (2, 3, 3), False), (7, (2, 4, 5), True)],
        ids=["p7", "p5", "tp"],
    )
    def test_identity(self, p, u, tp):
        K = FIELDS[p]
        spec = build_spec(K, u)
        R = K.T ** p if tp else spec.R
        pqs = pattern(spec, p * p + p + 9)
        tail = pqs.tail(4)
        alpha = cf_to_series(pqs, convergent_validity_floor(pqs))
        alpha4 = cf_to_series(tail, convergent_validity_floor(tail))
        x3, y3, _, _ = continuants(pqs[:3])
        G, H = spec.F * (K(4) * spec.u.u1 * spec.u.u3), R * spec.u.u1
        tail_res = alpha.frobenius() - alpha4 * G - H
        eq_res = eval_at_series(pattern_equation(spec, r_override=R), alpha)
        assert tail_res.is_zero_to_floor == eq_res.is_zero_to_floor == (not tp)
        difference = eq_res - (alpha * y3 - x3) * tail_res
        assert difference.is_zero_to_floor
        assert difference.valid_order == eq_res.valid_order
