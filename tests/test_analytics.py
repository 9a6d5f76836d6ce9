from __future__ import annotations

from fractions import Fraction

import pytest

from hypercf import (
    build_spec,
    closed_forms,
    expand,
    irrationality_report,
    nu,
    pattern,
    pattern_equation,
    pattern_position,
    profile,
    profile_from_degrees,
)

from conftest import FIELDS

REFERENCE_DEGREES_P7 = [1] * 4 + [13] + [1] * 8 + [97] + [1] * 50 + [685]


class TestClosedForms:
    def test_k1_is_universal(self):
        for p in (3, 5, 7, 11, 13):
            assert closed_forms(p, 1) == (5, 4)

    def test_p7_values(self):
        assert closed_forms(7, 2) == (14, 25)
        assert closed_forms(7, 3) == (65, 172)

    def test_recurrences(self):
        # n_{k+1} = n_k + p^k + 2 and s_{k+1} = s_k + 3*p^k
        for p in (3, 5, 7, 11, 13):
            for k in range(1, 6):
                n_k, s_k = closed_forms(p, k)
                n_next, s_next = closed_forms(p, k + 1)
                assert n_next == n_k + p ** k + 2
                assert s_next == s_k + 3 * p ** k

    def test_k_validation(self):
        with pytest.raises(ValueError):
            closed_forms(5, 0)


class TestNu:
    def test_values(self):
        assert nu(7) == Fraction(6)
        assert nu(3) == Fraction(10, 3)
        assert nu(3) <= 4

    def test_liouville_window(self):
        for p in (3, 5, 7, 11, 13, 101):
            value = nu(p)
            assert Fraction(2) < value <= Fraction(p + 1)


class TestProfile:
    def test_reference_degree_list(self):
        prof = profile_from_degrees(REFERENCE_DEGREES_P7, 7)
        assert prof.big_positions == [(1, 5, 13), (2, 14, 97), (3, 65, 685)]
        assert prof.partial_sums == [(1, 4), (2, 25), (3, 172)]
        assert prof.consistent

    def test_all_linear_degrees(self):
        prof = profile_from_degrees([1] * 40, 5)
        assert prof.big_positions == []
        assert prof.consistent

    def test_flags_inconsistencies(self):
        degs = [1] * 4 + [13] + [1] * 7 + [97]  # 97 lands at 13, not 14
        prof = profile_from_degrees(degs, 7)
        assert not prof.consistent

    def test_names_a_degree_mismatch(self):
        prof = profile_from_degrees(REFERENCE_DEGREES_P7[:-1] + [686], 7)
        assert prof.mismatches == ["entry 3: degree 686, closed form 685"]

    def test_generated_pattern(self):
        spec = build_spec(FIELDS[3], (2, 2, 2))
        prof = profile(pattern(spec, 21), 3)
        assert prof.big_positions == [(1, 5, 5), (2, 10, 17), (3, 21, 53)]
        assert prof.consistent


class TestAgainstTheEngine:
    @pytest.mark.parametrize("p, k", [(3, 3), (5, 3), (7, 3), (11, 3), (13, 3),
                                      (3, 4), (5, 4), (7, 4)])
    def test_engine_profile_equals_the_pattern_profile(self, p, k):
        # (1,1,1) is in no committed grid at p = 7, 11 or 13
        spec = build_spec(FIELDS[p], (1, 1, 1))
        steps = pattern_position(p, k)
        engine = profile(expand(pattern_equation(spec), steps).quotients, p)
        predicted = profile(pattern(spec, steps), p)
        assert engine.consistent and predicted.consistent
        assert len(engine.big_positions) == k
        assert engine.big_positions == predicted.big_positions
        assert engine.partial_sums == predicted.partial_sums


class TestIrrationalityReport:
    def test_ratio_samples_increase_toward_limit(self):
        for p in (3, 5, 7, 11, 13):
            report = irrationality_report(p, kmax=6)
            limit = nu(p) - 2
            ratios = [r for _, r in report.ratio_samples]
            assert all(a < b for a, b in zip(ratios, ratios[1:]))
            assert all(r < limit for r in ratios)
            assert 2 < report.nu <= report.liouville_upper == p + 1

    def test_k4_within_one_percent(self):
        for p in (3, 5, 7, 11, 13):
            _, s4 = closed_forms(p, 4)
            ratio = Fraction(2 * p ** 4 - 1, s4)
            limit = Fraction(2 * (p - 1), 3)
            assert abs(ratio - limit) < limit / 100
