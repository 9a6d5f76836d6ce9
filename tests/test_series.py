from __future__ import annotations

import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercf import InsufficientPrecisionError, LaurentSeries, Poly, series, series_from_rational

from conftest import FIELDS, polys
from reference import poly_dict, radd, rmul, rseries, rsub, untrimmed_series_mul


class TestFromRational:
    def test_pattern_convergent_p3(self):
        K = FIELDS[3]
        num = Poly(K, (0, 2, 0, 2, 0, 1, 0, 1, 0, 1))
        den = Poly(K, (1, 0, 1, 0, 2, 0, 0, 0, 1))
        s = series_from_rational(num, den, -9)
        assert s.terms() == {1: 1, -1: 1, -3: 2, -5: 2, -7: 2, -9: 2}
        assert s.valid_order == -9

    def test_exact_division(self):
        K = FIELDS[5]
        T = K.T
        s = series_from_rational(T * T + 1, T, -6)
        assert s.terms() == {1: 1, -1: 1}

    def test_inverse_of_t(self):
        K = FIELDS[5]
        s = series_from_rational(Poly(K, (1,)), K.T, -4)
        assert s.terms() == {-1: 1}

    def test_zero_denominator(self):
        K = FIELDS[5]
        with pytest.raises(ZeroDivisionError):
            series_from_rational(K.T, Poly(K, ()), -3)

    def test_roundtrip_tighter_order_agrees(self):
        K = FIELDS[7]
        num = Poly(K, (3, 1, 0, 2, 5))
        den = Poly(K, (1, 6, 2))
        coarse = series_from_rational(num, den, -8)
        fine = series_from_rational(num, den, -30)
        for e, c in coarse.terms().items():
            assert fine.term(e).value == c
        for e in range(-8, 5):
            assert fine.term(e) == coarse.term(e)


class TestConstruction:
    def test_valid_forms_give_the_same_series(self):
        K = FIELDS[7]
        expected = LaurentSeries.from_terms(K, {1: 4, 0: 2, -1: 1}, -1)
        for form in ([-3, 2, 1], [np.int64(-3), K(2), True], np.array([4, 2, 1])):
            assert LaurentSeries(K, 1, form, -1) == expected
        assert LaurentSeries.from_terms(K, {1: np.int64(-3), 0: K(2), -1: True}, -1) == expected

    def test_rejects_what_is_not_in_the_field(self):
        K7, K5 = FIELDS[7], FIELDS[5]
        with pytest.raises(ValueError, match="field mismatch"):
            LaurentSeries(K7, 0, [K5(3)], 0)
        with pytest.raises(ValueError, match="field mismatch"):
            LaurentSeries.from_terms(K7, {0: K5(3)}, 0)
        for bad in (2.5, "3"):
            with pytest.raises(TypeError):
                LaurentSeries(K7, 0, [bad], 0)
            with pytest.raises(TypeError):
                LaurentSeries.from_terms(K7, {0: bad}, 0)
        with pytest.raises(TypeError):
            LaurentSeries(K7, 1, np.array([2.5, 1.0]), 0)


class TestFrobenius:
    def test_exponent_map(self):
        K = FIELDS[3]
        s = LaurentSeries.from_terms(K, {1: 1, -1: 1, -3: 2}, -3)
        cubed = s.frobenius()
        assert cubed.terms() == {3: 1, -3: 1, -9: 2}
        assert cubed.valid_order == 3 * (-3 - 1) + 1

    def test_single_term(self):
        K = FIELDS[5]
        s = LaurentSeries.from_poly(K.T, -2)
        assert s.frobenius().terms() == {5: 1}

    def test_pattern_series(self):
        K = FIELDS[3]
        s = LaurentSeries.from_terms(K, {1: 1, -1: 1, -3: 2, -5: 2, -7: 2, -9: 2}, -9)
        cubed = s.frobenius()
        assert cubed.terms() == {3: 1, -3: 1, -9: 2, -15: 2, -21: 2, -27: 2}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_additivity(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]
        terms_a = data.draw(
            st.dictionaries(st.integers(-6, 4), st.integers(0, p - 1), max_size=5)
        )
        terms_b = data.draw(
            st.dictionaries(st.integers(-6, 4), st.integers(0, p - 1), max_size=5)
        )
        a = LaurentSeries.from_terms(K, terms_a, -6)
        b = LaurentSeries.from_terms(K, terms_b, -6)
        lhs = (a + b).frobenius()
        rhs = a.frobenius() + b.frobenius()
        assert lhs.terms() == rhs.terms()
        assert lhs.valid_order == rhs.valid_order


class TestArithmetic:
    def test_tail_extraction_division(self):
        # (alpha^3 - 2t) / F for the p=3 all-ones parameters: the integer
        # part t is the predicted fourth quotient
        K = FIELDS[3]
        alpha_terms = {1: 1, -1: 1, -3: 2, -5: 2, -7: 2, -9: 2, -11: 1, -13: 1, -15: 2}
        alpha = LaurentSeries.from_terms(K, alpha_terms, -15)
        cubed = alpha.frobenius()
        num = cubed - LaurentSeries.from_poly(2 * K.T, cubed.valid_order)
        den = LaurentSeries.from_poly(K.T ** 2 + 1, cubed.valid_order)
        quotient = num / den
        assert quotient.polynomial_part() == K.T
        expected_prefix = {1: 1, -5: 1, -7: 2, -9: 1, -11: 1, -13: 2}
        for e, c in expected_prefix.items():
            assert quotient.term(e).value == c

    def test_add_zero(self):
        K = FIELDS[5]
        s = LaurentSeries.from_terms(K, {2: 3, -1: 4}, -5)
        assert (s + LaurentSeries.zero(K, -5)) == s

    def test_self_division(self):
        K = FIELDS[7]
        s = LaurentSeries.from_terms(K, {3: 2, 1: 5, -2: 1}, -6)
        one = s / s
        assert one.terms() == {0: 1}

    def test_division_by_known_zero(self):
        K = FIELDS[5]
        s = LaurentSeries.from_terms(K, {1: 1}, -3)
        with pytest.raises(ZeroDivisionError):
            s / LaurentSeries.zero(K, -5)

    def test_scalar_ops(self):
        K = FIELDS[7]
        s = LaurentSeries.from_terms(K, {1: 2, -1: 3}, -4)
        assert (s * 4).terms() == {1: 1, -1: 5}
        assert (s / 2).terms() == {1: 1, -1: 5}
        # an operand that is neither a series nor exact is refused as Poly
        # refuses it
        for op in (lambda: s + 2.5, lambda: s * "3", lambda: s / 2.5,
                   lambda: 2.5 - s, lambda: s // 3):
            with pytest.raises(TypeError):
                op()

    def test_scalar_addition(self):
        K = FIELDS[7]
        s = LaurentSeries.from_terms(K, {1: 2, -1: 3}, -4)
        for zero in (0, K(0), Poly(K, ())):
            assert s + zero == s and s - zero == s and zero + s == s
        assert (s + 3).terms() == {1: 2, 0: 3, -1: 3}
        assert (3 + s) == s + 3 == s + K(3) == s + Poly(K, (3,))
        assert (s - K(2)).terms() == {1: 2, 0: 5, -1: 3}
        assert (s + 3).valid_order == (s - K(2)).valid_order == -4
        # a constant above the floor is known exactly; one below it is not
        assert (LaurentSeries.zero(K, 2) + 3) == LaurentSeries.zero(K, 2)

    def test_exact_operand_on_the_left_of_minus(self):
        K = FIELDS[7]
        s = LaurentSeries.from_terms(K, {1: 2, -1: 3}, -4)
        for c in (3, K(5), Poly(K, (1, 0, 4))):
            assert c - s == -(s - c)
        assert (3 - s).terms() == {1: 5, 0: 3, -1: 4}


class TestPrecisionRules:
    def test_add_takes_weaker_floor(self):
        K = FIELDS[5]
        a = LaurentSeries.from_terms(K, {0: 1}, -10)
        b = LaurentSeries.from_terms(K, {0: 1}, -4)
        assert (a + b).valid_order == -4

    def test_mul_floor(self):
        K = FIELDS[5]
        a = LaurentSeries.from_terms(K, {3: 1, -2: 2}, -7)   # top 3, floor -7
        b = LaurentSeries.from_terms(K, {1: 4}, -2)          # top 1, floor -2
        prod = a * b
        assert prod.valid_order == max(-7 + 1, -2 + 3)

    def test_division_floor_rule(self):
        # documented rule: V = max(V_a - top_b, V_b + top_a - 2*top_b)
        K = FIELDS[7]
        a = LaurentSeries.from_terms(K, {5: 1, 0: 3}, -9)
        b = LaurentSeries.from_terms(K, {2: 2, 1: 1}, -4)
        q = a / b
        assert q.valid_order == max(-9 - 2, -4 + 5 - 4)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_division_claims_are_conservative(self, data):
        # deepening the inputs must never change a term the result claimed
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]
        num = data.draw(polys(p, 0, 6))
        den = data.draw(polys(p, 0, 4))
        shallow_n = series_from_rational(num, den, -6)
        shallow_d = LaurentSeries.from_poly(den, -6)
        deep_n = series_from_rational(num, den, -40)
        deep_d = LaurentSeries.from_poly(den, -40)
        q1 = shallow_n / shallow_d
        q2 = deep_n / deep_d
        for e, c in q1.terms().items():
            assert q2.term(e).value == c
        for e in range(q1.valid_order, 3):
            assert q1.term(e) == q2.term(e)

    def test_division_claims_survive_tail_perturbation(self):
        # junk injected below both validity floors must not move any term
        # the quotient claimed; this exercises the second branch of the
        # division rule (leakage of the divisor's unknown tail)
        rng = random.Random(9)
        for _ in range(300):
            p = rng.choice((3, 5, 7))
            K = FIELDS[p]

            def rand_poly(dmax):
                d = rng.randint(0, dmax)
                return Poly(K, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])

            v_a, v_b = rng.randint(-12, -1), rng.randint(-12, -1)
            na, da, nb, db = rand_poly(6), rand_poly(3), rand_poly(4), rand_poly(3)
            a = series_from_rational(na, da, v_a)
            b = series_from_rational(nb, db, v_b)
            if b.is_zero_to_floor:
                continue
            claim = a / b
            at = series_from_rational(na, da, -60).terms()
            bt = series_from_rational(nb, db, -60).terms()
            for e in range(v_a - 6, v_a):
                at[e] = rng.randrange(p)
            for e in range(v_b - 6, v_b):
                bt[e] = rng.randrange(p)
            perturbed = LaurentSeries.from_terms(K, at, -60) / LaurentSeries.from_terms(
                K, bt, -60
            )
            for e in range(claim.valid_order, (claim.top_degree or claim.valid_order) + 1):
                assert claim.term(e) == perturbed.term(e)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mul_claims_are_conservative(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]
        num = data.draw(polys(p, 0, 5))
        den = data.draw(polys(p, 0, 3))
        other = data.draw(polys(p, 0, 4))
        shallow = series_from_rational(num, den, -5) * LaurentSeries.from_poly(other, -5)
        deep = series_from_rational(num, den, -35) * LaurentSeries.from_poly(other, -35)
        for e in range(shallow.valid_order, 8):
            assert shallow.term(e) == deep.term(e)

    def test_debug_rendering(self):
        K = FIELDS[3]
        s = LaurentSeries.from_terms(K, {1: 1, -3: 2}, -4)
        assert str(s) == "t + 2*t^-3 + O(t^-5)"
        assert str(LaurentSeries.zero(K, -2)) == "O(t^-3)"

    def test_truncation_only_weakens(self):
        K = FIELDS[3]
        s = LaurentSeries.from_terms(K, {0: 1, -5: 2}, -8)
        weaker = s.truncated(-3)
        assert weaker.valid_order == -3
        assert weaker.terms() == {0: 1}
        with pytest.raises(ValueError):
            s.truncated(-20)


class TestPolynomialPart:
    """`//` on windows: the polynomial part of a quotient, from the top
    (quotient length) terms of each window, or InsufficientPrecisionError."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_polynomial_division_or_refuses(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        a = data.draw(polys(p, 0, 12))
        b = data.draw(polys(p, 0, 8))
        floor_a, floor_b = data.draw(st.integers(-3, 13)), data.draw(st.integers(-3, 9))
        wa, wb = LaurentSeries.from_poly(a, floor_a), LaurentSeries.from_poly(b, floor_b)
        qlen = int(a.degree) - int(b.degree) + 1
        decided = (
            qlen <= 0 and floor_a <= b.degree
            or qlen > 0 and floor_a <= b.degree and floor_b <= 2 * b.degree - a.degree
        ) and floor_b <= b.degree
        if decided:
            assert wa // wb == a // b
            assert a // wb == a // b  # an exact dividend
        else:
            with pytest.raises(InsufficientPrecisionError):
                wa // wb

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_raw_floordiv_matches_the_method(self, data):
        # the engine's steps divide raw (floor, array) values; an exact one
        # has no floor and is taken at the other's, as `__rfloordiv__` does.
        # Decided, the quotient is the polynomial part of the windows'
        # quotient by the dict oracle; undecided, both refuse alike
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]
        top_a, top_b = data.draw(st.integers(-6, 12)), data.draw(st.integers(-6, 8))
        a = _random_series(data, K, top_a, top_a - data.draw(st.integers(-1, 14)))
        b = _random_series(data, K, top_b, top_b - data.draw(st.integers(-1, 10)))
        exact = data.draw(st.one_of(polys(p, 0, 10), st.just(Poly(K, ()))))
        at_b = LaurentSeries.from_poly(exact, b.valid_order)
        for x, y, raw, window in (
            (a, b, (a.valid_order, a.coeffs), a),
            (exact, b, (None, exact.coeffs), at_b),
        ):
            v_a, v_b = window.valid_order, b.valid_order
            qlen = (v_a + window.coeffs.size) - (v_b + b.coeffs.size) + 1
            shorter = min(window.coeffs.size, b.coeffs.size)
            decided = b.coeffs.size and (qlen <= 0 or shorter >= qlen)
            try:
                want = x // y
            except InsufficientPrecisionError as err:
                assert not decided
                with pytest.raises(InsufficientPrecisionError, match=str(err)):
                    series._raw_floordiv(raw, (v_b, b.coeffs), p)
            else:
                assert decided
                got = series._raw_floordiv(raw, (v_b, b.coeffs), p)
                assert np.array_equal(got, want.coeffs)
                num = {e - v_a: c for e, c in window.terms().items()}
                den = {e - v_b: c for e, c in b.terms().items()}
                oracle = rseries(num, den, p, v_b - v_a)
                assert poly_dict(want) == {e + v_a - v_b: c for e, c in oracle.items()}

    def test_zero_window_divisor_is_undecided(self):
        K = FIELDS[5]
        with pytest.raises(InsufficientPrecisionError):
            LaurentSeries.from_poly(K.T, -3) // LaurentSeries.zero(K, -2)
        assert Poly(K, ()) // LaurentSeries.from_poly(K.T, 0) == Poly(K, ())


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_from_rational_matches_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        num = data.draw(polys(p, 0, 8))
        den = data.draw(polys(p, 0, 5))
        order = data.draw(st.integers(-20, 0))
        s = series_from_rational(num, den, order)
        expected = rseries(poly_dict(num), poly_dict(den), p, order)
        assert s.terms() == expected


class TestLayoutEdges:
    """Floors from -40 to 10, positive ones and empty windows included,
    with every operation checked term by term against dict arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_dict_arithmetic(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]

        def top(terms, v):
            return max(terms) if terms else v - 1

        def draw():
            v = data.draw(st.integers(-40, 10))
            last = v + data.draw(st.integers(-1, 30))  # v - 1: an empty window
            raw = data.draw(st.dictionaries(
                st.integers(v - 5, max(last, v - 1)), st.integers(0, 3 * p), max_size=12
            ))
            s = LaurentSeries.from_terms(K, raw, v)
            want = {e: c % p for e, c in raw.items() if e >= v and c % p}
            assert s.terms() == want and s.valid_order == v
            window = [want.get(e, 0) for e in range(top(want, v), v - 1, -1)]
            assert LaurentSeries(K, top(want, v), window, v) == s
            return s, want, v

        def check(got, terms, v):
            assert got.valid_order == v
            assert got.terms() == {e: c for e, c in terms.items() if e >= v}

        a, ta, va = draw()
        b, tb, vb = draw()
        check(a + b, radd(ta, tb, p), max(va, vb))
        check(a - b, rsub(ta, tb, p), max(va, vb))
        check(a * b, rmul(ta, tb, p), max(va + top(tb, vb), vb + top(ta, va)))

        c = data.draw(st.one_of(polys(p, 0, 6), st.just(Poly(K, ()))))
        tc, d = poly_dict(c), c.coeffs.size - 1
        for prod in (a * c, c * a):
            check(prod, rmul(ta, tc, p), va + max(d, 0))
        check(a + c, radd(ta, tc, p), va)
        check(c - a, rsub(tc, ta, p), va)
        if not c.is_zero:
            check(a / c, rseries(ta, tc, p, va - d), va - d)

        check(a.frobenius(), {p * e: x for e, x in ta.items()}, p * (va - 1) + 1)
        check(LaurentSeries.zero(K, va).frobenius(), {}, p * (va - 1) + 1)
        above = data.draw(st.integers(va, top(ta, va) + 5))  # up to past the top
        check(a.truncated(above), ta, above)
        for floor in (data.draw(st.integers(-10, 10)), d + 1 + data.draw(st.integers(0, 3))):
            check(LaurentSeries.from_poly(c, floor), tc, floor)
        if va <= 0:
            integer_part = {e: x for e, x in ta.items() if e >= 0}
            assert poly_dict(a.polynomial_part()) == integer_part
            assert poly_dict(a.truncated(0).polynomial_part()) == integer_part


def _assert_same_series(got, want):
    assert got.valid_order == want.valid_order
    assert got.top_degree == want.top_degree
    assert np.array_equal(got.coeffs, want.coeffs)


def _random_series(data, K, top, floor):
    size = max(0, top - floor + 1)
    coeffs = data.draw(st.lists(st.integers(0, K.p - 1), min_size=size, max_size=size))
    return LaurentSeries(K, top, coeffs, floor)


class TestTrimmedProduct:
    """The product multiplies only the terms that reach its floor; the
    untrimmed product of whole windows is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_untrimmed(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        K = FIELDS[p]
        top_a = data.draw(st.integers(-20, 20))
        a = _random_series(data, K, top_a, top_a - data.draw(st.integers(-1, 300)))
        top_b = data.draw(st.integers(-20, 20))
        # floors from equal to far apart, and empty windows (length 0)
        b = _random_series(data, K, top_b, top_b - data.draw(st.integers(-1, 300)))
        for x, y in ((a, b), (b, a)):
            _assert_same_series(x * y, untrimmed_series_mul(x, y))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_deep_polynomial_factor(self, data):
        # Horner's first product in eval_at_series: a short polynomial
        # padded to a floor ten times deeper than the series it multiplies
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        K = FIELDS[p]
        depth = data.draw(st.integers(1, 40))
        poly = data.draw(polys(p, 0, 12))
        alpha = _random_series(data, K, data.draw(st.integers(-3, 3)), -depth)
        padded = LaurentSeries.from_poly(poly, -10 * depth)
        _assert_same_series(padded * alpha, untrimmed_series_mul(padded, alpha))
        _assert_same_series(alpha * padded, untrimmed_series_mul(alpha, padded))

    @pytest.mark.parametrize("p", (3, 13))
    def test_zero_to_floor_factor(self, p):
        K = FIELDS[p]
        zero = LaurentSeries.zero(K, -50)
        other = LaurentSeries.from_poly(K.T ** 3 + 1, -500)
        for x, y in ((zero, other), (other, zero)):
            got = x * y
            _assert_same_series(got, untrimmed_series_mul(x, y))
            assert got.is_zero_to_floor

    @pytest.mark.parametrize("p", (7, 13))
    def test_long_windows(self, p):
        # windows long enough that both products take the FFT kernel
        K = FIELDS[p]
        rng = random.Random(p)
        a = LaurentSeries(K, 5, [rng.randrange(1, p) for _ in range(3000)], -2994)
        b = LaurentSeries(K, 2, [rng.randrange(p) for _ in range(400)], -397)
        poly = Poly(K, [rng.randrange(p) for _ in range(30)] + [1])
        padded = LaurentSeries.from_poly(poly, -30000)
        for x, y in ((a, b), (b, a), (padded, a), (a, padded)):
            _assert_same_series(x * y, untrimmed_series_mul(x, y))


class TestRawMul:
    """`_raw_mul` takes any two raw values: exact by exact is the Poly
    product, with no floor, and an exact factor on either side of a
    series gives the series product, at floor V + deg (a constant keeps
    V)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_poly_series_and_dict_products(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        K = FIELDS[p]
        exact = st.one_of(polys(p, 0, 12), st.just(Poly(K, ())))
        c, d = data.draw(exact), data.draw(exact)
        top = data.draw(st.integers(-6, 6))
        s = _random_series(data, K, top, top - data.draw(st.integers(-1, 40)))
        spectra = data.draw(st.sampled_from((None, {})))
        v, got = series._raw_mul((None, c.coeffs), (None, d.coeffs), p, spectra)
        assert v is None and np.array_equal(got, (c * d).coeffs)
        assert {e: int(x) for e, x in enumerate(got) if x} == rmul(poly_dict(c), poly_dict(d), p)
        floor = s.valid_order + max(c.coeffs.size - 1, 0)
        want = {e: x for e, x in rmul(s.terms(), poly_dict(c), p).items() if e >= floor}
        for a, b in (((s.valid_order, s.coeffs), (None, c.coeffs)),
                     ((None, c.coeffs), (s.valid_order, s.coeffs))):
            v, got = series._raw_mul(a, b, p, spectra)
            assert v == floor
            product = LaurentSeries._raw(K, v, got)
            _assert_same_series(product, s * c)
            assert product.terms() == want


class TestExactOperands:
    """An int, FieldElement or Poly operand is exact: the sum keeps the
    series' floor V, the product is known down to V + deg and the
    quotient down to V - deg.  The former idiom, the polynomial as a
    series padded to a deep floor, is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_deep_floor_idiom(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        K = FIELDS[p]
        top = data.draw(st.integers(-5, 5))
        s = _random_series(data, K, top, top - data.draw(st.integers(-1, 60)))
        c = data.draw(st.one_of(polys(p, 0, 12), st.just(Poly(K, ()))))
        padded = LaurentSeries.from_poly(c, s.valid_order - 10 * (abs(top) + 70))
        for operand in (c, c.coefficient(0), int(c.coefficient(0).value)):
            exact = Poly(K, (operand,)) if not isinstance(operand, Poly) else c
            deep = LaurentSeries.from_poly(exact, padded.valid_order)
            _assert_same_series(s + operand, s + deep)
            _assert_same_series(s - operand, s - deep)
            _assert_same_series(operand - s, deep - s)
            if exact.is_zero:
                # an exact zero keeps the floor, like the scalar 0
                for prod in (s * operand, operand * s):
                    assert prod.is_zero_to_floor and prod.valid_order == s.valid_order
                with pytest.raises(ZeroDivisionError):
                    s / operand
                continue
            for prod in (s * operand, operand * s):
                _assert_same_series(prod, s * deep)
            _assert_same_series(s / operand, s / deep)
