from __future__ import annotations

import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercf import InsufficientPrecisionError, LaurentSeries, Poly, algebra, series, series_from_rational
from hypercf.algebra import _EMPTY, _trim

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
        assert quotient.truncated(0).terms() == {1: 1}  # the integer part t
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
        # refuses it; a series has no `//` at all
        for op in (lambda: s + 2.5, lambda: s * "3", lambda: s / 2.5,
                   lambda: 2.5 - s, lambda: s // 3, lambda: K.T // s):
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
    """`_raw_div` at its edges: a quotient with no terms, and a divisor of
    unknown degree."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_division_is_the_quotient_from_its_floor(self, data):
        # a/b from its floor is the dict oracle's quotient of the operands
        # with any terms below their floors: two series, or an exact
        # divisor; an exact dividend, zero included, is refused
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]
        kind = data.draw(st.sampled_from(("series", "exact dividend", "exact divisor")))
        top_a, top_b = data.draw(st.integers(-6, 12)), data.draw(st.integers(-6, 8))
        a = _random_series(data, K, top_a, top_a - data.draw(st.integers(-1, 14)))
        b = _random_series(data, K, top_b, top_b - data.draw(st.integers(0, 10)))

        def deepened(s):  # s's terms over random ones below its floor
            junk = data.draw(st.lists(st.integers(0, p - 1), max_size=6))
            return {**{s.valid_order - 1 - i: c for i, c in enumerate(junk) if c}, **s.terms()}

        num, den = deepened(a), deepened(b)
        raw_a, raw_b = (a.valid_order, a.coeffs), (b.valid_order, b.coeffs)
        if kind == "exact dividend":
            exact = data.draw(st.one_of(polys(p, 0, 10), st.just(Poly(K, ()))))
            error = TypeError if b.coeffs.size else InsufficientPrecisionError
            with pytest.raises(error):
                series._raw_div((None, exact.coeffs), raw_b, p)
            return
        elif kind == "exact divisor":
            exact = data.draw(polys(p, 0, 8))
            den, raw_b = poly_dict(exact), (None, exact.coeffs)
        if not raw_b[1].size:
            with pytest.raises(InsufficientPrecisionError):
                series._raw_div(raw_a, raw_b, p)
            return
        v, q = series._raw_div(raw_a, raw_b, p)
        quotient = {v + i: int(c) for i, c in enumerate(q) if c}
        assert quotient == rseries(num, den, p, v)

    def test_zero_over_a_window_below_zero_is_zero(self):
        # (0 known from 0) / (1*T^-2 known from -2): no terms, from the
        # floor max(0 + 2, -2 - 1 + 4) = 2
        K = FIELDS[5]
        quotient = LaurentSeries.zero(K, 0) / LaurentSeries.from_terms(K, {-2: 1}, -2)
        assert quotient.is_zero_to_floor and quotient.valid_order == 2

    def test_zero_window_divisor_is_undecided(self):
        K = FIELDS[5]
        with pytest.raises(InsufficientPrecisionError):
            series._raw_div(
                (-3, series._cut((None, K.T.coeffs), -3)), (-2, np.zeros(0, dtype=np.int64)), 5
            )


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


class TestCut:
    """`_cut` reads a series' window from one exponent up, at or above its
    floor; nothing is known below it."""

    def test_below_the_floor_raises(self):
        with pytest.raises(InsufficientPrecisionError, match="a cut at 7 is below the floor 10"):
            series._cut((10, np.arange(6)), 7)

    def test_at_and_above_the_floor(self):
        window = np.arange(6)
        assert series._cut((10, window), 10) is window
        for v in range(11, 18):
            assert np.array_equal(series._cut((10, window), v), window[v - 10 :])
        assert series._cut((10, window), 16).size == 0


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
        v, got = series._raw_mul((None, c.coeffs), (None, d.coeffs), p)
        assert v is None and np.array_equal(got, (c * d).coeffs)
        assert {e: int(x) for e, x in enumerate(got) if x} == rmul(poly_dict(c), poly_dict(d), p)
        floor = s.valid_order + max(c.coeffs.size - 1, 0)
        want = {e: x for e, x in rmul(s.terms(), poly_dict(c), p).items() if e >= floor}
        for a, b in (((s.valid_order, s.coeffs), (None, c.coeffs)),
                     ((None, c.coeffs), (s.valid_order, s.coeffs))):
            v, got = series._raw_mul(a, b, p)
            assert v == floor
            product = LaurentSeries._raw(K, v, got)
            _assert_same_series(product, s * c)
            assert product.terms() == want


    @staticmethod
    def _raw_value(data, p: int):
        """An exact value or a series window, at a floor from -300 to 40,
        empty a quarter of the time, else of up to 2*_FFT_MIN_LEN + 20
        terms: long factors take the FFT product."""
        size = data.draw(st.one_of(
            st.just(0), st.integers(1, 6), st.integers(1, 2 * algebra._FFT_MIN_LEN + 20)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        arr = _trim(np.random.default_rng(seed).integers(0, p, size).astype(np.int64))
        floor = data.draw(st.one_of(st.none(), st.integers(-300, 40)))
        return floor, arr

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_addend_matches_product_then_sum(self, data):
        # a*b + c in one call is the product, then the sum, in floor and
        # array, for every mix of exact values and windows, exact x exact
        # and an exact zero addend included
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        a, b, c = (self._raw_value(data, p) for _ in range(3))
        if data.draw(st.booleans()):
            c = (None, _EMPTY)
        v, got = series._raw_mul(a, b, p, c)
        floor, want = series._raw_add(series._raw_mul(a, b, p), c, p)
        assert v == floor and np.array_equal(got, want)

    def test_addend_on_the_object_convolution(self, monkeypatch):
        # at p = 2^31 - 1 a product of two factors of two terms or more
        # passes int64's exact range, and its addend joins it there
        p = 2147483647
        a = (-3, np.array([p - 1, p - 2, 5, p - 1], dtype=np.int64))
        b = (None, np.array([p - 1, 7, p - 1], dtype=np.int64))
        c = (-2, np.array([p - 1] * 6, dtype=np.int64))
        addends = []
        real = algebra._convolve

        def convolve(x, y, q, *addend):
            addends.append(addend)
            return real(x, y, q, *addend)

        monkeypatch.setattr(algebra, "_convolve", convolve)
        v, got = series._raw_mul(a, b, p, c)
        monkeypatch.undo()
        assert len(addends) == 1 and addends[0][0].size
        assert (p - 1) * ((p - 1) * 2 + 1) >= 1 << 62  # the object-dtype path
        floor, want = series._raw_add(series._raw_mul(a, b, p), c, p)
        assert v == floor == -1 and np.array_equal(got, want)
        product = rmul({a[0] + i: int(x) for i, x in enumerate(a[1])},
                       {i: int(x) for i, x in enumerate(b[1])}, p)
        total = radd(product, {c[0] + i: int(x) for i, x in enumerate(c[1])}, p)
        assert {v + i: int(x) for i, x in enumerate(got) if x} == {
            e: x for e, x in total.items() if e >= v}


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
