from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercf.algebra as algebra
from hypercf import (
    InsufficientPrecisionError,
    PartialQuotients,
    Poly,
    build_spec,
    cf_to_series,
    continuants,
    convergent_validity_floor,
    fibonacci_poly,
    pattern,
    pattern_position,
    rational_to_cf,
    series_from_rational,
)

from conftest import FIELDS, quotient_lists
from reference import poly_dict, rcontinuants


class TestPartialQuotients:
    def test_rejects_constant_quotients(self):
        K = FIELDS[5]
        with pytest.raises(ValueError, match="degree >= 1"):
            PartialQuotients([K.T, Poly(K, (2,))])
        with pytest.raises(ValueError, match="degree >= 1"):
            PartialQuotients([Poly(K, ())])

    def test_one_based_access(self):
        K = FIELDS[5]
        pqs = PartialQuotients([K.T, 2 * K.T, 3 * K.T])
        assert pqs.quotient(1) == K.T
        assert pqs.quotient(3) == 3 * K.T
        with pytest.raises(IndexError):
            pqs.quotient(0)
        assert pqs.tail(2) == PartialQuotients([2 * K.T, 3 * K.T])

    def test_first_difference(self):
        K = FIELDS[5]
        a = PartialQuotients([K.T, 2 * K.T, 3 * K.T])
        b = PartialQuotients([K.T, 4 * K.T, 3 * K.T])
        assert a.first_difference(b) == 2
        assert a.first_difference(a) is None


class TestContinuants:
    def test_unit_triple_shape(self):
        # x3 = u1*u2*u3*t^3 + (u1+u3)*t, y3 = u2*u3*t^2 + 1
        for p, (u1, u2, u3) in ((7, (2, 4, 5)), (5, (1, 3, 2)), (3, (2, 2, 1))):
            K = FIELDS[p]
            T = K.T
            conv = continuants(PartialQuotients([u1 * T, u2 * T, u3 * T]))
            assert conv[2].x == (u1 * u2 * u3 % p) * T ** 3 + ((u1 + u3) % p) * T
            assert conv[2].y == (u2 * u3 % p) * T ** 2 + 1
            assert conv[1].x == (u1 * u2 % p) * T ** 2 + 1
            assert conv[1].y == u2 * T

    def test_initial_conditions(self):
        K = FIELDS[5]
        conv = continuants(PartialQuotients([K.T]))
        assert conv[0].x == K.T and conv[0].y == Poly(K, (1,))
        assert conv[0].n == 1

    def test_four_ts_at_p3(self):
        K = FIELDS[3]
        T = K.T
        conv = continuants(PartialQuotients([T, T, T, T]))
        assert conv[3].x == T ** 4 + 1
        assert conv[3].y == T ** 3 + 2 * T

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_determinant_identity(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p))
        conv = continuants(pqs)
        K = FIELDS[p]
        x_prev, y_prev = Poly(K, (1,)), Poly(K, ())
        for pair in conv:
            det = pair.x * y_prev - x_prev * pair.y
            assert det == Poly(K, ((-1) ** pair.n,))
            x_prev, y_prev = pair.x, pair.y

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p))
        ours = continuants(pqs)
        ref = rcontinuants([poly_dict(a) for a in pqs], p)
        for pair, (rx, ry) in zip(ours, ref):
            assert poly_dict(pair.x) == rx
            assert poly_dict(pair.y) == ry


class TestContinuantChecks:
    # eight quotients: 14 products in the recurrence, 2 in the final check
    QUOTIENTS = 8

    def _stream(self):
        K = FIELDS[7]
        T = K.T
        return PartialQuotients(
            [(n % 6 + 1) * T ** (n % 3 + 1) + n for n in range(self.QUOTIENTS)]
        )

    @pytest.mark.parametrize("k", range(1, 2 * QUOTIENTS + 1))
    def test_single_faulty_product_is_caught(self, monkeypatch, k):
        pqs = self._stream()
        exact = algebra._mul_arrays
        calls = []

        def faulty(a, b, p):
            # the k-th product comes back off by one in its constant term
            out = exact(a, b, p)
            calls.append(1)
            if len(calls) == k:
                out = out.copy()
                out[0] = (out[0] + 1) % p
            return out

        monkeypatch.setattr(algebra, "_mul_arrays", faulty)
        with pytest.raises(RuntimeError, match=f"n={self.QUOTIENTS}"):
            continuants(pqs)
        assert len(calls) == 2 * self.QUOTIENTS

    def test_two_products_per_quotient(self, monkeypatch):
        # the recurrence needs two products per step and the final check two
        # more; a determinant check at every step would double that
        pqs = pattern(build_spec(FIELDS[7], (2, 4, 5)), 65)
        exact = algebra._mul_arrays
        calls = []

        def counting(a, b, p):
            calls.append(1)
            return exact(a, b, p)

        monkeypatch.setattr(algebra, "_mul_arrays", counting)
        continuants(pqs)
        assert len(calls) <= 2 * len(pqs)

    @pytest.mark.parametrize("p, u, k", [(7, (2, 4, 5), 3), (11, (3, 10, 5), 2)])
    def test_pattern_streams(self, p, u, k):
        # the stream through its k-th large quotient, n_k
        count = pattern_position(p, k)
        pqs = pattern(build_spec(FIELDS[p], u), count)
        assert len(pqs) == count
        last = continuants(pqs)[-1]
        rx, ry = rcontinuants([poly_dict(a) for a in pqs], p)[-1]
        assert last.n == count
        assert poly_dict(last.x) == rx
        assert poly_dict(last.y) == ry
        assert rational_to_cf(last.x, last.y) == pqs


class TestRationalToCf:
    def test_fibonacci_quotients(self):
        K = FIELDS[7]
        f5, f4 = fibonacci_poly(K, 5), fibonacci_poly(K, 4)
        assert rational_to_cf(f5, f4) == PartialQuotients([K.T] * 5)

    def test_one_division_step(self):
        K = FIELDS[5]
        T = K.T
        assert rational_to_cf(T * T + 1, T) == PartialQuotients([T, T])

    def test_inverts_continuants(self):
        K = FIELDS[7]
        T = K.T
        pqs = PartialQuotients([2 * T, 4 * T, 5 * T])
        conv = continuants(pqs)[-1]
        assert rational_to_cf(conv.x, conv.y) == pqs

    def test_rejects_proper_fraction(self):
        K = FIELDS[5]
        with pytest.raises(ValueError, match="non-constant"):
            rational_to_cf(K.T, K.T ** 2)

    def test_zero_denominator(self):
        K = FIELDS[5]
        with pytest.raises(ZeroDivisionError):
            rational_to_cf(K.T ** 2, Poly(K, ()))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_roundtrip(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p))
        conv = continuants(pqs)[-1]
        assert rational_to_cf(conv.x, conv.y) == pqs


class TestCfToSeries:
    def test_finite_expansion(self):
        K = FIELDS[5]
        T = K.T
        s = cf_to_series(PartialQuotients([T, T]), -5, complete=True)
        assert s.terms() == {1: 1, -1: 1}

    def test_pattern_prefix_p3(self):
        K = FIELDS[3]
        T = K.T
        pqs = PartialQuotients([T, T, T, T, T ** 5 + T ** 3])
        s = cf_to_series(pqs, -9)
        assert s.terms() == {1: 1, -1: 1, -3: 2, -5: 2, -7: 2, -9: 2}

    def test_single_quotient(self):
        K = FIELDS[7]
        s = cf_to_series(PartialQuotients([3 * K.T]), 0)
        assert s.terms() == {1: 3}

    def test_insufficient_quotients(self):
        K = FIELDS[3]
        pqs = PartialQuotients([K.T, K.T])
        assert convergent_validity_floor(pqs) == -2
        with pytest.raises(InsufficientPrecisionError, match="insufficient"):
            cf_to_series(pqs, -3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_convergent_accuracy(self, data):
        # deg(alpha - x_n/y_n) = -deg(y_n) - deg(y_{n+1}), observed through
        # series subtraction against a deeper prefix of the same expansion
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p, max_len=6, max_degree=2))
        if len(pqs) < 3:
            return
        conv = continuants(pqs)
        n = len(pqs) - 2
        x_n, y_n = conv[n - 1].x, conv[n - 1].y
        deg_err = -int(conv[n - 1].y.degree) - int(conv[n].y.degree)
        order = convergent_validity_floor(pqs)
        alpha = cf_to_series(pqs, order)
        approx = series_from_rational(x_n, y_n, order)
        diff = alpha - approx
        if deg_err >= order:
            assert diff.top_degree == deg_err
