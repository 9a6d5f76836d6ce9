from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercf.algebra as algebra
import hypercf.cf as cf
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
from hypercf.cf import prefixed_continuants
from reference import fold_continuants, poly_dict, rcontinuants


def _fault_at(k: int, calls: list):
    """algebra._mul_arrays with its k-th product off by one in the constant
    term; a zero product comes back as the constant 1."""
    exact = algebra._mul_arrays

    def faulty(a, b, p, spectra=None):
        out = exact(a, b, p, spectra)
        calls.append(1)
        if len(calls) == k:
            if out.size == 0:
                return np.ones(1, dtype=np.int64)
            out = out.copy()
            out[0] = (out[0] + 1) % p
        return out

    return faulty


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
            x3, y3, x2, y2 = continuants(PartialQuotients([u1 * T, u2 * T, u3 * T]))
            assert x3 == (u1 * u2 * u3 % p) * T ** 3 + ((u1 + u3) % p) * T
            assert y3 == (u2 * u3 % p) * T ** 2 + 1
            assert x2 == (u1 * u2 % p) * T ** 2 + 1
            assert y2 == u2 * T

    def test_initial_conditions(self):
        K = FIELDS[5]
        x1, y1, x0, y0 = continuants(PartialQuotients([K.T]))
        assert x1 == K.T and y1 == Poly(K, (1,))
        assert x0 == Poly(K, (1,)) and y0 == Poly(K, ())

    def test_four_ts_at_p3(self):
        K = FIELDS[3]
        T = K.T
        x4, y4, _, _ = continuants(PartialQuotients([T, T, T, T]))
        assert x4 == T ** 4 + 1
        assert y4 == T ** 3 + 2 * T

    def test_rejects_mixed_fields(self):
        pqs = PartialQuotients([FIELDS[5].T] * 200 + [FIELDS[7].T])
        with pytest.raises(ValueError, match="field mismatch"):
            continuants(pqs)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_determinant_identity(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p))
        K = FIELDS[p]
        for n in range(1, len(pqs) + 1):
            x, y, x_prev, y_prev = continuants(pqs[:n])
            assert x * y_prev - x_prev * y == Poly(K, ((-1) ** n,))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p))
        ref = rcontinuants([poly_dict(a) for a in pqs], p)
        assert len(ref) == len(pqs)
        for n, (rx, ry) in enumerate(ref, start=1):
            x, y, _, _ = continuants(pqs[:n])
            assert poly_dict(x) == rx
            assert poly_dict(y) == ry

    @pytest.mark.parametrize("stream", ("p7 n_5", "[T]*3000 at p=3"))
    def test_matches_the_fold_at_depth(self, stream):
        # a tree of many levels, its deepest quotient (degree 33613) a leaf
        # of its own, against the former left fold
        if stream == "p7 n_5":
            pqs = pattern(build_spec(FIELDS[7], (2, 4, 5)), pattern_position(7, 5))
        else:
            pqs = PartialQuotients([FIELDS[3].T] * 3000)
        assert continuants(pqs) == fold_continuants(pqs)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_deep_trees_match_reference(self, data):
        # with the leaf bound at 2 every run of degree sum above 2 splits,
        # so lists of a few quotients build trees several levels deep
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p, max_len=24))
        ref = rcontinuants([poly_dict(a) for a in pqs], p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cf, "_FFT_MIN_LEN", 2)
            x, y, x_prev, y_prev = continuants(pqs)
        assert (poly_dict(x), poly_dict(y)) == ref[-1]
        prev = ref[-2] if len(ref) > 1 else ({0: 1}, {})
        assert (poly_dict(x_prev), poly_dict(y_prev)) == prev


class TestContinuantChecks:
    # eight short quotients, one leaf: 14 products in the recurrence, 2 in
    # the final check
    QUOTIENTS = 8
    # thirteen quotients of degrees 40 (six), 200, 40 (six): leaves of 3, 3,
    # 1, 3 and 3 quotients under a tree of 4 nodes, so 4*4 products in the
    # leaves, 4*8 in the nodes and 2 in the final check
    TREE_DEGREES = (40,) * 6 + (200,) + (40,) * 6
    TREE_PRODUCTS = 50

    def _stream(self):
        K = FIELDS[7]
        T = K.T
        return PartialQuotients(
            [(n % 6 + 1) * T ** (n % 3 + 1) + n for n in range(self.QUOTIENTS)]
        )

    def _tree_stream(self):
        rng = np.random.default_rng(40)
        return PartialQuotients(
            Poly(FIELDS[7], rng.integers(0, 7, d).tolist() + [1 + d % 6])
            for d in self.TREE_DEGREES
        )

    @pytest.mark.parametrize("k", range(1, 2 * QUOTIENTS + 1))
    def test_single_faulty_product_is_caught(self, monkeypatch, k):
        pqs, calls = self._stream(), []
        monkeypatch.setattr(algebra, "_mul_arrays", _fault_at(k, calls))
        with pytest.raises(RuntimeError, match=f"n={self.QUOTIENTS}"):
            continuants(pqs)
        assert len(calls) == 2 * self.QUOTIENTS

    @pytest.mark.parametrize("k", range(1, TREE_PRODUCTS + 1))
    def test_single_faulty_tree_product_is_caught(self, monkeypatch, k):
        # every product of a three-level tree, in leaves and nodes alike;
        # the single-quotient leaf's y' = 0 enters two node products
        pqs, calls = self._tree_stream(), []
        monkeypatch.setattr(algebra, "_mul_arrays", _fault_at(k, calls))
        with pytest.raises(RuntimeError, match=f"n={len(pqs)}"):
            continuants(pqs)
        assert len(calls) == self.TREE_PRODUCTS

    @pytest.mark.parametrize("stream", ("pattern", "tree"))
    def test_product_count_is_exact(self, monkeypatch, stream):
        # 2 products per folded quotient after each leaf's first, 8 per
        # node and 2 for the final check; a determinant check at every
        # step or node would add 2 per step or node
        if stream == "pattern":
            pqs = pattern(build_spec(FIELDS[7], (2, 4, 5)), 65)
        else:
            pqs = self._tree_stream()
        fold, exact = cf._fold, algebra._mul_arrays
        leaves, calls = [], []

        def recording(items, p):
            leaves.append(len(items))
            return fold(items, p)

        def counting(a, b, p, spectra=None):
            calls.append(1)
            return exact(a, b, p, spectra)

        monkeypatch.setattr(cf, "_fold", recording)
        monkeypatch.setattr(algebra, "_mul_arrays", counting)
        result, products = continuants(pqs), len(calls)
        assert sum(leaves) == len(pqs) and len(leaves) > 2
        assert products == 2 * (len(pqs) - len(leaves)) + 8 * (len(leaves) - 1) + 2
        assert result == fold_continuants(pqs)
        if stream == "tree":
            assert leaves == [3, 3, 1, 3, 3]

    def test_node_transforms_each_operand_once(self, monkeypatch):
        # 300 random linear quotients: the root's halves split again into
        # leaves of 75, so only the root's operands (149 to 151 terms) reach
        # the FFT, and its eight products share one transform length
        rng = np.random.default_rng(16)
        K, p = FIELDS[7], 7
        pqs = PartialQuotients(
            Poly(K, (int(c), int(d))) for c, d in zip(rng.integers(0, 7, 300), rng.integers(1, 7, 300))
        )
        arrays, sums = [a.coeffs for a in pqs], list(range(301))
        halves = cf._product(arrays, sums, 0, 150, p) + cf._product(arrays, sums, 150, 300, p)
        assert min(h.size for h in halves) >= algebra._FFT_MIN_LEN
        rfft, irfft, transformed, inverted = np.fft.rfft, np.fft.irfft, [], []

        def counting_rfft(x, n):
            transformed.append(x.copy())
            return rfft(x, n)

        def counting_irfft(x, n):
            inverted.append(n)
            return irfft(x, n)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        root = cf._product(arrays, sums, 0, 300, p)
        monkeypatch.undo()
        assert len(inverted) == 8 and len(set(inverted)) == 1
        operands = sorted(algebra._balanced(h, p).tobytes() for h in halves)
        assert sorted(x.tobytes() for x in transformed) == operands
        assert len(set(operands)) == 8
        assert tuple(Poly._raw(K, c) for c in root) == continuants(pqs) == fold_continuants(pqs)

    def test_prefixed_pair_is_the_whole_streams(self):
        pqs = self._stream()
        tail = PartialQuotients(pqs.items[3:])
        full, pair = prefixed_continuants(pqs.items[:3], tail)
        assert full == continuants(pqs) and pair == continuants(tail)

    @pytest.mark.parametrize("k", range(1, 2 * QUOTIENTS + 3))
    def test_single_faulty_prefixed_product_is_caught(self, monkeypatch, k):
        # 8 + 2 products for the five-quotient tail, 6 + 2 for the prefix
        pqs = self._stream()
        monkeypatch.setattr(algebra, "_mul_arrays", _fault_at(k, []))
        with pytest.raises(RuntimeError, match="determinant identity failed"):
            prefixed_continuants(pqs.items[:3], PartialQuotients(pqs.items[3:]))

    @pytest.mark.parametrize("p, u, k", [(7, (2, 4, 5), 3), (11, (3, 10, 5), 2)])
    def test_pattern_streams(self, p, u, k):
        # the stream through its k-th large quotient, n_k
        count = pattern_position(p, k)
        pqs = pattern(build_spec(FIELDS[p], u), count)
        assert len(pqs) == count
        x, y, x_prev, y_prev = continuants(pqs)
        ref = rcontinuants([poly_dict(a) for a in pqs], p)
        assert (poly_dict(x), poly_dict(y)) == ref[-1]
        assert (poly_dict(x_prev), poly_dict(y_prev)) == ref[-2]
        assert rational_to_cf(x, y) == pqs


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
        x, y, _, _ = continuants(pqs)
        assert rational_to_cf(x, y) == pqs

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
        x, y, _, _ = continuants(pqs)
        assert rational_to_cf(x, y) == pqs


class TestCfToSeries:
    def test_finite_expansion(self):
        K = FIELDS[5]
        T = K.T
        x, y, _, _ = continuants(PartialQuotients([T, T]))
        s = series_from_rational(x, y, -5)
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

    def test_keeps_one_convergent_in_flight(self):
        # the p=7 (2,4,5) stream through n_4: one pair per tree level may
        # be held, not every convergent of the stream
        pqs = pattern(build_spec(FIELDS[7], (2, 4, 5)), pattern_position(7, 4))
        order = convergent_validity_floor(pqs)
        tracemalloc.start()
        try:
            cf_to_series(pqs, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_convergent_accuracy(self, data):
        # deg(alpha - x_n/y_n) = -deg(y_n) - deg(y_{n+1}), observed through
        # series subtraction against a deeper prefix of the same expansion
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p, max_len=6, max_degree=2))
        if len(pqs) < 3:
            return
        n = len(pqs) - 2
        _, y_next, x_n, y_n = continuants(pqs[: n + 1])
        deg_err = -int(y_n.degree) - int(y_next.degree)
        order = convergent_validity_floor(pqs)
        alpha = cf_to_series(pqs, order)
        approx = series_from_rational(x_n, y_n, order)
        diff = alpha - approx
        if deg_err >= order:
            assert diff.top_degree == deg_err
