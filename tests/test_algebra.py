from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercf import NEG_INFINITY, Poly, PrimeField, algebra, is_prime
from hypercf.algebra import _convolve, _divmod_arrays, _fft_product, _mul_arrays, _trim

from conftest import FIELDS, polys
from reference import poly_dict, rdivmod, rmul, schoolbook_divmod


class TestPrimeField:
    def test_rejects_non_primes(self):
        for bad in (0, 1, 2, 4, 9, 15, 21):
            with pytest.raises(ValueError, match="odd prime"):
                PrimeField(bad)

    def test_rejects_moduli_from_two_to_the_31(self):
        # 2147483659 is the least prime above 2^31
        assert is_prime(2147483659)
        for bad in (1 << 31, 2147483659, (1 << 61) - 1):
            with pytest.raises(ValueError, match="below 2\\^31 = 2147483648"):
                PrimeField(bad)

    def test_is_prime_past_the_modulus_bound(self):
        # 3215031751 = 151 * 751 * 28351 is the least strong pseudoprime to
        # the bases 2, 3, 5 and 7
        assert not is_prime(3215031751)
        assert is_prime((1 << 61) - 1) and not is_prime((1 << 61) + 1)

    def test_accepts_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 101, 2**31 - 1):
            assert PrimeField(p).p == p

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)


class TestFieldElement:
    def test_inverse_examples(self):
        K = FIELDS[7]
        assert K(6).inverse() == K(6)  # 6*6 = 36 = 1 mod 7
        assert K(1).inverse() == K(1)
        assert (K(4) * K(5)).inverse() == K(6)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            FIELDS[7](0).inverse()

    def test_arithmetic_closure(self):
        K = FIELDS[5]
        a, b = K(3), K(4)
        assert (a + b).value == 2
        assert (a - b).value == 4
        assert (a * b).value == 2
        assert (a / b).value == (3 * pow(4, 3, 5)) % 5
        assert (-a).value == 2
        assert (a ** 3).value == 2

    def test_int_coercion(self):
        K = FIELDS[7]
        assert (K(3) + 11) == K(0)
        assert (2 * K(4)) == K(1)
        assert K(np.int64(-9)) == K(-2) == K(K(5)) == K(5)
        assert K(True) == K(1) and K(3) + np.int64(5) == K(1)

    def test_rejects_what_is_not_a_residue(self):
        K = FIELDS[7]
        for bad in (2.5, "3", np.float64(2.0)):
            with pytest.raises(TypeError):
                K(bad)
        with pytest.raises(ValueError, match="field mismatch"):
            K(FIELDS[5](3))

    def test_every_unit_has_inverse(self):
        for p in (3, 5, 7, 11, 13):
            K = FIELDS[p]
            for v in range(1, p):
                assert (K(v) * K(v).inverse()) == K.one

    def test_negative_exponent_and_reverse_division(self):
        K = FIELDS[7]
        assert K(3) ** -2 == (K(3).inverse()) ** 2
        assert 1 / K(5) == K(5).inverse()


class TestPolyBasics:
    def test_canonical_form(self):
        K = FIELDS[5]
        poly = Poly(K, (1, 2, 0, 0))
        assert list(poly.coeffs) == [1, 2]
        assert Poly(K, (0, 0)).is_zero
        assert Poly(K, ()).degree == NEG_INFINITY

    def test_degree_and_lead(self):
        K = FIELDS[7]
        poly = Poly(K, (1, 0, 3))
        assert poly.degree == 2
        assert poly.leading_coefficient() == K(3)
        assert poly.coefficient(1) == K(0)
        assert poly.coefficient(9) == K(0)

    def test_modular_reduction_on_input(self):
        K = FIELDS[3]
        assert Poly(K, (4, -1)) == Poly(K, (1, 2))
        for form in ([True, np.int64(-1)], [K(1), K(2)], np.array([4, -1]),
                     np.array([4, -1], dtype=np.int32)):
            assert Poly(K, form) == Poly(K, (1, 2))

    def test_rejects_what_is_not_in_the_field(self):
        K7, K5 = FIELDS[7], FIELDS[5]
        with pytest.raises(ValueError, match="field mismatch"):
            Poly(K7, [K5(3), 1])
        with pytest.raises(ValueError, match="field mismatch"):
            K7.T + K5(3)
        for bad in ([2.5, 1], ["3"], np.array([2.5, 1.0]), np.array([True])):
            with pytest.raises(TypeError):
                Poly(K7, bad)
        for op in (lambda T: T * 2.5, lambda T: 2.5 + T, lambda T: T // "3"):
            with pytest.raises(TypeError):
                op(K7.T)

    def test_immutable(self):
        poly = Poly(FIELDS[3], (1, 2))
        with pytest.raises(ValueError):
            poly.coeffs[0] = 2


class TestDivmod:
    def test_t7_by_F_at_p7(self):
        K = FIELDS[7]
        T = K.T
        F = (T * T + 4) ** 3
        q, r = divmod(T ** 7, F)
        assert r == Poly(K, (0, 6, 0, 1, 0, 2))  # 2t^5 + t^3 + 6t
        assert q == T

    def test_t3_by_t2_plus_1_at_p3(self):
        K = FIELDS[3]
        T = K.T
        q, r = divmod(T ** 3, T * T + 1)
        assert q == T
        assert r == 2 * T

    def test_unit_divisor(self):
        K = FIELDS[5]
        a = Poly(K, (1, 2, 3))
        q, r = divmod(a, Poly(K, (1,)))
        assert q == a and r.is_zero

    def test_zero_divisor(self):
        K = FIELDS[5]
        with pytest.raises(ZeroDivisionError):
            divmod(K.T, Poly(K, ()))


class TestPow:
    def test_binomial_cube_at_p7(self):
        K = FIELDS[7]
        T = K.T
        assert (T * T + 4) ** 3 == Poly(K, (1, 0, 6, 0, 5, 0, 1))

    def test_first_power_at_p3(self):
        K = FIELDS[3]
        T = K.T
        assert (T * T + 4) ** 1 == T * T + 1

    def test_zeroth_power(self):
        K = FIELDS[5]
        assert Poly(K, (2, 3)) ** 0 == Poly(K, (1,))
        assert Poly(K, ()) ** 0 == Poly(K, (1,))

    def test_degree_multiplies(self):
        K = FIELDS[3]
        poly = Poly(K, (1, 2, 1))
        assert (poly ** 6).degree == 12

    def test_frobenius_equals_pth_power(self):
        K = FIELDS[5]
        poly = Poly(K, (2, 3, 0, 1))
        by_mul = poly
        for _ in range(4):
            by_mul = by_mul * poly
        assert poly ** 5 == by_mul
        assert poly.frobenius() == by_mul


class TestRendering:
    def test_reference_style(self):
        K = FIELDS[7]
        poly = Poly(K, [0] * 7 + [6, 0, 1, 0, 2, 0, 6])
        assert str(poly) == "6*t^13 + 2*t^11 + t^9 + 6*t^7"

    def test_unit_coefficient_elision(self):
        K = FIELDS[7]
        assert str(K.T) == "t"
        assert str(2 * K.T) == "2*t"
        assert str(K.T ** 2 + 4) == "t^2 + 4"
        assert str(Poly(K, (1,))) == "1"
        assert str(Poly(K, ())) == "0"

    def test_evaluation_at_residue(self):
        K = FIELDS[7]
        poly = K.T ** 3 + 2 * K.T + 5
        assert poly(2) == K((8 + 4 + 5) % 7)
        assert poly(K(0)) == K(5)
        assert poly(np.int64(9)) == poly(-5) == poly(2)
        with pytest.raises(ValueError, match="field mismatch"):
            poly(FIELDS[11](9))
        with pytest.raises(TypeError):
            poly(2.5)


class TestMultiplicationPaths:
    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_fft_matches_convolution(self, p):
        rng = np.random.default_rng(p)
        t = algebra._FFT_MIN_LEN
        for n, m in ((t - 1, t - 1), (t - 1, 900), (t, t), (t, 5 * t + 3),
                     (1200, 37), (700, 1500), (3001, 3001)):
            a = rng.integers(0, p, n).astype(np.int64)
            b = rng.integers(0, p, m).astype(np.int64)
            a[-1] = b[-1] = 1
            exact = _trim(_convolve(a, b, p))
            assert np.array_equal(_fft_product(a, b, p), exact)
            assert np.array_equal(_mul_arrays(a, b, p), exact)
            square = _trim(_convolve(a, a, p))
            assert np.array_equal(_mul_arrays(a, a, p), square)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_fft_long_constant_operands(self, p):
        # all-(p-1) operands of length n: coefficient k of the product is
        # (p-1)^2 * (number of pairs i + j = k), known in closed form
        n = 1 << 15
        a = np.full(n, p - 1, dtype=np.int64)
        k = np.arange(2 * n - 1)
        expected = (np.minimum(k, 2 * n - 2 - k) + 1) % p * ((p - 1) ** 2 % p) % p
        assert np.array_equal(_fft_product(a, a.copy(), p), expected)
        assert np.array_equal(_mul_arrays(a, a, p), _trim(expected))

    def test_fft_at_exactness_bound(self):
        # (p-1)^2 * len at 0.998 of the bound, operands at the largest
        # residue and at the largest balanced magnitude
        p, n = 4093, 4096
        assert 0.99 * algebra._FFT_EXACT_BOUND < (p - 1) ** 2 * n <= algebra._FFT_EXACT_BOUND
        for value in (p - 1, (p - 1) // 2):
            a = np.full(n, value, dtype=np.int64)
            out = _fft_product(a, a.copy(), p)
            assert out is not None
            assert np.array_equal(out, _convolve(a, a, p))

    def test_rounding_error_is_caught(self):
        # far beyond the exactness bound (5e5 times) but with coefficients
        # still below 2^53, the rounding residual reaches about 0.07: the
        # check must refuse the product and the exact path must take over
        p = 4194301
        rng = np.random.default_rng(4)
        a = rng.integers(0, p, 2000).astype(np.int64)
        b = rng.integers(0, p, 2000).astype(np.int64)
        assert _fft_product(a, b, p) is None
        assert np.array_equal(_mul_arrays(a, b, p), _trim(_convolve(a, b, p)))

    def test_residual_tripwire_falls_back_to_convolution(self, monkeypatch):
        rng = np.random.default_rng(5)
        p = 7
        a = rng.integers(1, p, 500).astype(np.int64)
        b = rng.integers(1, p, 700).astype(np.int64)
        exact = _trim(_convolve(a, b, p))
        calls = []
        monkeypatch.setattr(algebra, "_FFT_TRIPWIRE", -1.0)
        monkeypatch.setattr(
            algebra, "_convolve", lambda *args: calls.append(1) or _convolve(*args)
        )
        assert _fft_product(a, b, p) is None
        assert np.array_equal(_mul_arrays(a, b, p), exact)
        assert calls == [1]

    def test_modulus_beyond_bound_skips_fft(self, monkeypatch):
        p = 1_000_003
        rng = np.random.default_rng(9)
        a = rng.integers(0, p, 300).astype(np.int64)
        b = rng.integers(0, p, 300).astype(np.int64)
        a[-1] = b[-1] = 1
        monkeypatch.setattr(algebra, "_fft_product", lambda *args: pytest.fail("FFT used"))
        prod = Poly(PrimeField(p), a) * Poly(PrimeField(p), b)
        assert np.array_equal(prod.coeffs, _trim(_convolve(a, b, p)))

    def test_large_modulus_stays_exact(self, monkeypatch):
        # the largest admitted prime: (p-1)^2 * 45 passes 2^62, so the
        # product takes the exact object-dtype convolution
        K = PrimeField((1 << 31) - 1)
        rng = np.random.default_rng(3)
        a = Poly(K, rng.integers(0, K.p, 60, dtype=np.int64).tolist())
        b = Poly(K, rng.integers(0, K.p, 45, dtype=np.int64).tolist())
        object_paths = []
        real_convolve = np.convolve

        def convolve(x, y):
            object_paths.append(x.dtype == object)
            return real_convolve(x, y)

        monkeypatch.setattr(np, "convolve", convolve)
        prod = a * b
        assert object_paths == [True]
        assert poly_dict(prod) == rmul(poly_dict(a), poly_dict(b), K.p)
        c = Poly(K, [K.p - 1, K.p - 2]) * Poly(K, [K.p - 3])
        assert c == Poly(K, [3, 6])


def _short_quotient_examples(test):
    """Explicit examples of quotients of 1-4 terms over divisors of 20,
    300 and 3000 terms: the engine's linear partial quotients."""
    rng = np.random.default_rng(20)
    for qlen in (1, 2, 3, 4):
        for m in (20, 300, 3000):
            a = rng.integers(0, 13, qlen + m - 1).tolist()
            a[-1] = 1
            test = example(p=13, a=a, b=rng.integers(0, 13, m - 1).tolist(), lead=qlen)(test)
    return test


class TestNewtonDivision:
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from((3, 5, 7, 11, 13)),
        a=st.lists(st.integers(0, 12), max_size=90),
        b=st.lists(st.integers(0, 12), min_size=1, max_size=40),
        lead=st.integers(1, 12),
    )
    @example(p=7, a=[1, 2, 3], b=[4, 5, 6, 0, 1], lead=3)  # a.size < b.size
    @example(p=5, a=[1, 2, 3, 4, 0, 1], b=[], lead=3)  # len(b) = 1
    @example(p=11, a=list(range(11)), b=[3, 0, 9], lead=7)  # non-monic
    @example(p=13, a=list(range(1, 60)), b=[2, 5], lead=4)  # qlen > len(b)
    @_short_quotient_examples
    def test_matches_schoolbook(self, p, a, b, lead):
        a = np.array(a, dtype=np.int64) % p
        b = np.array(b + [lead], dtype=np.int64) % p
        b[-1] = b[-1] or 1
        q, r = _divmod_arrays(_trim(a), b, p)
        rq, rr = schoolbook_divmod(_trim(a), b, p)
        assert np.array_equal(q, rq) and np.array_equal(_trim(r), rr)

    @pytest.mark.parametrize("p", (3, 13))
    def test_long_operands_match_schoolbook(self, p):
        # quotient and divisor long enough for the FFT inside every
        # Newton step and the remainder product
        rng = np.random.default_rng(p)
        for n, m in ((4000, 300), (2500, 1900), (3000, 1)):
            a = rng.integers(0, p, n).astype(np.int64)
            b = rng.integers(0, p, m).astype(np.int64)
            a[-1] = 1
            b[-1] = p - 2
            q, r = _divmod_arrays(a, b, p)
            rq, rr = schoolbook_divmod(a, b, p)
            assert np.array_equal(q, rq) and np.array_equal(r, rr)

    def test_floordiv_multiplies_only_the_quotient_length(self, monkeypatch):
        # a quotient of 10 terms over a divisor of 1000 reads the top 10
        # terms of each operand and forms no remainder
        p = 7
        rng = np.random.default_rng(10)
        a = Poly(FIELDS[p], rng.integers(0, p, 1008).tolist() + [3])
        b = Poly(FIELDS[p], rng.integers(0, p, 999).tolist() + [5])
        sizes = []

        def recording(x, y, p):
            sizes.append(max(x.size, y.size))
            return _mul_arrays(x, y, p)

        monkeypatch.setattr(algebra, "_mul_arrays", recording)
        q = a // b
        assert q.degree == 9 and sizes and max(sizes) <= 10
        monkeypatch.undo()
        assert q == divmod(a, b)[0]


@pytest.mark.parametrize("p", (3, 5, 7))
class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_divmod_contract(self, p, data):
        a = data.draw(polys(p, 0, 10))
        b = data.draw(polys(p, 0, 6))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert a // b == q and a % b == r

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ring_axioms(self, p, data):
        a = data.draw(polys(p, 0, 5))
        b = data.draw(polys(p, 0, 5))
        c = data.draw(polys(p, 0, 5))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_frobenius_spreads_exponents(self, p, data):
        a = data.draw(polys(p, 0, 6))
        spread = a.frobenius()
        expected = {p * e: c for e, c in poly_dict(a).items()}
        assert poly_dict(spread) == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_divmod_matches_reference(self, p, data):
        a = data.draw(polys(p, 0, 9))
        b = data.draw(polys(p, 0, 5))
        q, r = divmod(a, b)
        rq, rr = rdivmod(poly_dict(a), poly_dict(b), p)
        assert poly_dict(q) == rq and poly_dict(r) == rr

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_canonical_results(self, p, data):
        a = data.draw(polys(p, 0, 6))
        b = data.draw(polys(p, 0, 6))
        for result in (a + b, a - b, a * b, a - a):
            assert result.coeffs.size == 0 or result.coeffs[-1] != 0
