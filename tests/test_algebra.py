from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercf import NEG_INFINITY, Poly, PrimeField, algebra, is_prime
from hypercf.algebra import (
    _convolve, _divmod_arrays, _fft_product, _floordiv_arrays, _mul_arrays, _trim)

from conftest import FIELDS, polys, transforms
from reference import poly_dict, rdivmod, rmul, rsub, schoolbook_divmod


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

    def test_reverse_division(self):
        # an int numerator divides through FieldElement.__rtruediv__
        K = FIELDS[7]
        assert 3 / K(2) == K(5)
        with pytest.raises(ZeroDivisionError):
            1 / K(0)
        for bad in (2.5, "3"):
            with pytest.raises(TypeError):
                bad / K(2)


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

    def test_arrays_of_every_integer_dtype_reduce_exactly(self):
        # widened before `%`: a uint64 cast to int64 would wrap, and an int8
        # array cannot take `% 131` under numpy 2
        K7, K131 = FIELDS[7], PrimeField(131)
        cases = ((K7, np.uint64, 2 ** 64 - 1, 1), (K131, np.uint8, 255, 124),
                 (K131, np.int8, -1, 130), (K7, np.int64, -(2 ** 63), 6))
        for K, dtype, value, residue in cases:
            assert list(Poly(K, np.array([value, 1], dtype=dtype)).coeffs) == [residue, 1]
            assert Poly(K, [dtype(value)]) == Poly(K, (residue,))

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

    @pytest.mark.parametrize("p", (3, 7, 4093))
    def test_balanced_matches_masked_form(self, p):
        # the residues as floats in (-p/2, p/2) are the very floats of the
        # former masked assignment, so every FFT product is unchanged
        rng = np.random.default_rng(p)
        for n in (1, 2, 129, 6500):
            x = rng.integers(0, p, n).astype(np.int64)
            x[: min(n, 3)] = (0, p // 2, p // 2 + 1)[: min(n, 3)]
            old = x.astype(np.float64)
            old[old > p // 2] -= p
            got = algebra._balanced(x, p)
            assert got.dtype == np.float64 and np.array_equal(got, old)
            assert np.abs(got).max() <= p // 2

    def test_fft_at_exactness_bound(self):
        # the balanced bound ((p-1)/2)^2 * len at 0.998 of 2^34, operands at
        # the largest residue and at the largest balanced magnitude
        p, n = 4093, 4096
        bound = ((p - 1) // 2) ** 2 * n
        assert 0.99 * algebra._FFT_EXACT_BOUND < bound <= algebra._FFT_EXACT_BOUND
        for value in (p - 1, (p - 1) // 2):
            a = np.full(n, value, dtype=np.int64)
            out = _fft_product(a, a.copy(), p)
            assert out is not None
            assert np.array_equal(out, _convolve(a, a, p))

    def test_rounding_error_is_caught(self, monkeypatch):
        # far beyond the exactness bound (5e5 times) but with coefficients
        # still below 2^53, the rounding residual reaches about 0.07: with
        # the bound raised, so the product is transformed, the check must
        # refuse it and the exact path must take over
        p = 4194301
        rng = np.random.default_rng(4)
        a = rng.integers(0, p, 2000).astype(np.int64)
        b = rng.integers(0, p, 2000).astype(np.int64)
        monkeypatch.setattr(algebra, "_FFT_EXACT_BOUND", 1 << 62)
        out, log = transforms(lambda: _fft_product(a, b, p))
        assert out is None and [kind for kind, _, _ in log] == ["f", "f", "i"]
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
        monkeypatch.setattr(algebra, "_spectrum", lambda *args: pytest.fail("FFT used"))
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

    @pytest.mark.parametrize("p", (7, 13))
    def test_every_quotient_length_matches_schoolbook(self, p):
        # quotient lengths 1..40 around the schoolbook seed of the Newton
        # inversion, over divisors shorter than, as long as and longer
        # than the quotient
        rng = np.random.default_rng(p)
        for n in range(1, 41):
            for m in {1, 2, max(1, n // 2), n, n + 7}:
                a = rng.integers(0, p, n + m - 1).astype(np.int64)
                b = rng.integers(0, p, m).astype(np.int64)
                a[-1], b[-1] = 1 + n % (p - 1), 1 + m % (p - 1)
                q, r = _divmod_arrays(a, b, p)
                rq, rr = schoolbook_divmod(a, b, p)
                assert np.array_equal(q, rq) and np.array_equal(r, rr), (n, m)

    def test_floordiv_multiplies_only_the_quotient_length(self, monkeypatch):
        # a quotient of 20 terms, past the schoolbook seed, over a divisor
        # of 1000 reads the top 20 terms of each operand and forms no
        # remainder
        p = 7
        rng = np.random.default_rng(10)
        a = Poly(FIELDS[p], rng.integers(0, p, 1018).tolist() + [3])
        b = Poly(FIELDS[p], rng.integers(0, p, 999).tolist() + [5])
        sizes = []

        def recording(x, y, p):
            sizes.append(max(x.size, y.size))
            return _mul_arrays(x, y, p)

        monkeypatch.setattr(algebra, "_mul_arrays", recording)
        q = a // b
        assert q.degree == 19 and sizes and max(sizes) <= 20
        monkeypatch.undo()
        assert q == divmod(a, b)[0]

    @pytest.mark.parametrize("qlen", (1, 2, 16))
    def test_short_quotient_makes_no_product(self, monkeypatch, qlen):
        # up to the seed length the quotient comes straight from the
        # schoolbook recurrence: no inversion and no product
        p = 7
        rng = np.random.default_rng(qlen)
        a = rng.integers(0, p, qlen + 999).astype(np.int64)
        b = rng.integers(0, p, 1000).astype(np.int64)
        a[-1], b[-1] = 3, 5

        def forbidden(*args):
            raise AssertionError("a short quotient formed a product")

        monkeypatch.setattr(algebra, "_mul_arrays", forbidden)
        q = algebra._floordiv_arrays(a, b, p)
        monkeypatch.undo()
        assert q.size == qlen and np.array_equal(q, schoolbook_divmod(a, b, p)[0])


#: quotient lengths on both sides of the schoolbook seed, of the FFT
#: threshold and of each power of two up to 2^12, where a Newton step
#: ends on or just past its target, and the ladder's edges: the least
#: odd lengths that seed below the seed length (2*seed + 1 and + 3), the
#: lengths where the last step's inverse, ceil(n/2) terms, reaches the
#: FFT threshold (2*_FFT_MIN_LEN - 1) and where a doubling first does
#: (4*_FFT_MIN_LEN - 3), each with its neighbours
SEED, FFT_MIN = algebra._NEWTON_SEED, algebra._FFT_MIN_LEN
NEWTON_LENGTHS = sorted(
    {15, 16, 17, 127, 128, 129, 2 * SEED + 1, 2 * SEED + 3}
    | {2 * FFT_MIN + d for d in (-2, -1, 0, 1)}
    | {4 * FFT_MIN + d for d in (-4, -3, -2)}
    | {(1 << j) + d for j in range(5, 13) for d in (-1, 0, 1)})


def _division_case(p: int, n: int, m: int, padded: bool, seed: int):
    """A dividend of quotient length n over a divisor of m terms, units at
    the top; padded, every term below its top n - n//2 is zero, as
    series_from_rational pads the numerator, so that the top n terms the
    quotient reads end in n//2 zeros."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, n + m - 1).astype(np.int64)
    b = rng.integers(0, p, m).astype(np.int64)
    a[-1], b[-1] = 1 + seed % (p - 1), 1 + n % (p - 1)
    if padded:
        a[: m - 1 + n // 2] = 0
    return a, b


def _newton_doublings(n: int):
    """The (k, k2) steps of a length-n quotient's inverse that double
    through the FFT, in order: the inverse climbs the ladder ceil(n/2),
    ceil(n/4), ..., from its first rung of at most _NEWTON_SEED terms to
    ceil(n/2), and a step doubles through the FFT from k >= _FFT_MIN_LEN."""
    ladder = [(n + 1) // 2]
    while ladder[-1] > SEED:
        ladder.append((ladder[-1] + 1) // 2)
    return [(k, k2) for k2, k in zip(ladder, ladder[1:]) if k >= FFT_MIN][::-1]


class TestLongQuotients:
    @settings(max_examples=100, deadline=None)
    @given(
        p=st.sampled_from((3, 5, 7, 11, 13, 65521)),
        n=st.sampled_from(NEWTON_LENGTHS),
        shape=st.sampled_from(("shorter", "as long", "longer")),
        padded=st.booleans(),
        cut=st.integers(1, 64),
    )
    @example(p=7, n=4097, shape="as long", padded=True, cut=1)
    @example(p=13, n=4095, shape="shorter", padded=True, cut=4095)  # one term
    @example(p=65521, n=2049, shape="longer", padded=False, cut=64)
    def test_matches_schoolbook(self, p, n, shape, padded, cut):
        # divisors shorter than, as long as and longer than the quotient
        m = {"shorter": max(1, (n - 1) // cut), "as long": n, "longer": n + cut}[shape]
        a, b = _division_case(p, n, m, padded, seed=n + m)
        rq, rr = schoolbook_divmod(a, b, p)
        q, r = _divmod_arrays(a, b, p)
        assert np.array_equal(q, rq) and np.array_equal(r, rr)
        assert np.array_equal(_floordiv_arrays(a, b, p), rq)
        # the top n terms of a series quotient read only the terms of a
        # above its padding: the same n terms from the nonzero part alone
        top = a[m - 1 + n // 2 if padded else 0 :]
        assert np.array_equal(algebra._top_quotient(top, b, n, p), rq)

    @pytest.mark.parametrize("p", (7, 65521))
    def test_all_padding_dividend_has_a_zero_quotient(self, p):
        # a dividend whose top n terms are all zero, as series_from_rational
        # pads a zero numerator: n zero terms on every path
        for n in NEWTON_LENGTHS:
            _, b = _division_case(p, n, n // 2 + 1, False, seed=n)
            q = algebra._top_quotient(np.zeros(n, dtype=np.int64), b, n, p)
            assert q.dtype == np.int64 and q.tobytes() == bytes(8 * n)

    def test_doubling_transforms_g_once_at_one_length(self):
        # quotient length 2000 at p=7 climbs to its inverse of 1000 terms
        # through the FFT as 250 -> 500 -> 1000: each doubling transforms
        # g, f and the residual once and inverts two products, all at the
        # length of its target
        p, n = 7, 2000
        a, b = _division_case(p, n, 1200, True, seed=3)
        f = b[::-1]
        q, log = transforms(lambda: _floordiv_arrays(a, b, p))
        assert np.array_equal(q, schoolbook_divmod(a, b, p)[0])
        doublings = _newton_doublings(n)
        assert doublings == [(250, 500), (500, 1000)]
        assert len(log) == 5 * len(doublings) + 8
        unit = np.ones(1, dtype=np.int64)
        for i, (k, k2) in enumerate(doublings):
            block = log[5 * i : 5 * i + 5]
            assert [kind for kind, _, _ in block] == ["f", "f", "i", "f", "i"]
            assert {size for _, size, _ in block} == {algebra._fft_length(k2, 0)}
            g = algebra._top_quotient(unit, b, k, p)[::-1]
            inputs = [x for kind, _, x in block if kind == "f"]
            assert inputs.count(algebra._balanced(g, p).tobytes()) == 1
            assert inputs[1] == algebra._balanced(f[:k2], p).tobytes()

    @pytest.mark.parametrize("n", (2 * FFT_MIN - 1, 1000, 2001, 4097))
    def test_last_step_runs_at_the_quotient_length(self, n):
        # the last step takes q0 = a*g, the residual (a - f*q0)[h:n] and
        # q1 = g*r at one length, that of n terms: g, the inverse to h =
        # ceil(n/2) terms, is transformed once, and no transform of the
        # division is longer
        p = 7
        a, b = _division_case(p, n, n, True, seed=n)
        h, size = (n + 1) // 2, algebra._fft_length(n, 0)
        q, log = transforms(lambda: algebra._top_quotient(a, b, n, p))
        assert np.array_equal(q, schoolbook_divmod(a, b, p)[0])
        assert max(length for _, length, _ in log) == size
        block = log[-8:]
        assert [kind for kind, _, _ in block] == ["f", "f", "i", "f", "f", "i", "f", "i"]
        assert {length for _, length, _ in block} == {size}
        g = algebra._top_quotient(np.ones(1, dtype=np.int64), b, h, p)[::-1]
        inputs = [x for kind, _, x in log if kind == "f"]
        assert inputs.count(algebra._balanced(g, p).tobytes()) == 1
        assert block[0][2] == algebra._balanced(g, p).tobytes()

    @pytest.mark.parametrize("inverse", (0, 1, 2, 3))
    def test_failed_rounding_check_falls_back_to_products(self, monkeypatch, inverse):
        # the first or second inverse transform of the first or second
        # FFT doubling fails its check: that doubling forms the failed
        # product alone by _mul_arrays, and the quotient is unchanged
        p, n = 7, 2000
        a, b = _division_case(p, n, 1200, True, seed=4)
        expected = _floordiv_arrays(a, b, p)
        real_inverse, real_mul, inverses, products = algebra._from_spectrum, _mul_arrays, [], []

        def failing(spectrum, size, n, p):
            inverses.append(size)
            return None if len(inverses) == inverse + 1 else real_inverse(spectrum, size, n, p)

        def counted(x, y, p, *addend):
            products.append((x.size, y.size))
            return real_mul(x, y, p, *addend)

        monkeypatch.setattr(algebra, "_from_spectrum", failing)
        monkeypatch.setattr(algebra, "_mul_arrays", counted)
        q = _floordiv_arrays(a, b, p)
        assert q.tobytes() == expected.tobytes()
        # 2 products for each of the doublings 16 -> 32 -> 63 -> 125 ->
        # 250, then f*g or g*r of the failed doubling
        k, k2 = _newton_doublings(n)[inverse // 2]
        assert products[8:] == [[(k2, k)], [(k2 - k, k2 - k)]][inverse % 2]

    @pytest.mark.parametrize("inverse", (0, 1, 2))
    def test_failed_last_step_falls_back_to_products(self, monkeypatch, inverse):
        # q0 = a*g, f*q0 or g*r of the last step fails its rounding check:
        # the step forms that product alone by _mul_arrays, and the
        # quotient is unchanged
        p, n = 7, 2000
        a, b = _division_case(p, n, 1200, True, seed=5)
        expected = _floordiv_arrays(a, b, p)
        assert np.array_equal(expected, schoolbook_divmod(a, b, p)[0])
        real_inverse, real_mul, inverses, products = algebra._from_spectrum, _mul_arrays, [], []
        doubling_inverses = 2 * len(_newton_doublings(n))

        def failing(spectrum, size, n, p):
            inverses.append(size)
            if len(inverses) == doubling_inverses + inverse + 1:
                return None
            return real_inverse(spectrum, size, n, p)

        def counted(x, y, p, *addend):
            products.append((x.size, y.size))
            return real_mul(x, y, p, *addend)

        monkeypatch.setattr(algebra, "_from_spectrum", failing)
        monkeypatch.setattr(algebra, "_mul_arrays", counted)
        q = _floordiv_arrays(a, b, p)
        assert q.tobytes() == expected.tobytes()
        # the failed inverse was the last step's, at the quotient's length
        assert inverses[doubling_inverses + inverse] == algebra._fft_length(n, 0)
        # the 8 products below the FFT doublings, then the last step's
        # failed one: a's nonzero top terms by g, f by q0, or the residual
        # by g's first n - h terms
        h, top = (n + 1) // 2, _trim(a[::-1][:n]).size
        last = [(top, h), (b.size, h), (n - h, n - h)]
        assert products[8:] == [last[inverse]]

    def test_large_modulus_makes_no_transform(self):
        # at p = 65521 a product of 128 terms may pass _FFT_EXACT_BOUND,
        # so no step of the division, doubling or last, is transformed
        p, n = 65521, 1000
        a, b = _division_case(p, n, 600, True, seed=5)
        assert ((p - 1) // 2) ** 2 * algebra._FFT_MIN_LEN > algebra._FFT_EXACT_BOUND
        q, log = transforms(lambda: _floordiv_arrays(a, b, p))
        assert log == [] and np.array_equal(q, schoolbook_divmod(a, b, p)[0])


#: the small fields and the largest admitted modulus, 2^31 - 1
SUBTRACTION_FIELDS = {**FIELDS, 2147483647: PrimeField(2147483647)}


def _any_polys(p: int):
    """Polys over F_p from any coefficient list, zero and trailing zeros
    included, so that a difference can cancel at the top."""
    return st.lists(st.integers(0, p - 1), max_size=9).map(
        lambda c: Poly(SUBTRACTION_FIELDS[p], c))


@pytest.mark.parametrize("p", sorted(SUBTRACTION_FIELDS))
class TestSubtraction:
    """`-` is the sum with the negation, in every operand order, against
    reference.rsub on coefficient dicts."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_poly_minus_poly(self, p, data):
        a, b = data.draw(_any_polys(p)), data.draw(_any_polys(p))
        for x, y in ((a, b), (b, a), (a, a)):
            diff = x - y
            assert poly_dict(diff) == rsub(poly_dict(x), poly_dict(y), p)
            assert diff.coeffs.size == 0 or diff.coeffs[-1] != 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_poly_and_scalar(self, p, data):
        K = SUBTRACTION_FIELDS[p]
        a = data.draw(_any_polys(p))
        c = data.draw(st.integers(-(1 << 40), 1 << 40))
        assert poly_dict(a - c) == rsub(poly_dict(a), {0: c}, p)
        assert poly_dict(c - a) == rsub({0: c}, poly_dict(a), p)
        assert poly_dict(K(c) - a) == rsub({0: c}, poly_dict(a), p)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_field_element_reflected(self, p, data):
        K = SUBTRACTION_FIELDS[p]
        c, v = (data.draw(st.integers(-(1 << 40), 1 << 40)) for _ in range(2))
        assert (c - K(v)).value == (c - v) % p == (K(c) - K(v)).value
        assert (K(v) - c).value == (v - c) % p

    def test_foreign_operands(self, p):
        K = SUBTRACTION_FIELDS[p]
        with pytest.raises(TypeError, match="for -: 'str' and 'Poly'"):
            "a" - K.T
        with pytest.raises(TypeError, match="for -: 'Poly' and 'str'"):
            K.T - "a"
        other = FIELDS[3] if p != 3 else FIELDS[5]
        with pytest.raises(ValueError, match="field mismatch"):
            other(1) - K.T


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
