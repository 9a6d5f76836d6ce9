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
    PrimeField,
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

from conftest import FIELDS, polys, quotient_lists, transforms
from hypercf.cf import prefixed_continuants
from reference import fold_continuants, poly_dict, rcontinuants, rvalidity_floor


def _fault_at(monkeypatch, k: int, calls: list, entry=lambda b: 0):
    """Count every product that the root's determinant check covers in
    calls, and put the k-th off by one at entry(b); a zero product comes
    back as the constant 1.  The products are the leaves' packed steps
    (algebra._convolve, b the second operand), a node's entries taken in
    one transform domain (algebra._from_spectrum, b the entry) and the
    products of algebra._mul_arrays (b the second operand): a node's
    entries formed product by product and the check's.  A convolution or
    inverse transform made inside _mul_arrays is part of that product and
    is not counted again, nor is an entry that fails its rounding check,
    as it is then formed product by product."""
    mul, convolve, inverse, inside = (
        algebra._mul_arrays, algebra._convolve, algebra._from_spectrum, [])

    def counted(out, b, p):
        calls.append(1)
        if len(calls) != k:
            return out
        if out.size == 0:
            return np.ones(1, dtype=np.int64)
        out, i = out.copy(), entry(b)
        out[i] = (out[i] + 1) % p
        return out

    def faulty_mul(a, b, p, *addend):
        inside.append(1)
        try:
            out = mul(a, b, p, *addend)
        finally:
            inside.pop()
        return counted(out, b, p)

    def faulty_convolve(a, b, p, *addend):
        out = convolve(a, b, p, *addend)
        return out if inside else counted(out, b, p)

    def faulty_inverse(spectrum, size, n, p):
        out = inverse(spectrum, size, n, p)
        return out if inside or out is None else counted(out, out, p)

    monkeypatch.setattr(algebra, "_mul_arrays", faulty_mul)
    monkeypatch.setattr(algebra, "_convolve", faulty_convolve)
    monkeypatch.setattr(algebra, "_from_spectrum", faulty_inverse)


def _assert_one_domain_nodes(log, nodes: int):
    """log holds `nodes` one-domain nodes: each transforms its 8 distinct
    operands once, then inverts its 4 entries, all at one length."""
    assert len(log) == 12 * nodes
    for i in range(0, len(log), 12):
        block = log[i : i + 12]
        assert [kind for kind, _, _ in block] == ["f"] * 8 + ["i"] * 4
        assert len({n for _, n, _ in block}) == 1
        assert len({x for _, _, x in block[:8]}) == 8


def _counting_products(mp) -> list:
    """A list that gets one entry per algebra._mul_arrays call."""
    mul, products = algebra._mul_arrays, []

    def counting(a, b, p, *addend):
        products.append(1)
        return mul(a, b, p, *addend)

    mp.setattr(algebra, "_mul_arrays", counting)
    return products


def _random_quotients(K, degrees, seed: int) -> PartialQuotients:
    """Random quotients of the degrees."""
    rng = np.random.default_rng(seed)
    return PartialQuotients(
        Poly(K, rng.integers(0, K.p, d).tolist() + [int(rng.integers(1, K.p))]) for d in degrees)


class TestPartialQuotients:
    def test_rejects_constant_quotients(self):
        K = FIELDS[5]
        with pytest.raises(ValueError, match="degree >= 1"):
            PartialQuotients([K.T, Poly(K, (2,))])
        with pytest.raises(ValueError, match="degree >= 1"):
            PartialQuotients([Poly(K, ())])

    @pytest.mark.parametrize("bad", ("constant", "zero", "not a Poly"))
    def test_rejection_names_the_position(self, bad):
        K = FIELDS[5]
        item = {"constant": Poly(K, (2,)), "zero": Poly(K, ()), "not a Poly": 2}[bad]
        for i in range(3):
            items = [K.T] * 3
            items[i] = item
            with pytest.raises(ValueError) as raised:
                PartialQuotients(items)
            assert str(raised.value) == (
                f"partial quotient a_{i + 1} must be a polynomial of degree >= 1")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_validity_floor_is_the_continuant_degree(self, data):
        # -2 * deg y_N from the continuants, convergent_validity_floor and
        # the degree-sum oracle agree on every list, on each of its tails
        # and slices (built without validating again) and in the floor
        # that cf_to_series enforces
        p = data.draw(st.sampled_from((3, 5, 7)))
        pqs = data.draw(quotient_lists(p, max_len=8, max_degree=4))
        floor = convergent_validity_floor(pqs)
        assert floor == -2 * continuants(pqs)[1].degree
        assert floor == rvalidity_floor([poly_dict(a) for a in pqs])
        for start in range(1, len(pqs) + 1):
            for part in (pqs.tail(start), pqs[start - 1 :], pqs[:start]):
                assert isinstance(part, PartialQuotients) and len(part)
                assert convergent_validity_floor(part) == rvalidity_floor(
                    [poly_dict(a) for a in part])
        assert pqs[len(pqs):] == PartialQuotients()
        assert convergent_validity_floor(PartialQuotients()) == 0
        cf_to_series(pqs, floor)
        with pytest.raises(InsufficientPrecisionError) as raised:
            cf_to_series(pqs, floor - 1)
        assert str(raised.value) == (
            f"insufficient partial quotients for requested order {floor - 1} "
            f"(floor is {floor})")

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
        _assert_reference_pair(data.draw(quotient_lists(p, max_len=24)), p, 2)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_leaf_matches_reference(self, data):
        # with the leaf bound out of reach every list is one packed leaf
        p = data.draw(st.sampled_from((3, 5, 7)))
        _assert_reference_pair(data.draw(quotient_lists(p, max_len=24)), p, 10**6)

    @pytest.mark.parametrize("p", (65537, 2**31 - 1))
    def test_one_leaf_at_large_p(self, p):
        # 30 quotients in one leaf; at 2^31 - 1, (p-1)^2 * 2 passes 2^62
        # and _convolve takes its object-dtype path
        rng = np.random.default_rng(p)
        K = PrimeField(p)
        pqs = PartialQuotients(
            Poly(K, rng.integers(0, p, d).tolist() + [int(rng.integers(1, p))])
            for d in rng.integers(1, 5, 30)
        )
        _assert_reference_pair(pqs, p, 10**6)

    def test_deepest_quotient_last_in_its_leaf(self):
        # a_6 of degree 100 after five linear quotients: the last packed
        # product runs furthest past 2g, and every term beyond is zero
        K = FIELDS[7]
        pqs = PartialQuotients([K.T + n for n in range(5)] + [K.T ** 100 + 3])
        _assert_reference_pair(pqs, 7, 10**6)


def _assert_reference_pair(pqs, p: int, leaf_bound: int):
    """continuants(pqs), with cf's leaf bound at leaf_bound, against the
    last two pairs of reference.rcontinuants."""
    ref = rcontinuants([poly_dict(a) for a in pqs], p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cf, "_FFT_MIN_LEN", leaf_bound)
        x, y, x_prev, y_prev = continuants(pqs)
    assert (poly_dict(x), poly_dict(y)) == ref[-1]
    prev = ref[-2] if len(ref) > 1 else ({0: 1}, {})
    assert (poly_dict(x_prev), poly_dict(y_prev)) == prev


class TestContinuantChecks:
    # fifteen short quotients, one leaf: 14 packed products in the
    # recurrence, 2 in the final check
    QUOTIENTS = 15
    # twenty-nine quotients of degrees 15 (fourteen), 400, 15 (fourteen):
    # leaves of 7, 7, 1, 7 and 7 quotients under a tree of 4 nodes.  The two
    # nodes over a pair of 7-quotient leaves (operands of 106 terms, under
    # the FFT threshold) and the one over the 400-degree leaf make 8
    # products each, and the root takes its 4 entries in one transform
    # domain, so 4*6 products in the leaves, 3*8 + 4 in the nodes and 2 in
    # the final check
    TREE_DEGREES = (15,) * 14 + (400,) + (15,) * 14
    TREE_PRODUCTS = 54

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

    @pytest.mark.parametrize("k", range(1, QUOTIENTS + 2))
    def test_single_faulty_product_is_caught(self, monkeypatch, k):
        pqs, calls = self._stream(), []
        _fault_at(monkeypatch, k, calls)
        with pytest.raises(RuntimeError, match=f"n={self.QUOTIENTS}"):
            continuants(pqs)
        assert len(calls) == self.QUOTIENTS + 1

    @pytest.mark.parametrize("k", range(1, QUOTIENTS))
    def test_faulty_y_half_is_caught(self, monkeypatch, k):
        # entry g of a packed product (a*X, X of 2g entries) is y_n's
        # constant term: y_n off by one moves the determinant by -x_(n-1)
        pqs, calls = self._stream(), []
        _fault_at(monkeypatch, k, calls, entry=lambda b: b.size // 2)
        with pytest.raises(RuntimeError, match="determinant identity failed"):
            continuants(pqs)
        assert len(calls) == self.QUOTIENTS + 1

    def test_fault_at_every_packed_entry_is_caught(self):
        # past the cases the determinant argument covers: a term put above
        # deg x_n, where the exact product has none, crosses between the
        # halves at a later step, and the check still fails
        pqs = self._stream()
        size = 2 * (sum(pqs.degrees()) + 1)
        for k in range(1, self.QUOTIENTS):
            for i in range(size):
                with pytest.MonkeyPatch.context() as mp:
                    _fault_at(mp, k, [], entry=lambda b: i)
                    with pytest.raises(RuntimeError, match="determinant identity failed"):
                        continuants(pqs)

    @pytest.mark.parametrize("k", range(1, TREE_PRODUCTS + 1))
    def test_single_faulty_tree_product_is_caught(self, monkeypatch, k):
        # every product of a three-level tree, leaf steps, node products and
        # one-domain node entries alike; the single-quotient leaf's y' = 0
        # enters two node products
        pqs, calls = self._tree_stream(), []
        _fault_at(monkeypatch, k, calls)
        with pytest.raises(RuntimeError, match=f"n={len(pqs)}"):
            continuants(pqs)
        assert len(calls) == self.TREE_PRODUCTS

    @pytest.mark.parametrize("stream", ("pattern", "tree"))
    def test_product_count_is_exact(self, monkeypatch, stream):
        # 1 product per folded quotient after each leaf's first, 8 per node
        # formed product by product, 4 entries per node taken in one
        # transform domain (at p=7: both halves of two quotients or more,
        # their x of FFT length) and 2 for the final check; a determinant
        # check at every step or node would add 2 per step or node
        if stream == "pattern":
            pqs = pattern(build_spec(FIELDS[7], (2, 4, 5)), 65)
        else:
            pqs = self._tree_stream()
        fold, product, leaves, halves, wide, calls = cf._fold, cf._product, [], [], [], []

        def recording_fold(items, p):
            leaves.append(len(items))
            out = fold(items, p)
            halves.append((out[0].size, len(items)))
            return out

        def recording_product(items, sums, lo, hi, p):
            depth = len(halves)
            out = product(items, sums, lo, hi, p)
            if len(halves) == depth + 2:  # a node: its halves' x sizes and lengths
                (x, m), (X, n) = halves.pop(), halves.pop()
                wide.append(min(x, X) >= algebra._FFT_MIN_LEN and min(m, n) > 1)
                halves.append((out[0].size, m + n))
            return out

        monkeypatch.setattr(cf, "_fold", recording_fold)
        monkeypatch.setattr(cf, "_product", recording_product)
        _fault_at(monkeypatch, 0, calls)
        result, products = continuants(pqs), len(calls)
        assert sum(leaves) == len(pqs) and len(leaves) > 2 and len(wide) == len(leaves) - 1
        assert products == (len(pqs) - len(leaves)) + sum(4 if w else 8 for w in wide) + 2
        assert result == fold_continuants(pqs)
        if stream == "tree":
            assert leaves == [7, 7, 1, 7, 7] and wide == [False, False, False, True]

    def test_node_transforms_each_operand_once(self):
        # 300 random linear quotients: the root's halves split again into
        # leaves of 75, so only the root's operands (149 to 151 terms) reach
        # the FFT, and its 4 entries are taken in one transform domain
        rng = np.random.default_rng(16)
        K, p = FIELDS[7], 7
        pqs = PartialQuotients(
            Poly(K, (int(c), int(d))) for c, d in zip(rng.integers(0, 7, 300), rng.integers(1, 7, 300))
        )
        arrays, sums = [a.coeffs for a in pqs], list(range(301))
        halves = cf._product(arrays, sums, 0, 150, p) + cf._product(arrays, sums, 150, 300, p)
        assert min(h.size for h in halves) >= algebra._FFT_MIN_LEN
        root, log = transforms(lambda: cf._product(arrays, sums, 0, 300, p))
        _assert_one_domain_nodes(log, 1)
        operands = sorted(algebra._balanced(h, p).tobytes() for h in halves)
        assert sorted(x for kind, _, x in log if kind == "f") == operands
        assert tuple(Poly._raw(K, c) for c in root) == continuants(pqs) == fold_continuants(pqs)

    def test_random_stream_nodes_transform_at_one_length(self):
        # 64 random degree-40 quotients: leaves of 2, and the 15 nodes over
        # 8 quotients or more have operands of FFT length.  Products taken
        # one by one rounded a node's entries to different lengths, so some
        # operands were transformed once per length
        rng = np.random.default_rng(37)
        K, p = FIELDS[7], 7
        pqs = PartialQuotients(
            Poly(K, rng.integers(0, 7, 40).tolist() + [int(rng.integers(1, 7))]) for _ in range(64)
        )
        arrays, sums = [a.coeffs for a in pqs], list(range(0, 64 * 40 + 1, 40))
        root, log = transforms(lambda: cf._product(arrays, sums, 0, 64, p))
        _assert_one_domain_nodes(log, 15)
        assert tuple(Poly._raw(K, c) for c in root) == fold_continuants(pqs)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_domain_node_matches_per_product_node(self, data):
        # quotients of degrees d, e, e, d of FFT length: the root's halves
        # are the pairs, each a node over two one-quotient leaves that
        # makes its 8 products, and the root takes the one-domain path; a
        # zero bound forces the per-product node there too.  The root's
        # check makes 2 products either way
        p = data.draw(st.sampled_from(sorted(FIELDS)))
        d, e = (data.draw(st.integers(algebra._FFT_MIN_LEN, algebra._FFT_MIN_LEN + 32))
                for _ in range(2))
        pqs = PartialQuotients(data.draw(polys(p, k, k)) for k in (d, e, e, d))
        with pytest.MonkeyPatch.context() as mp:
            products = _counting_products(mp)
            _assert_reference_pair(pqs, p, algebra._FFT_MIN_LEN)
            assert len(products) == 2 * 8 + 2
            mp.setattr(algebra, "_FFT_EXACT_BOUND", 0)
            _assert_reference_pair(pqs, p, algebra._FFT_MIN_LEN)
            assert len(products) == 2 * 8 + 2 + 3 * 8 + 2

    @pytest.mark.parametrize("entry", range(4))
    def test_node_entry_failing_its_rounding_check_is_formed_by_products(self, entry):
        # the root's halves are nodes over two one-quotient leaves of 101
        # terms, whose 8 products each are convolutions, and the root's
        # entries are the first inverse transforms.  The entry's reports a
        # rounding failure: that entry alone is formed from its two
        # products, and stays exact; the root's check makes 2 more
        pqs = _random_quotients(FIELDS[7], (100,) * 4, seed=entry)
        inverse, seen = algebra._from_spectrum, []

        def failing(spectrum, size, n, p):
            seen.append(1)
            return None if len(seen) == entry + 1 else inverse(spectrum, size, n, p)

        with pytest.MonkeyPatch.context() as mp:
            products = _counting_products(mp)
            mp.setattr(algebra, "_from_spectrum", failing)
            _assert_reference_pair(pqs, 7, algebra._FFT_MIN_LEN)
        assert len(products) == 2 * 8 + 2 + 2

    @pytest.mark.parametrize("p, one_domain", [(16381, True), (16411, False)])
    def test_node_bound_falls_back_exactly(self, p, one_domain):
        # two leaves of two quotients, x of 128 terms, the FFT threshold:
        # 2*((p-1)/2)^2*128 is within 2^34 at p = 16381 and past it at
        # p = 16411, where the root makes its 8 products one by one; its
        # check makes 2 more
        pqs = _random_quotients(PrimeField(p), (63, 64, 63, 64), seed=p)
        with pytest.MonkeyPatch.context() as mp:
            products = _counting_products(mp)
            _assert_reference_pair(pqs, p, algebra._FFT_MIN_LEN)
        assert len(products) == (0 if one_domain else 8) + 2

    def test_node_with_a_one_quotient_half_forms_its_products(self):
        # the root's halves are a node over quotients of degree 100 and one
        # quotient of degree 400, (a, 1, 1, 0), which leaves the root two
        # products by a: it forms its entries product by product, 8
        # `_mul_arrays` calls like its left half's, and the check makes 2
        pqs = _random_quotients(FIELDS[7], (100, 100, 400), seed=5)
        with pytest.MonkeyPatch.context() as mp:
            products = _counting_products(mp)
            _assert_reference_pair(pqs, 7, algebra._FFT_MIN_LEN)
        assert len(products) == 8 + 8 + 2

    def test_leaf_outputs_own_their_arrays(self):
        # a deep quotient is a leaf of its own; views of its packed arrays
        # would keep four times its size alive in the tree above
        a = FIELDS[7].T ** 5000 + 1
        assert all(h.base is None for h in cf._fold([a.coeffs], 7))

    def test_prefixed_pair_is_the_whole_streams(self):
        pqs = self._stream()
        tail = PartialQuotients(pqs.items[3:])
        full, pair = prefixed_continuants(pqs.items[:3], tail)
        assert full == continuants(pqs) and pair == continuants(tail)

    @pytest.mark.parametrize("k", range(1, QUOTIENTS + 7))
    def test_single_faulty_prefixed_product_is_caught(self, monkeypatch, k):
        # 11 + 2 products for the twelve-quotient tail, 6 + 2 for the prefix
        pqs = self._stream()
        _fault_at(monkeypatch, k, [])
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
