from __future__ import annotations

import contextlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercf import (
    BiPoly,
    InsufficientPrecisionError,
    LaurentSeries,
    NoAdmissibleQuotientError,
    PartialQuotients,
    Poly,
    PrimeField,
    build_spec,
    cf_to_series,
    continuants,
    convergent_validity_floor,
    eval_at_series,
    expand,
    mills_robbins_equation,
    pattern,
    pattern_equation,
    pattern_position,
    rational_to_cf,
    series_from_rational,
)
from hypercf import algebra, expansion, series
from hypercf.algebra import _trim
from hypercf.grids import MILLS_ROBBINS_U1, verification_steps

from conftest import FIELDS, polys
from reference import (
    dense_expand,
    dict_coeffs,
    horner_eval_at_series,
    next_step,
    poly_dict,
    radd,
    rdivmod,
    reval,
    rhomogeneous,
    rmul,
    rsub,
    stepwise_expand,
)


def _linear_equation(num: Poly, den: Poly) -> BiPoly:
    # den*x - num has root num/den
    return BiPoly(num.field, [-num, den])


def _equations(p: int, max_degree_x: int, dense=None):
    """Equations of x-degree 1..max_degree_x over F_p: dense, or with a
    random support whose gaps fall across the residue classes mod p."""
    K = FIELDS[p]

    def build(deg_x, is_dense, support, coeffs):
        lower = range(deg_x) if is_dense else sorted(support & set(range(deg_x)))
        return BiPoly(K, {e: coeffs[e] for e in (*lower, deg_x)})

    return st.integers(1, max_degree_x).flatmap(
        lambda d: st.builds(
            build,
            st.just(d),
            st.booleans() if dense is None else st.just(dense),
            st.sets(st.integers(0, d - 1)),
            st.lists(polys(p, 0, 3), min_size=d + 1, max_size=d + 1),
        )
    )


class TestBiPoly:
    def test_dense_and_sparse_construction_agree(self):
        K = FIELDS[5]
        T = K.T
        dense = BiPoly(K, [T, Poly(K, ()), Poly(K, ()), 2 * T])
        sparse = BiPoly(K, {3: 2 * T, 0: T, 1: Poly(K, ())})
        assert dense == sparse and hash(dense) == hash(sparse)
        assert dense.coefficient(1) == Poly(K, ()) and dense.coefficient(7) == Poly(K, ())
        assert repr(sparse) == "(2*t)*x^3 + (t)"

    def test_trims_leading_zeros(self):
        K = FIELDS[5]
        eq = BiPoly(K, [K.T, Poly(K, (1,)), Poly(K, ()), Poly(K, ())])
        assert eq.degree_x == 1

    def test_requires_degree_one(self):
        K = FIELDS[5]
        T = K.T
        for coeffs in ([T], [T, 0], {0: T, 2: Poly(K, ())}, {}):
            with pytest.raises(ValueError, match="degree in x must be at least 1"):
                BiPoly(K, coeffs)

    def test_evaluation(self):
        K = FIELDS[5]
        T = K.T
        eq = BiPoly(K, [T, Poly(K, (2,)), Poly(K, (1,))])  # x^2 + 2x + t
        assert eq(T) == T * T + 2 * T + T

    def test_coefficients_are_polynomials(self):
        K = FIELDS[5]
        T = K.T
        s = series_from_rational(T + 1, T ** 2, -10)
        assert BiPoly(K, [np.int64(-2), True, K(3), T]) == BiPoly(K, [3, 1, 3, T])
        for bad in (s, 2.5, "3", np.array([1, 2])):
            with pytest.raises(TypeError):
                BiPoly(K, {1: T, 0: bad})
        with pytest.raises(ValueError, match="field mismatch"):
            BiPoly(K, {1: T, 0: FIELDS[7](3)})
        # a series is no public operand: windows are the engine's alone
        eq = BiPoly(K, [T, Poly(K, (1,))])
        with pytest.raises(TypeError):
            eq(s)

    def test_only_the_unit_is_left_unmultiplied(self):
        # a product by the unit marker is the other factor itself; a
        # product of two slots is a new slot, one traced product
        ops = []
        a, b = expansion._Slot(ops), expansion._Slot(ops)
        unit = expansion._UNIT
        assert expansion._times({0: unit}, {1: a})[1] is a
        assert expansion._times({1: a}, {0: unit})[1] is a
        assert expansion._times({0: unit}, {0: unit})[0] is unit
        assert len(ops) == 2
        ab = expansion._times({1: a}, {2: b})[3]
        assert ab.__class__ is expansion._Slot and ab not in (a, b)
        assert len(ops) == 3 and ops[ab.index][:2] == (expansion._raw_mul, (0, 1))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_evaluation_matches_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        P = data.draw(_equations(p, 2 * p + 1))
        v = data.draw(polys(p, 0, 3))
        want = reval({e: poly_dict(c) for e, c in P.terms.items()}, poly_dict(v), p)
        assert poly_dict(P(v)) == want


class TestNextStep:
    def test_reference_first_quotient(self):
        K = FIELDS[7]
        spec = build_spec(K, (2, 4, 5))
        bar, nxt = next_step(pattern_equation(spec))
        assert bar == 2 * K.T
        assert nxt is not None and nxt.degree_x == 8

    def test_linear_rational_root(self):
        K = FIELDS[5]
        T = K.T
        bar, nxt = next_step(BiPoly(K, [-T, Poly(K, (1,))]))  # x - t
        assert bar == T and nxt is None

    def test_p3_all_ones_first_quotient(self):
        K = FIELDS[3]
        spec = build_spec(K, (1, 1, 1))
        bar, _ = next_step(pattern_equation(spec))
        assert bar == K.T

    def test_abort_on_inadmissible_bar(self):
        K = FIELDS[5]
        # x^2 - x - t: the extracted integer part is the constant 1
        eq = BiPoly(K, [-K.T, Poly(K, (4,)), Poly(K, (1,))])
        with pytest.raises(NoAdmissibleQuotientError):
            next_step(eq)

    def test_iterating_matches_expand(self):
        K = FIELDS[5]
        spec = build_spec(K, (2, 3, 3))
        eq = pattern_equation(spec)
        collected = []
        for _ in range(9):
            bar, eq = next_step(eq)
            collected.append(bar)
        assert PartialQuotients(collected) == expand(pattern_equation(spec), 9).quotients

    def test_p11_step_keeps_hyperquadratic_support(self):
        K = FIELDS[11]
        eq = pattern_equation(build_spec(K, (3, 5, 7)))
        for _ in range(pattern_position(11, 1) + 1):
            _, eq = next_step(eq)
            assert sorted(eq.terms) == [0, 1, 11, 12]


class TestLeanStep:
    """The one evaluator skips products by the unit, so that a step on the
    support {0, 1, p, p+1} is the closed form A' = bar^p*(A*bar + B) +
    C*bar + D, B' = A*bar^p + C, C' = A*bar + B, D' = A, and a composite
    map transforms each shared operand once."""

    @staticmethod
    def _tall_equation(steps: int) -> BiPoly:
        eq = pattern_equation(build_spec(FIELDS[7], (2, 4, 5)))
        for _ in range(steps):
            _, eq = next_step(eq)
        return eq

    def test_windowed_step_makes_four_products_none_by_a_unit(self, monkeypatch):
        # the step multiplies raw windows, so the products are counted at
        # the series kernel; a product by the unit would have a 1-entry
        # operand, none goes through LaurentSeries, and each has a window
        # for one factor (the schedule is traced afresh, so that its
        # products are the counting `_raw_mul`, each with the sum that
        # reads it: a*b + c in one call)
        full = self._tall_equation(60)
        K = full.field
        windows = expansion._windows(full._raw_terms())
        assert windows is not None
        kernel, floors, elsewhere = [], [], []
        real_kernel, real_mul = series._mul_arrays, expansion._raw_mul

        def counting(a, b, p, *addend):
            kernel.append((a.size, b.size))
            return real_kernel(a, b, p, *addend)

        def product(a, b, p, *addend):
            floors.append((a[0], b[0]))
            return real_mul(a, b, p, *addend)

        def unexpected(*args, **kwargs):
            elsewhere.append(args)
            raise AssertionError("a windowed product left the raw series rule")

        monkeypatch.setattr(series, "_mul_arrays", counting)
        monkeypatch.setattr(expansion, "_raw_mul", product)
        monkeypatch.setattr(expansion, "_SCHEDULES", {})
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(LaurentSeries, name, unexpected)
        bar, tail = expansion._step(K, windows)
        (steps, _, _), = expansion._SCHEDULES.values()
        monkeypatch.undo()
        assert not elsewhere
        # 1 Frobenius image and 4 products, each fused with its sum
        assert len(steps) == 5
        assert sorted(len(args) for _, args, _, _ in steps) == [1, 3, 3, 3, 3]
        assert len(kernel) == 4 and all(min(sizes) > 1 for sizes in kernel)
        assert len(floors) == 4 and all(pair.count(None) == 1 for pair in floors)
        full_bar, full_tail = expansion._step(K, full._raw_terms())
        assert bar == full_bar and tail.keys() == full_tail.keys()
        for e, (v, w) in tail.items():
            assert np.array_equal(series._cut(full_tail[e], v), w)

    def test_full_size_step_makes_four_products(self, monkeypatch):
        full = self._tall_equation(60)
        pairs = []
        real = series._mul_arrays

        def counting(a, b, p, *addend):
            pairs.append((a.size, b.size))
            return real(a, b, p, *addend)

        monkeypatch.setattr(series, "_mul_arrays", counting)
        next_step(full)
        assert len(pairs) == 4 and all(min(sizes) > 1 for sizes in pairs)

    def test_apply_transforms_each_operand_once_per_length(self, monkeypatch):
        # u1, v1, u2 and v2 meet x^p, x_prev^p, y^p and y_prev^p in the
        # outer level: every operand's spectrum serves all its products,
        # all at one length, a Frobenius image's is read off its input's,
        # so each map makes 8 forward transforms, 4 coefficients and 4
        # continuants, and each of the 4 tail coefficients takes one
        # inverse transform
        spec = build_spec(FIELDS[7], (2, 4, 5))
        transforms, operands = [], []
        real_balanced, real_rfft, real_irfft = algebra._balanced, np.fft.rfft, np.fft.irfft
        real_apply = expansion._apply

        def balanced(x, p):
            operands.append(x)  # kept alive, so ids stay unique
            return real_balanced(x, p)

        def rfft(x, n):
            if transforms and transforms[-1] is not None:
                transforms[-1][0].append((id(operands[-1]), n))
            return real_rfft(x, n)

        def irfft(x, n):
            if transforms and transforms[-1] is not None:
                transforms[-1][1].append(n)
            return real_irfft(x, n)

        def apply(*args):
            transforms.append(([], []))
            try:
                tail = real_apply(*args)
                transforms[-1][1].append(len(tail))
                return tail
            finally:
                transforms.append(None)

        monkeypatch.setattr(algebra, "_balanced", balanced)
        monkeypatch.setattr(np.fft, "rfft", rfft)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        monkeypatch.setattr(expansion, "_apply", apply)
        m = pattern_position(7, 4)
        assert expand(pattern_equation(spec), m).quotients == pattern(spec, m)
        per_apply = [t for t in transforms if t is not None]
        assert len(per_apply) == 6 and all(len(keys) == 8 for keys, _ in per_apply)
        for keys, (*inverses, outputs) in per_apply:
            assert len(keys) == len(set(keys))
            assert outputs == len(inverses) == 4
            assert len({n for _, n in keys} | set(inverses)) == 1


    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mobius_matches_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        K = FIELDS[p]
        P = data.draw(_equations(p, 2 * p + 2))
        entry = st.one_of(
            st.sampled_from((0, 1, Poly(K, ()), Poly(K, (1,)))), polys(p, 0, 3)
        )
        x, y, x_prev, y_prev = (data.draw(entry) for _ in range(4))
        v = poly_dict(data.draw(polys(p, 0, 2)))

        def poly(c):
            return c if isinstance(c, Poly) else Poly(K, (c,))

        arrays = tuple(poly(c).coeffs for c in (x, y, x_prev, y_prev))
        tail = expansion._mobius(p, P._raw_terms(), *arrays)
        assert all(floor is None and c.size for floor, c in tail.values())
        _assert_mobius_matches_reference(P, tail, arrays, v)


def _mobius_maps(x, y, x_prev, y_prev) -> tuple:
    """z and w of `_mobius` for continuant arrays."""
    return tuple({e: (None, c) for e, c in ((1, a), (0, b)) if c.size}
                 for a, b in ((x, x_prev), (y, y_prev)))


def _assert_mobius_matches_reference(P: BiPoly, tail: dict, arrays, v: dict):
    """tail, a term map in y', at y' = v against the homogeneous form."""
    p = P.field.p
    num, den = (radd(rmul(_array_dict(a), v, p), _array_dict(b), p)
                for a, b in ((arrays[0], arrays[2]), (arrays[1], arrays[3])))
    terms = {e: poly_dict(c) for e, c in P.terms.items()}
    want = rhomogeneous(terms, P.degree_x, num, den, p)
    assert reval({e: _array_dict(c) for e, (_, c) in tail.items()}, v, p) == want


class TestSpectralReplay:
    """A composite map of exact values, none the unit, is replayed in one
    transform domain, and falls back to the per-product replay when a
    coefficient bound or a rounding check fails."""

    @staticmethod
    def _hyperquadratic(p: int):
        return st.lists(polys(p, 0, 3), min_size=4, max_size=4).map(
            lambda cs: BiPoly(FIELDS[p], dict(zip((p + 1, p, 1, 0), cs)))
        )

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_per_product_replay_and_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        K = FIELDS[p]
        P = data.draw(st.one_of(
            self._hyperquadratic(p), _equations(p, 3, dense=True),
            st.just(BiPoly(K, {1: 1})),
        ))
        # continuant arrays, each empty half the time: with x and x_prev
        # both empty the map of {1: 1} has no outputs at all
        entry = st.one_of(st.just([]), st.lists(st.integers(0, p - 1), max_size=30))
        arrays = tuple(_trim(np.array(data.draw(entry), dtype=np.int64)) for _ in range(4))
        with mock.patch.object(expansion, "_evaluate", wraps=expansion._evaluate) as replay:
            tail = expansion._mobius(p, P._raw_terms(), *arrays)
        assert not replay.called  # the spectral path ran and held
        per_product = expansion._evaluate(p, P._raw_terms(), *_mobius_maps(*arrays))
        assert tail.keys() == per_product.keys()
        for e, (v, c) in tail.items():
            assert v is None and c.size and np.array_equal(c, per_product[e][1])
        _assert_mobius_matches_reference(P, tail, arrays, poly_dict(data.draw(polys(p, 0, 2))))

    @staticmethod
    def _tall_map():
        """The p=7 (2,4,5) equation and the continuant arrays of its first
        30 quotients: an apply's shape and sizes."""
        eq = pattern_equation(build_spec(FIELDS[7], (2, 4, 5)))
        qs = expand(eq, 30).quotients
        return eq, tuple(c.coeffs for c in continuants(qs))

    def test_falls_back_on_the_rounding_check(self, monkeypatch):
        eq, arrays = self._tall_map()
        inverses, replays = [], []
        real_inverse, real_evaluate = algebra._from_spectrum, expansion._evaluate

        def off(spectrum, size, n, p):
            # a constant added to every bin moves coefficient 0 alone
            inverses.append(n)
            return real_inverse(spectrum + 0.3, size, n, p)

        def evaluate(*args):
            replays.append(args)
            return real_evaluate(*args)

        monkeypatch.setattr(algebra, "_from_spectrum", off)
        monkeypatch.setattr(expansion, "_evaluate", evaluate)
        tail = expansion._mobius(7, eq._raw_terms(), *arrays)
        monkeypatch.undo()
        assert inverses and len(replays) == 1
        assert tail.keys() == {0, 1, 7, 8}
        want = expansion._evaluate(7, eq._raw_terms(), *_mobius_maps(*arrays))
        for e, (v, c) in tail.items():
            assert v is None and np.array_equal(c, want[e][1])
        _assert_mobius_matches_reference(eq, tail, arrays, {0: 2, 1: 1})

    def test_falls_back_on_the_coefficient_bound(self, monkeypatch):
        # at p = 65521 a product of products may pass 2^34: no transform
        p = 65521
        K = PrimeField(p)
        rng = np.random.default_rng(3)
        P = BiPoly(K, [Poly(K, rng.integers(0, p, 4).tolist() + [1]) for _ in range(4)])
        arrays = tuple(_trim(rng.integers(0, p, k).astype(np.int64)) for k in (9, 8, 6, 5))
        transforms = []

        def spectrum(*args):
            transforms.append(args)
            raise AssertionError("a transform past the bound")

        monkeypatch.setattr(algebra, "_spectrum", spectrum)
        assert expansion._spectral(p, P._raw_terms(), *_mobius_maps(*arrays)) is None
        tail = expansion._mobius(p, P._raw_terms(), *arrays)
        monkeypatch.undo()
        assert not transforms and tail.keys() == {0, 1, 2, 3}
        _assert_mobius_matches_reference(P, tail, arrays, {0: 5, 1: 7, 2: 1})


#: where a z/w entry is the unit marker; w keeps one non-unit entry,
#: since w's powers would add two units
UNIT_PLACES = st.sets(st.sampled_from(("z1", "z0", "w1", "w0"))).filter(
    lambda places: not {"w1", "w0"} <= places
)


def _raw_value(c) -> tuple:
    """A Poly or a LaurentSeries as a raw value."""
    return (c.valid_order, c.coeffs) if isinstance(c, LaurentSeries) else (None, c.coeffs)


def _raw_map(terms) -> dict:
    return {e: c if c is expansion._UNIT else _raw_value(c) for e, c in terms.items()}


def _array_dict(arr) -> dict:
    return {i: int(c) for i, c in enumerate(arr) if c}


class TestSchedule:
    """`_evaluate` replays one straight-line schedule per shape, traced
    from the Frobenius-split Horner on placeholder slots, on raw
    (floor, array) values."""

    @staticmethod
    def _maps(data, p: int, entry):
        """z and w, {1: ., 0: .} each, an entry the unit, absent or drawn."""
        units = data.draw(UNIT_PLACES)
        maps = []
        for name in ("z", "w"):
            terms = {}
            for e in (1, 0):
                if f"{name}{e}" in units:
                    terms[e] = expansion._UNIT
                elif data.draw(st.booleans()):
                    terms[e] = data.draw(entry)
            maps.append(terms)
        return maps

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_polys(self, data):
        # y -> T^K, K above every coefficient degree, maps the result
        # one-to-one to a polynomial in T: the whole term map is checked
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        P = data.draw(_equations(p, 2 * p + 2))
        terms = {e: poly_dict(c) for e, c in P.terms.items()}
        z, w = self._maps(data, p, polys(p, 0, 3))
        value = data.draw(st.booleans())
        if value:  # P(z[0]), the unit or a Poly or zero
            z, w = {e: c for e, c in z.items() if e == 0}, {0: expansion._UNIT}
        got = expansion._evaluate(p, _raw_map(P.terms), _raw_map(z), _raw_map(w))
        assert all(v is None and c.size for v, c in got.values())
        K = 4 + 4 * P.degree_x

        def at_y(t):
            out = {}
            for e, c in t.items():
                c = {0: 1} if c is expansion._UNIT else poly_dict(c)
                out = radd(out, rmul(c, {K * e: 1}, p), p)
            return out

        flat = {}
        for e, (_, c) in got.items():
            flat = radd(flat, rmul(_array_dict(c), {K * e: 1}, p), p)
        assert flat == rhomogeneous(terms, P.degree_x, at_y(z), at_y(w), p)
        if value:
            assert got.keys() <= {0}
            want = reval(terms, at_y(z), p)
            assert (_array_dict(got[0][1]) if got else {}) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_windows_are_exact_above_their_floors(self, data):
        # coefficients cut to windows at drawn floors: each value the
        # replay returns equals the exact one cut at its floor
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        K = FIELDS[p]
        P = data.draw(_equations(p, 2 * p + 2))
        z, w = self._maps(data, p, polys(p, 0, 3))
        exact = expansion._evaluate(p, _raw_map(P.terms), _raw_map(z), _raw_map(w))

        def cut(terms):
            out = {}
            for e, c in terms.items():
                if c is not expansion._UNIT and data.draw(st.booleans()):
                    c = LaurentSeries.from_poly(c, data.draw(st.integers(-2, 4)))
                out[e] = c
            return out

        windows = expansion._evaluate(
            p, *(_raw_map(cut(t)) for t in (P.terms, z, w))
        )
        assert exact.keys() <= windows.keys()
        for e, (v, c) in windows.items():
            want = Poly._raw(K, exact[e][1]) if e in exact else Poly(K, ())
            if v is None:
                assert np.array_equal(c, want.coeffs)
            else:
                assert LaurentSeries._raw(K, v, c) == LaurentSeries.from_poly(want, v)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_horner_at_a_series(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        K = FIELDS[p]
        P = data.draw(_equations(p, 2 * p + 2))
        top = data.draw(st.integers(-3, 3))
        size = data.draw(st.integers(0, 30))
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
        s = LaurentSeries(K, top, coeffs, top - size + 1)
        (v, c), = expansion._evaluate(
            p, _raw_map(P.terms), {0: _raw_value(s)}, {0: expansion._UNIT}
        ).values()
        want = horner_eval_at_series(P, s)
        assert v <= want.valid_order
        assert LaurentSeries._raw(K, v, c).truncated(want.valid_order) == want

    def test_each_shape_is_traced_once(self, monkeypatch):
        keys = []
        real = expansion._trace

        def trace(*key):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(expansion, "_SCHEDULES", {})
        monkeypatch.setattr(expansion, "_trace", trace)
        K = FIELDS[7]
        eq = pattern_equation(build_spec(K, (2, 4, 5)))
        m = pattern_position(7, 3)
        run = expand(eq, m)
        first = len(keys)
        assert 0 < first == len(set(keys)) <= 6
        assert expand(eq, m).quotients == run.quotients
        assert expand(pattern_equation(build_spec(K, (3, 1, 6))), m).quotients
        assert len(keys) == first
        # every slot read and not returned is dropped after its last read,
        # a fused product's three operands included; a step reads only
        # inputs and slots formed before it, and no sum is left reading a
        # product that nothing else reads
        arities = []
        for (_, P, z, w), (steps, outputs, size) in expansion._SCHEDULES.items():
            returned = {r for _, r in outputs}
            formed = set(range(len(P) + sum(not unit for _, unit in z + w)))
            reads = Counter([r for _, args, _, _ in steps for r in args] + list(returned))
            products = {out for kind, args, out, _ in steps
                        if kind is expansion._raw_mul and len(args) == 2 and reads[out] == 1}
            last = {}
            for k, (kind, args, out, _) in enumerate(steps):
                assert set(args) <= formed and len(args) in (
                    (1,) if kind is expansion._raw_frobenius else
                    (2,) if kind is expansion._raw_add else (2, 3))
                assert kind is not expansion._raw_add or not products & set(args)
                formed.add(out)
                arities.append(len(args))
                for r in args:
                    last[r] = k
            for k, (_, _, _, dead) in enumerate(steps):
                assert sorted(dead) == sorted(r for r, at in last.items()
                                              if at == k and r not in returned)
        assert arities.count(3) >= 4


def _outcome(engine, equation: BiPoly, m: int) -> tuple:
    """An engine's result in the shape returned by reference.dense_expand."""
    try:
        run = engine(equation, m)
    except NoAdmissibleQuotientError as err:
        return ("abort", err.step, list(err.emitted), err.bar)
    except RuntimeError as err:
        return ("guard", str(err))
    assert run.rational == (run.rational_value is not None)
    return (
        "done",
        list(run.quotients),
        run.rational_value,
        run.max_coeff_degree,
        run.coeff_degree_bound,
    )


def _dense_outcome(equation: BiPoly, m: int) -> tuple:
    dense = [equation.coefficient(i) for i in range(equation.degree_x + 1)]
    return dense_expand(dense, m)


#: window lengths for the jumps: short ones make jumps, window exhaustion
#: and full-size fallbacks all happen at small p
WINDOWS = st.sampled_from((4, 8, 16, expansion._WINDOW_MIN_LEN))


def _jump_outcome(equation: BiPoly, m: int, window: int) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_WINDOW_MIN_LEN", window)
        return _outcome(expand, equation, m)


#: the greatest tail height to which random dense equations are compared:
#: some draws' quotient degrees triple at each step, and by the fifteenth
#: quotient their heights run into the millions in every engine
DENSE_HEIGHT_BUDGET = 10_000


def _steps_within(equation: BiPoly, budget: int, cap: int = 15) -> int:
    """How many quotients of the equation to compare, at most cap: through
    an abort or a rational end, or else through the last step whose tail
    `next_step` keeps at most `budget` high (at least one step)."""
    for m in range(1, cap + 1):
        try:
            _, equation = next_step(equation)
        except NoAdmissibleQuotientError:
            return m
        if equation is None:
            return m
        if equation.max_coeff_degree() > budget:
            return max(m - 1, 1)
    return cap


def _assert_oracles_agree(equation: BiPoly, m: int, window: int, dense: bool = True):
    got = _jump_outcome(equation, m, window)
    assert got == _outcome(stepwise_expand, equation, m)
    if dense:
        assert got == _dense_outcome(equation, m)


class TestAgainstDenseEngine:
    """expand, which decides quotients on windows and jumps, against the
    dense Horner engine and against the one-step-per-quotient loop."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pattern_equations(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        u = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        steps = data.draw(st.integers(1, verification_steps(p)))
        eq = pattern_equation(build_spec(FIELDS[p], u))
        # the dense oracle costs seconds past n_1 at p >= 11
        dense = p <= 7 or steps <= pattern_position(p, 1) + 6
        _assert_oracles_agree(eq, steps, data.draw(WINDOWS), dense)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_all_linear_family(self, data):
        p = data.draw(st.sampled_from((5, 7, 11)))
        u1 = data.draw(st.integers(1, p - 1).filter(lambda v: (1 + 2 * v) % p))
        steps = data.draw(st.integers(1, 120))
        eq = mills_robbins_equation(FIELDS[p], u1)
        _assert_oracles_agree(eq, steps, data.draw(WINDOWS), dense=steps <= 60)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_dense_equations(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        deg_x = data.draw(st.integers(1, 6))
        zero = Poly(FIELDS[p], ())
        lower = data.draw(
            st.lists(st.one_of(st.just(zero), polys(p, 0, 3)),
                     min_size=deg_x, max_size=deg_x)
        )
        eq = BiPoly(FIELDS[p], lower + [data.draw(polys(p, 0, 3))])
        _assert_oracles_agree(eq, _steps_within(eq, DENSE_HEIGHT_BUDGET), data.draw(WINDOWS))

    def test_dense_equation_of_tripling_degrees(self):
        # quotient degrees 1, 2, 7, 20, 61, ...: the fifteenth tail is
        # 5.4 million high, so the comparison stops at the height budget
        K = FIELDS[3]
        T = K.T
        eq = BiPoly(K, [0, T + 2, 0, 0, T + 2, 2])
        m = _steps_within(eq, DENSE_HEIGHT_BUDGET)
        assert m == 8
        _assert_oracles_agree(eq, m, window=4)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_sparse_supports(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        eq = data.draw(_equations(p, 2 * p + 1, dense=False))
        if data.draw(st.booleans()):
            # a step-1 quotient of degree >= 1, so the run goes on past it
            n = eq.degree_x
            terms = dict(eq.terms)
            terms[n - 1] = data.draw(polys(p, int(terms[n].degree) + 1, 4))
            eq = BiPoly(FIELDS[p], terms)
        _assert_oracles_agree(eq, 12, data.draw(WINDOWS))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_single_root_dense_equations(self, data):
        # one root of degree >= 1 and the rest of negative degree: runs that
        # go on for many quotients instead of aborting early
        p = data.draw(st.sampled_from((3, 5, 7)))
        eq = data.draw(_single_root_equations(p))
        _assert_oracles_agree(eq, 30, data.draw(WINDOWS))


def _single_root_equations(p: int, max_degree_x: int = 5):
    """Dense equations whose Newton polygon gives one root of degree
    deg P[n-1] - deg P[n] >= 1, every other coefficient lying below P[n-1]
    in degree, so the remaining roots have negative degree."""
    K = FIELDS[p]

    def build(top, mid, lower):
        return BiPoly(K, [*lower, mid, top])

    def for_degree(n):
        return st.integers(0, 2).flatmap(
            lambda d_top: st.integers(d_top + 1, d_top + 4).flatmap(
                lambda d_mid: st.builds(
                    build,
                    polys(p, d_top, d_top),
                    polys(p, d_mid, d_mid),
                    st.lists(polys(p, 0, d_mid - 1), min_size=n - 1, max_size=n - 1),
                )
            )
        )

    return st.integers(1, max_degree_x).flatmap(for_degree)


class TestJumps:
    def test_small_windows_jump_exhaust_and_fall_back(self, monkeypatch):
        # p=5 through n_3 on 8-term windows: jumps of several quotients,
        # windows that run out, and full-size steps only where a jump
        # decides nothing.  A jump is a round on the exact map: the loop
        # run on its windows, then one apply of what they decided, so only
        # the applies to exact maps are counted.  Exhaustion shows at the
        # stop: short of its budget, the windows' last tail cannot decide
        # the next bar
        K = FIELDS[5]
        spec = build_spec(K, (2, 3, 3))
        m = verification_steps(5)
        jumps, exhausted, full = [], [], []
        real_windows, real_apply, real_step = (
            expansion._windows, expansion._apply, expansion._step)

        def exact(P):
            return all(v is None for v, _ in P.values())

        def windows(P):
            if exact(P):  # a round on the exact map: a jump of none until applied
                jumps.append(0)
            return real_windows(P)

        def apply(p, P, bars, tail):
            if exact(P):
                jumps[-1] = len(bars)
                budget = m - 1 - sum(jumps[:-1]) - len(full)
                if len(bars) < budget:
                    try:
                        real_step(K, tail)
                    except InsufficientPrecisionError:
                        exhausted.append(tail)
            return real_apply(p, P, bars, tail)

        def step(field, P):
            if exact(P):
                full.append(jumps[-1])
            return real_step(field, P)

        monkeypatch.setattr(expansion, "_WINDOW_MIN_LEN", 8)
        monkeypatch.setattr(expansion, "_windows", windows)
        monkeypatch.setattr(expansion, "_apply", apply)
        monkeypatch.setattr(expansion, "_step", step)
        assert expand(pattern_equation(spec), m).quotients == pattern(spec, m)
        assert max(jumps) >= 4 and 0 in jumps and exhausted
        assert full and set(full) == {0}
        assert len(jumps) < m // 2

    def test_a_tail_zero_to_its_floor_ends_the_jump(self, monkeypatch):
        # den*x - q*den: the first step's tail coefficient den*q - q*den is
        # exactly zero, so on windows it is zero to its floor, of unknown
        # degree; the run on the windows ends before that step, and the
        # rational end falls to a full-size step
        K = FIELDS[5]
        den = Poly(K, [1, 2, 0, 3] * 5 + [1])
        q = Poly(K, (3, 2))
        monkeypatch.setattr(expansion, "_WINDOW_MIN_LEN", 4)
        eq = BiPoly(K, [-(q * den), den])
        windows = expansion._windows(eq._raw_terms())
        assert windows is not None and list(expansion._run(K, windows, 5)) == []
        run = expand(eq, 5)
        assert run.rational and list(run.quotients) == [q]

    def test_a_constant_bar_on_windows_ends_their_run(self, monkeypatch):
        # (x - 3)*(A*x + B) with deg B < deg A: the windows decide the
        # constant bar 3, but cannot tell the root from an abort, so their
        # run ends, and the step on the exact map finds the rational end
        K = FIELDS[5]
        A, B, c = Poly(K, [1, 2, 0, 3] * 5 + [1]), Poly(K, (4, 1, 2)), Poly(K, (3,))
        eq = BiPoly(K, [-(c * B), B - c * A, A])
        monkeypatch.setattr(expansion, "_WINDOW_MIN_LEN", 4)
        assert expansion._windows(eq._raw_terms()) is not None
        run = expand(eq, 3)
        assert run.rational and run.rational_value == c and not run.quotients
        assert _outcome(expand, eq, 3) == _outcome(stepwise_expand, eq, 3)

    def test_a_cut_below_a_floor_ends_the_jump(self, monkeypatch):
        # a step that would read a window below its floor cannot decide its
        # quotient: the run on the windows stops there, before a wrong
        # quotient is made, and the rounds before it stand
        eq = pattern_equation(build_spec(FIELDS[7], (2, 4, 5)))
        for _ in range(60):
            _, eq = next_step(eq)
        want = expand(eq, 3).quotients
        real_step, calls = expansion._step, []

        def step(field, P):
            calls.append(P)
            if len(calls) == 3:
                series._cut((10, np.arange(6)), 7)
            return real_step(field, P)

        monkeypatch.setattr(expansion, "_step", step)
        bars, windows = [], expansion._windows(eq._raw_terms())
        with pytest.raises(InsufficientPrecisionError):
            for more, _, windows in expansion._run(eq.field, windows, 5):
                bars += more
        assert len(calls) == 3 and windows is not None
        assert bars == list(want[:2])

    def test_the_loop_runs_on_windows_of_windows(self, monkeypatch):
        # p=11 through n_4 on 4-term windows: the loop runs on the exact
        # map, on its windows and on windows cut from those, three levels
        # below the exact map, and the deepest level decides quotients of
        # its own; the outcome is the one-step loop's, height and bound too
        spec = build_spec(FIELDS[11], (3, 10, 5))
        eq, m = pattern_equation(spec), pattern_position(11, 4)
        level, decided = [0], {}
        real_run = expansion._run

        def run(field, P, budget):
            level[0] += 1
            decided.setdefault(level[0], 0)
            try:
                for bars, heights, tail in real_run(field, P, budget):
                    decided[level[0]] += len(bars)
                    yield bars, heights, tail
            finally:
                level[0] -= 1

        monkeypatch.setattr(expansion, "_WINDOW_MIN_LEN", 4)
        monkeypatch.setattr(expansion, "_run", run)
        got = _outcome(expand, eq, m)
        monkeypatch.undo()
        assert max(decided) == 4 and decided[4] > 0
        assert got[1] == list(pattern(spec, m))
        assert got == _outcome(stepwise_expand, eq, m)

    @pytest.mark.parametrize("p, u, window", [
        (7, (2, 4, 5), expansion._WINDOW_MIN_LEN), (11, (3, 10, 5), 4)])
    def test_a_map_too_short_to_cut_is_not_asked_again(self, monkeypatch, p, u, window):
        # through n_4: windows only shorten, so once `_windows` finds a map
        # with floors too short to cut, its run asks no more; each call is
        # charged to the run whose round makes it, the innermost one running
        spec = build_spec(FIELDS[p], u)
        m = pattern_position(p, 4)
        real_run, real_windows = expansion._run, expansion._windows
        running, short, late = [], [], []  # late: asked after a None in its run

        def run(field, P, budget):
            rounds, refused = real_run(field, P, budget), [False]
            while True:
                running.append(refused)
                try:
                    got = next(rounds, None)
                finally:
                    running.pop()
                if got is None:
                    return
                yield got

        def windows(P):
            got = real_windows(P)
            if any(v is not None for v, _ in P.values()):
                refused = running[-1]
                late.append(refused[0])
                short.append(got is None)
                refused[0] = refused[0] or got is None
            return got

        monkeypatch.setattr(expansion, "_WINDOW_MIN_LEN", window)
        monkeypatch.setattr(expansion, "_run", run)
        monkeypatch.setattr(expansion, "_windows", windows)
        got = expand(pattern_equation(spec), m).quotients
        monkeypatch.undo()
        assert any(short) and sum(late) == 0
        assert got == pattern(spec, m)

    def test_next_step_is_the_one_quotient_jump(self):
        K = FIELDS[7]
        eq = pattern_equation(build_spec(K, (2, 4, 5)))
        run = expand(eq, 20)
        bar, tail = next_step(eq)
        assert bar == run.quotients[0]
        arrays = (c.coeffs for c in continuants(run.quotients[:1]))
        mobius = expansion._mobius(7, eq._raw_terms(), *arrays)
        assert tail == BiPoly(K, {e: Poly._raw(K, c) for e, (_, c) in mobius.items()})

    def test_the_loop_stays_on_raw_term_maps(self, monkeypatch):
        # p=7 through n_4: jumps, applies and full-size steps, and not one
        # series or equation object made between the input and the quotients
        spec = build_spec(FIELDS[7], (2, 4, 5))
        eq = pattern_equation(spec)
        m = pattern_position(7, 4)
        applies = []
        real_apply = expansion._apply

        def apply(*args):
            applies.append(len(args[2]))
            return real_apply(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("the engine left raw term maps")

        monkeypatch.setattr(expansion, "_apply", apply)
        for owner, name in ((LaurentSeries, "_raw"), (LaurentSeries, "from_poly"),
                            (LaurentSeries, "__init__"), (BiPoly, "__init__")):
            monkeypatch.setattr(owner, name, refuse)
        run = expand(eq, m)
        monkeypatch.undo()
        assert run.quotients == pattern(spec, m)
        assert applies and sum(applies) < m

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_misclaimed_window_is_caught_or_harmless(self, data):
        # a window that claims one coefficient more than it holds, that one
        # corrupted: the jump check must raise, or the stream must come out
        # as it would have anyway, never different
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        u = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        steps = data.draw(st.integers(2, pattern_position(p, 2) + 3))
        eq = pattern_equation(build_spec(FIELDS[p], u))
        pick = data.draw(st.integers(0, 3))
        delta = data.draw(st.integers(1, p - 1))
        got = _misclaimed_outcome(eq, steps, data.draw(WINDOWS), pick, delta)
        assert got in ("caught", _outcome(stepwise_expand, eq, steps))

    def test_misclaimed_leading_window_is_caught(self):
        for p, u in ((3, (1, 2, 1)), (7, (2, 4, 5)), (11, (3, 10, 5))):
            eq = pattern_equation(build_spec(FIELDS[p], u))
            steps = verification_steps(p)
            assert _misclaimed_outcome(eq, steps, 8, 3, 1) == "caught"

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_misclaimed_window_of_windows_is_caught_or_harmless(self, data):
        # only windows cut from windows misclaim: the check of the apply
        # one level up must raise, or the stream must come out as it would
        # have anyway.  On 4-term windows these runs cut windows from windows
        p = data.draw(st.sampled_from((3, 5, 7)))
        u = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        start = pattern_position(p, {3: 5, 5: 4, 7: 3}[p])
        steps = data.draw(st.integers(start, start + 3))
        eq = pattern_equation(build_spec(FIELDS[p], u))
        pick = data.draw(st.integers(0, 3))
        delta = data.draw(st.integers(1, p - 1))
        nested = []
        got = _misclaimed_outcome(eq, steps, 4, pick, delta, nested)
        assert nested and got in ("caught", _outcome(stepwise_expand, eq, steps))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_wrong_window_of_windows_is_caught_on_windows(self, data):
        # the loop run on the windows of a tall equation, with no apply to
        # an exact map above it, and the top entry of a window cut from
        # them off: the check of its own applies must raise, or the
        # quotients it yields must be the true ones
        p = data.draw(st.sampled_from((3, 5, 7)))
        spec = build_spec(FIELDS[p], data.draw(st.tuples(*[st.integers(1, p - 1)] * 3)))
        start = pattern_position(p, {3: 5, 5: 4, 7: 3}[p]) - 12
        eq = pattern_equation(spec)
        for _ in range(start):
            _, eq = next_step(eq)
        want = list(pattern(spec, start + 12))[start:]
        pick = data.draw(st.integers(0, 3))
        delta = data.draw(st.integers(1, p - 1))
        nested, bars = [], []
        with _misclaiming(p, 4, pick, delta, nested, at=-1):
            windows = expansion._windows(eq._raw_terms())
            try:
                for more, _, _ in expansion._run(eq.field, windows, 12):
                    bars += more
            except RuntimeError as err:
                assert "disagrees with its windows" in str(err)
            except InsufficientPrecisionError:
                pass  # the windows cannot decide the next quotient
        assert nested and bars == want[: len(bars)]


def _misclaimed_outcome(
    equation: BiPoly, m: int, window: int, pick: int, delta: int, nested=None
):
    """expand's outcome under `_misclaiming`, or "caught" when the jump
    check raises."""
    with _misclaiming(equation.field.p, window, pick, delta, nested):
        got = _outcome(expand, equation, m)
    if got[0] == "guard" and "disagrees with its windows" in got[1]:
        return "caught"
    return got


@contextlib.contextmanager
def _misclaiming(p: int, window: int, pick: int, delta: int, nested=None, at: int = 0):
    """Windows of `window` terms, where every window of the pick-th lowest
    x-exponent claims one more coefficient, and its entry `at`, by default
    the claimed one, is off by delta.  Given a list `nested`, only windows
    cut from a map that has floors misclaim, and each is appended to it."""
    real = expansion._windows

    def misclaimed(P):
        windows = real(P)
        if windows is None:
            return None
        if nested is not None:
            if all(v is None for v, _ in P.values()):
                return windows
            nested.append(windows)
        e = sorted(windows)[pick % len(windows)]
        v = windows[e][0] - 1
        true = series._cut(P[e], v)
        window = np.zeros(max(true.size, 1), dtype=np.int64)
        window[: true.size] = true
        window[at] = (window[at] + delta) % p
        return {**windows, e: (v, algebra._trim(window))}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_WINDOW_MIN_LEN", window)
        mp.setattr(expansion, "_windows", misclaimed)
        yield


class TestExpand:
    def test_reference_seven_quotients(self):
        K = FIELDS[7]
        T = K.T
        spec = build_spec(K, (2, 4, 5))
        result = expand(pattern_equation(spec), 7)
        expected = PartialQuotients(
            [
                2 * T,
                4 * T,
                5 * T,
                6 * T,
                Poly(K, [0] * 7 + [6, 0, 1, 0, 2, 0, 6]),
                T,
                4 * T,
            ]
        )
        assert result.quotients == expected
        assert not result.rational

    def test_degree_monitor_reported(self):
        K = FIELDS[3]
        spec = build_spec(K, (1, 1, 1))
        result = expand(pattern_equation(spec), 21)
        assert result.max_coeff_degree <= result.coeff_degree_bound

    def test_constant_rational_root_emits_nothing(self):
        K = FIELDS[5]
        # x - 3: the root is the constant 3, not expressible with
        # non-constant quotients, so the expansion is empty but terminal
        eq = BiPoly(K, [Poly(K, (2,)), Poly(K, (1,))])
        result = expand(eq, 4)
        assert result.rational
        assert result.rational_value == Poly(K, (3,))
        assert len(result.quotients) == 0

    def test_rational_terminates_with_full_expansion(self):
        K = FIELDS[5]
        T = K.T
        num = (T * T + 1) * (T ** 3 + 2 * T) + T
        den = T ** 3 + 2 * T
        result = expand(_linear_equation(num, den), 10)
        assert result.rational
        assert result.quotients == rational_to_cf(num, den)

    def test_abort_on_constant_quotient(self):
        K = FIELDS[5]
        # x^2 - x - t: first extracted quotient is the constant 1
        eq = BiPoly(K, [-K.T, Poly(K, (4,)), Poly(K, (1,))])
        with pytest.raises(NoAdmissibleQuotientError, match="no admissible partial quotient"):
            expand(eq, 5)

    def test_abort_reports_emitted(self):
        K = FIELDS[3]
        # after the first honest quotient the next extraction degenerates
        T = K.T
        eq = BiPoly(K, [Poly(K, (1,)), T, Poly(K, (0,)), Poly(K, (1,))])
        try:
            expand(eq, 6)
        except NoAdmissibleQuotientError as err:
            assert err.step == len(err.emitted) + 1
            assert all(a.degree >= 1 for a in err.emitted)
        # equations that do not abort are equally fine for this input shape

    def test_determinism(self):
        K = FIELDS[5]
        spec = build_spec(K, (4, 3, 4))
        eq = pattern_equation(spec)
        assert expand(eq, 12).quotients == expand(eq, 12).quotients

    @pytest.mark.parametrize("excess", (0, 1))
    def test_height_guard(self, monkeypatch, excess):
        # the engine's own heights stay within base + deg_x * (the degree
        # sum), so the second step reports one at the bound or just past it
        K = FIELDS[7]
        eq = pattern_equation(build_spec(K, (2, 4, 5)))
        bound = eq.max_coeff_degree() + eq.degree_x * 2  # after 2*T and 4*T
        real = expansion._quotients

        def tall(field, terms, m):
            for step, (bar, height) in enumerate(real(field, terms, m), start=1):
                yield bar, bound + excess if step == 2 else height

        monkeypatch.setattr(expansion, "_quotients", tall)
        if not excess:
            assert expand(eq, 3).max_coeff_degree == bound
            return
        with pytest.raises(RuntimeError, match=(
                f"coefficient degree {bound + 1} exceeded the bound {bound} after step 2")):
            expand(eq, 3)

    def test_m_validation(self):
        K = FIELDS[5]
        spec = build_spec(K, (1, 1, 1))
        with pytest.raises(ValueError):
            expand(pattern_equation(spec), 0)

    def test_p7_through_n5_matches_pattern(self):
        # 2813 quotients, the last of degree 33613
        spec = build_spec(FIELDS[7], (2, 4, 5))
        m = pattern_position(7, 5)
        assert m == 2813
        assert expand(pattern_equation(spec), m).quotients == pattern(spec, m)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reproduces_euclid_on_rationals(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        num = data.draw(polys(p, 4, 8))
        den = data.draw(polys(p, 1, 3))
        result = expand(_linear_equation(num, den), 12)
        assert result.rational
        assert result.quotients == rational_to_cf(num, den)


class TestLastStep:
    """A run's last quotient forms no tail: P(bar) read at T = 0 and at
    T = 1 shows that bar is not the root, and only where both vanish is
    P(bar) formed, which decides exactly."""

    def test_rational_end_on_the_last_step(self):
        # t*x - (t^2 + 1) over F_5: its root t + 1/t is [t, t], and at two
        # steps the second quotient, the run's last, is the root
        K = FIELDS[5]
        T = K.T
        eq = BiPoly(K, [-(T * T + 1), T])
        run = expand(eq, 2)
        assert run.rational and run.rational_value == T
        assert list(run.quotients) == [T, T]
        assert _outcome(expand, eq, 2) == _outcome(stepwise_expand, eq, 2)

    def test_probes_that_vanish_fall_back_to_the_exact_value(self, monkeypatch):
        # x^2 - T^3*x + (T^3 - T) over F_3: bar = T^3 and P(bar) = T^3 - T,
        # zero at T = 0 and at T = 1 but not zero
        K = FIELDS[3]
        T = K.T
        eq = BiPoly(K, [T ** 3 - T, -(T ** 3), 1])
        real, calls = expansion._evaluate, []

        def evaluate(p, P, z, w):
            calls.append((z, w))
            return real(p, P, z, w)

        monkeypatch.setattr(expansion, "_evaluate", evaluate)
        run = expand(eq, 1)
        monkeypatch.undo()
        assert list(run.quotients) == [T ** 3] and not run.rational
        assert eq(T ** 3) == T ** 3 - T
        assert _outcome(expand, eq, 1) == _outcome(stepwise_expand, eq, 1)
        # the one evaluation is the exact P(bar)
        [(z, w)] = calls
        assert list(z) == [0] and z[0][0] is None
        assert np.array_equal(z[0][1], (T ** 3).coeffs)
        assert list(w) == [0] and w[0] is expansion._UNIT

    def test_the_last_step_forms_no_power_of_bar(self, monkeypatch):
        # p=7 (2,4,5) through n_4 ends on a quotient of degree 4801: its
        # tail, or P(bar) itself, would take products by bar^7, 33608 terms
        spec = build_spec(FIELDS[7], (2, 4, 5))
        m = pattern_position(7, 4)
        sizes, last = [], []
        real_is_root = expansion._is_root

        def counting(real):
            def mul(a, b, p, *addend):
                if last:
                    sizes.extend((a.size, b.size))
                return real(a, b, p, *addend)
            return mul

        def is_root(field, P, bar):
            last.append(P)
            return real_is_root(field, P, bar)

        for module in (algebra, series):
            monkeypatch.setattr(module, "_mul_arrays", counting(module._mul_arrays))
        monkeypatch.setattr(expansion, "_is_root", is_root)
        run = expand(pattern_equation(spec), m)
        monkeypatch.undo()
        assert run.quotients == pattern(spec, m) and not run.rational
        power = 7 * int(run.quotients[-1].degree) + 1
        assert power == 33608 and len(last) == 1
        assert all(size < power for size in sizes)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_run_length_matches_stepwise(self, data):
        # every m ends on the last step: expand against the one-step loop,
        # field by field or by the same abort, at each m up to the oracle's
        # run length
        p = data.draw(st.sampled_from((3, 5, 7)))
        eq = data.draw(st.one_of(
            _equations(p, 2 * p + 1), _single_root_equations(p),
            st.builds(_linear_equation, polys(p, 4, 8), polys(p, 1, 3)),
        ))
        if data.draw(st.booleans()):
            # a step-1 quotient of degree >= 1, so the run goes on past it
            n = eq.degree_x
            terms = dict(eq.terms)
            terms[n - 1] = data.draw(polys(p, int(terms[n].degree) + 1, 4))
            eq = BiPoly(FIELDS[p], terms)
        window = data.draw(WINDOWS)
        for m in range(1, _steps_within(eq, 2_000, cap=10) + 1):
            assert _jump_outcome(eq, m, window) == _outcome(stepwise_expand, eq, m)


class TestBar:
    """`_bar` is -(P[n-1] // P[n]) by the floor rule of `//`.  On an exact
    map it is the negated schoolbook quotient.  On windows it is the
    negated quotient of any coefficients they are the tops of, wherever
    the rule puts the floor V = max(V_a - top_b, V_b + top_a - 2*top_b)
    at or below 0, an exact operand's term left out, and it raises
    otherwise."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_negated_schoolbook_quotient(self, data):
        # 2^31 - 1, the largest admitted prime, takes the object-dtype
        # products in the Newton steps of quotients past _NEWTON_SEED terms
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13, (1 << 31) - 1)), label="p")
        K = FIELDS[p] if p in FIELDS else PrimeField(p)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        qlen = data.draw(st.integers(1, 2 * algebra._NEWTON_SEED + 4), label="qlen")
        n = data.draw(st.integers(1, 3), label="n")

        def coefficient(degree):
            c = rng.integers(0, p, degree + 1, dtype=np.int64)
            c[-1] = rng.integers(1, p)
            return c

        def raw(c, label, edge):
            """c exact, or its window at a floor near `edge`, the deepest
            floor at which the rule leaves this operand undecided, or
            anywhere from 3 below the constant term up to the top, with
            c's terms below it redrawn: the quotient where the rule
            decides it cannot depend on them."""
            if not data.draw(st.integers(0, 2), label=f"{label} exact"):
                return (None, c), c
            floor = min(data.draw(st.one_of(
                st.integers(edge - 2, edge + 2), st.integers(-3, c.size - 1)),
                label=f"{label} floor"), c.size - 1)
            other = c.copy()
            other[: max(floor, 0)] = rng.integers(0, p, max(floor, 0))
            return (floor, series._cut((None, c), floor)), other

        degree = data.draw(st.integers(0, 40), label="deg P[n]")
        P, B = {}, np.zeros(0, dtype=np.int64)
        P[n], A = raw(coefficient(degree), "P[n]", degree - qlen + 2)
        if data.draw(st.integers(0, 9), label="P[n-1] absent") > 0:
            P[n - 1], B = raw(coefficient(degree + qlen - 1), "P[n-1]", degree + 1)
        q, _ = rdivmod(poly_dict(Poly(K, B)), poly_dict(Poly(K, A)), p)
        (v_b, _), (v_a, _) = P[n], P.get(n - 1, (None, None))
        floors = ([] if v_a is None else [v_a - (A.size - 1)]) + (
            [] if v_b is None else [v_b + (B.size - 1) - 2 * (A.size - 1)])
        if B.size and max(floors, default=0) > 0:
            with pytest.raises(InsufficientPrecisionError):
                expansion._bar(K, P)
        else:
            assert expansion._bar(K, P) == Poly(K, dict_coeffs({e: -c for e, c in q.items()}, p))


class TestIsRoot:
    """`_is_root` is the one test of P(bar) = 0, for a constant quotient and
    for a run's last: it forms nothing on windows, and on an exact map
    forms P(bar) only where its values at T = 0 and T = 1 both vanish.  A
    constant bar that is not the root aborts."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        # a root is planted as P = (x - bar)*Q, so that "root" is drawn
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]
        Q = data.draw(st.one_of(
            _equations(p, 2 * p + 1, dense=True), TestSpectralReplay._hyperquadratic(p)))
        bar = data.draw(st.one_of(st.just(Poly(K, ())), polys(p, 0, 0), polys(p, 1, 3)))
        terms = {e: poly_dict(c) for e, c in Q.terms.items()}
        if data.draw(st.booleans()):
            b, planted = poly_dict(bar), {}
            for e, c in terms.items():
                planted[e + 1] = radd(planted.get(e + 1, {}), c, p)
                planted[e] = rsub(planted.get(e, {}), rmul(b, c, p), p)
            terms = planted
        P = BiPoly(K, {e: Poly(K, dict_coeffs(c, p)) for e, c in terms.items()})
        value = reval({e: poly_dict(c) for e, c in P.terms.items()}, poly_dict(bar), p)
        probes_vanish = value.get(0, 0) % p == 0 and sum(value.values()) % p == 0
        with mock.patch.object(expansion, "_evaluate", wraps=expansion._evaluate) as evaluate:
            if bar.degree < 1 and value:
                with pytest.raises(NoAdmissibleQuotientError):
                    expansion._is_root(K, P._raw_terms(), bar)
            else:
                assert expansion._is_root(K, P._raw_terms(), bar) == (not value)
        # P(bar) is formed, once, exactly where both probes vanish
        assert evaluate.call_count == probes_vanish

    def test_windows_are_never_the_root_and_form_nothing(self, monkeypatch):
        full = TestLeanStep._tall_equation(60)
        K = full.field
        windows = expansion._windows(full._raw_terms())
        assert windows is not None
        bar = expansion._bar(K, windows)
        products = []

        def counting(real):
            def mul(a, b, p):
                products.append((a.size, b.size))
                return real(a, b, p)
            return mul

        for module in (algebra, series):
            monkeypatch.setattr(module, "_mul_arrays", counting(module._mul_arrays))
        assert bar.degree >= 1 and not expansion._is_root(K, windows, bar)
        for constant in (Poly(K, ()), Poly(K, (3,))):
            with pytest.raises(NoAdmissibleQuotientError):
                expansion._is_root(K, windows, constant)
        assert not products

    @pytest.mark.parametrize("m", (1, 4))
    def test_constant_quotient_nonzero_at_zero_aborts_unformed(self, m):
        # x^2 + x + (t + 1) over F_5: bar = 4 and P(4) = t + 1, 1 at T = 0;
        # at m = 1 bar is the run's last quotient, at m = 4 `_step` takes it
        K = FIELDS[5]
        eq = BiPoly(K, [K.T + 1, 1, 1])
        with mock.patch.object(expansion, "_evaluate", wraps=expansion._evaluate) as evaluate:
            with pytest.raises(NoAdmissibleQuotientError) as err:
                expand(eq, m)
        assert err.value.step == 1 and err.value.bar == Poly(K, (4,))
        assert not err.value.emitted and not evaluate.called
        assert eq(Poly(K, (4,))) == K.T + 1
        assert _outcome(expand, eq, m) == _outcome(stepwise_expand, eq, m)


class TestCertifiedOutput:
    """What expand emits is a root of its equation: the equation at the
    series of the stream vanishes down to the stream's validity floor."""

    @staticmethod
    def _certify(equation: BiPoly, pqs: PartialQuotients):
        alpha = cf_to_series(pqs, convergent_validity_floor(pqs))
        residual = eval_at_series(equation, alpha)
        assert residual.is_zero_to_floor
        return residual.valid_order

    def test_all_linear_family(self):
        for p in (5, 7, 11):
            for u1 in MILLS_ROBBINS_U1[p]:
                eq = mills_robbins_equation(FIELDS[p], u1)
                run = expand(eq, 200)
                assert len(run.quotients) == 200
                assert self._certify(eq, run.quotients) < -200

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_single_root_dense_equations(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        eq = data.draw(_single_root_equations(p))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expansion, "_WINDOW_MIN_LEN", data.draw(WINDOWS))
            run = expand(eq, 40)
        if run.rational:
            # a finite expansion: its convergent is the root itself
            x, y, _, _ = continuants(run.quotients)
            one = Poly(eq.field, (1,)).coeffs
            arrays = (x.coeffs, y.coeffs, one, algebra._EMPTY)
            assert eq.degree_x not in expansion._mobius(eq.field.p, eq._raw_terms(), *arrays)
        else:
            self._certify(eq, run.quotients)


class TestEvalAtSeries:
    def test_exact_root(self):
        K = FIELDS[5]
        T = K.T
        eq = BiPoly(K, [-(T * T), Poly(K, ()), Poly(K, (1,))])  # x^2 - t^2
        s = LaurentSeries.from_poly(T, -10)
        result = eval_at_series(eq, s)
        assert result.is_zero_to_floor

    def test_pattern_root_p3(self):
        K = FIELDS[3]
        spec = build_spec(K, (1, 1, 1))
        alpha = cf_to_series(pattern(spec, 21), -30)
        residual = eval_at_series(pattern_equation(spec), alpha)
        assert residual.is_zero_to_floor
        assert residual.valid_order <= -25

    def test_mills_robbins_root_p5(self):
        K = FIELDS[5]
        eq = mills_robbins_equation(K, 1)
        run = expand(eq, 40)
        alpha = cf_to_series(run.quotients, -35)
        residual = eval_at_series(eq, alpha)
        assert residual.is_zero_to_floor

    def test_residual_order_grows_with_depth(self):
        K = FIELDS[3]
        spec = build_spec(K, (2, 1, 1))
        eq = pattern_equation(spec)
        floors = []
        for m in (5, 10, 21):
            pqs = expand(eq, m).quotients
            alpha = cf_to_series(pqs, -2 * sum(pqs.degrees()[1:]))
            residual = eval_at_series(eq, alpha)
            assert residual.is_zero_to_floor
            floors.append(residual.valid_order)
        assert floors[0] > floors[1] > floors[2]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_horner_oracle(self, data):
        # the Frobenius-split floor is exact and may lie deeper than the
        # plain Horner's, never shallower; above the shallower of the two
        # the coefficients agree
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        K = FIELDS[p]
        eq = data.draw(_equations(p, 2 * p + 2))
        top = data.draw(st.integers(-3, 3))
        size = data.draw(st.integers(0, 40))
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
        s = LaurentSeries(K, top, coeffs, top - size + 1)
        got = eval_at_series(eq, s)
        want = horner_eval_at_series(eq, s)
        assert got.valid_order <= want.valid_order
        assert got.truncated(want.valid_order) == want
