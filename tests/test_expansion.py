from __future__ import annotations

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
    build_spec,
    cf_to_series,
    continuants,
    convergent_validity_floor,
    eval_at_series,
    expand,
    mills_robbins_equation,
    next_step,
    pattern,
    pattern_equation,
    pattern_position,
    rational_to_cf,
    series_from_rational,
)
from hypercf import algebra, expansion, series
from hypercf.grids import MILLS_ROBBINS_U1, verification_steps

from conftest import FIELDS, polys
from reference import (
    dense_expand,
    horner_eval_at_series,
    poly_dict,
    radd,
    reval,
    rhomogeneous,
    rmul,
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
        # of a sum or product too, not left for expand to trip on
        K = FIELDS[5]
        T = K.T
        for make in (lambda: BiPoly(K, [T]),
                     lambda: BiPoly(K, [T, 1]) + BiPoly(K, [T, 4]),
                     lambda: BiPoly(K, [T, 1]) * 0,
                     lambda: Poly(K, ()) * BiPoly(K, [T, 1])):
            with pytest.raises(ValueError, match="degree in x must be at least 1"):
                make()

    def test_evaluation(self):
        K = FIELDS[5]
        T = K.T
        eq = BiPoly(K, [T, Poly(K, (2,)), Poly(K, (1,))])  # x^2 + 2x + t
        assert eq(T) == T * T + 2 * T + T

    def test_bare_operand_is_the_constant_term(self):
        K = FIELDS[5]
        T = K.T
        eq = BiPoly(K, [T, Poly(K, (1,))])  # x + t
        assert eq + T == T + eq == BiPoly(K, [2 * T, Poly(K, (1,))])
        assert eq * T == T * eq == BiPoly(K, [T * T, T])
        with pytest.raises(ValueError, match="field mismatch"):
            eq + FIELDS[7].T
        with pytest.raises(ValueError, match="field mismatch"):
            eq * BiPoly(FIELDS[7], [1, 1])
        assert eq + 1 == 1 + eq == BiPoly(K, [T + 1, Poly(K, (1,))])
        assert eq + np.int64(-4) == eq + True == eq + K(1) == eq + 1
        assert eq * K(3) == 3 * eq == BiPoly(K, [3 * T, Poly(K, (3,))])
        with pytest.raises(ValueError, match="field mismatch"):
            eq + FIELDS[7](3)
        no_constant = BiPoly(K, {1: T})
        assert no_constant + 1 == BiPoly(K, [1, T])
        with pytest.raises(ValueError, match="field mismatch"):
            no_constant + FIELDS[7].T

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
        for op in (lambda: eq + s, lambda: eq * s, lambda: eq(s),
                   lambda: s + eq, lambda: s * eq):
            with pytest.raises(TypeError):
                op()

    def test_only_the_unit_is_left_unmultiplied(self):
        K = FIELDS[5]
        T = K.T
        assert expansion._times({0: expansion._UNIT}, {1: T})[1] is T
        assert expansion._times({1: T}, {0: expansion._UNIT})[1] is T
        # a FieldElement coefficient, 1 included, is an ordinary factor
        one = expansion._times({0: K.one}, {1: T})[1]
        assert one == T and one is not T
        assert expansion._times({0: K(2)}, {1: T}) == {1: 2 * T}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ring_operations_match_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        P = data.draw(_equations(p, 2 * p + 1))
        Q = data.draw(_equations(p, 2 * p + 1))
        v = data.draw(polys(p, 0, 3))
        ref = {
            name: reval({e: poly_dict(c) for e, c in eq.terms.items()}, poly_dict(v), p)
            for name, eq in (("P", P), ("Q", Q))
        }
        assert poly_dict(P(v)) == ref["P"]
        assert poly_dict((P * Q)(v)) == rmul(ref["P"], ref["Q"], p)
        assert (P * Q)(v) == P(v) * Q(v)
        summed = [e for e in P.terms.keys() | Q.terms.keys()
                  if radd(poly_dict(P.coefficient(e)), poly_dict(Q.coefficient(e)), p)]
        if max(summed, default=0) < 1:  # a sum that cancels to x-degree 0 is no BiPoly
            with pytest.raises(ValueError, match="at least 1"):
                P + Q
        else:
            assert poly_dict((P + Q)(v)) == radd(ref["P"], ref["Q"], p)
        with pytest.raises(ValueError, match="at least 1"):
            P * 0


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
        # products are the counting `_raw_mul`)
        full = self._tall_equation(60)
        K = full.field
        windows = expansion._windows(full._raw_terms())
        assert windows is not None
        kernel, floors, elsewhere = [], [], []
        real_kernel, real_mul = series._mul_arrays, expansion._raw_mul

        def counting(a, b, p, spectra=None):
            kernel.append((a.size, b.size))
            return real_kernel(a, b, p, spectra)

        def product(a, b, p, spectra=None):
            floors.append((a[0], b[0]))
            return real_mul(a, b, p, spectra)

        def unexpected(*args, **kwargs):
            elsewhere.append(args)
            raise AssertionError("a windowed product left the raw series rule")

        monkeypatch.setattr(series, "_mul_arrays", counting)
        monkeypatch.setattr(expansion, "_raw_mul", product)
        monkeypatch.setattr(expansion, "_SCHEDULES", {})
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(LaurentSeries, name, unexpected)
        bar, tail = expansion._step(K, windows)
        monkeypatch.undo()
        assert not elsewhere
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

        def counting(a, b, p, spectra=None):
            pairs.append((a.size, b.size))
            return real(a, b, p, spectra)

        monkeypatch.setattr(series, "_mul_arrays", counting)
        next_step(full)
        assert len(pairs) == 4 and all(min(sizes) > 1 for sizes in pairs)

    def test_apply_transforms_each_operand_once_per_length(self, monkeypatch):
        # u1, v1, u2 and v2 meet x^p, x_prev^p, y^p and y_prev^p in the
        # outer level: every operand's spectrum serves all its products
        spec = build_spec(FIELDS[7], (2, 4, 5))
        transforms, operands = [], []
        real_balanced, real_rfft, real_apply = algebra._balanced, np.fft.rfft, expansion._apply

        def balanced(x, p):
            operands.append(x)  # kept alive, so ids stay unique
            return real_balanced(x, p)

        def rfft(x, n):
            if transforms and transforms[-1] is not None:
                transforms[-1].append((id(operands[-1]), n))
            return real_rfft(x, n)

        def apply(*args):
            transforms.append([])
            try:
                return real_apply(*args)
            finally:
                transforms.append(None)

        monkeypatch.setattr(algebra, "_balanced", balanced)
        monkeypatch.setattr(np.fft, "rfft", rfft)
        monkeypatch.setattr(expansion, "_apply", apply)
        m = pattern_position(7, 4)
        assert expand(pattern_equation(spec), m).quotients == pattern(spec, m)
        per_apply = [keys for keys in transforms if keys is not None]
        assert per_apply and max(map(len, per_apply)) >= 8
        for keys in per_apply:
            assert len(keys) == len(set(keys))

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

        def ref(c):
            return poly_dict(poly(c))

        arrays = (poly(c).coeffs for c in (x, y, x_prev, y_prev))
        tail = expansion._mobius(p, P._raw_terms(), *arrays)
        assert all(floor is None and c.size for floor, c in tail.values())
        num = radd(rmul(ref(x), v, p), ref(x_prev), p)
        den = radd(rmul(ref(y), v, p), ref(y_prev), p)
        terms = {e: poly_dict(c) for e, c in P.terms.items()}
        want = rhomogeneous(terms, P.degree_x, num, den, p)
        assert reval({e: _array_dict(c) for e, (_, c) in tail.items()}, v, p) == want


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
        # every slot read and not returned is dropped after its last read
        for steps, outputs, size in expansion._SCHEDULES.values():
            returned = {r for _, r in outputs}
            last = {}
            for k, (_, items, _) in enumerate(steps):
                for item in items:
                    for r in item[:-1]:
                        last[r] = k
            for k, (_, _, dead) in enumerate(steps):
                assert sorted(dead) == sorted(r for r, at in last.items()
                                              if at == k and r not in returned)


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
        _assert_oracles_agree(eq, 15, data.draw(WINDOWS))

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
        # windows that run out, and full-size steps after them.  A jump
        # steps on raw windows, so exhaustion shows at its stop: short of
        # its budget, the windows it returns cannot decide the next bar
        K = FIELDS[5]
        spec = build_spec(K, (2, 3, 3))
        jumps, exhausted = [], []
        real_jump = expansion._jump

        def jump(field, P, budget):
            result = real_jump(field, P, budget)
            bars, _, windows = result
            jumps.append(len(bars))
            if windows is not None and len(bars) < budget:
                try:
                    expansion._step(field, windows)
                except InsufficientPrecisionError:
                    exhausted.append(windows)
            return result

        monkeypatch.setattr(expansion, "_WINDOW_MIN_LEN", 8)
        monkeypatch.setattr(expansion, "_jump", jump)
        m = verification_steps(5)
        assert expand(pattern_equation(spec), m).quotients == pattern(spec, m)
        assert max(jumps) >= 4 and 0 in jumps and exhausted
        assert len(jumps) < m // 2

    def test_a_tail_zero_to_its_floor_ends_the_jump(self, monkeypatch):
        # den*x - q*den: the first step's tail coefficient den*q - q*den is
        # exactly zero, so on windows it is zero to its floor, of unknown
        # degree; the jump stops before that step, and the rational end
        # falls to a full-size step
        K = FIELDS[5]
        den = Poly(K, [1, 2, 0, 3] * 5 + [1])
        q = Poly(K, (3, 2))
        monkeypatch.setattr(expansion, "_WINDOW_MIN_LEN", 4)
        eq = BiPoly(K, [-(q * den), den])
        bars, _, windows = expansion._jump(K, eq._raw_terms(), 5)
        assert bars == [] and windows is not None
        run = expand(eq, 5)
        assert run.rational and list(run.quotients) == [q]

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


def _misclaimed_outcome(equation: BiPoly, m: int, window: int, pick: int, delta: int):
    """expand's outcome when every jump's window of the pick-th lowest
    x-exponent claims one more coefficient, off by delta, or "caught" when
    the jump check raises."""
    real = expansion._windows

    def misclaimed(P):
        windows = real(P)
        if windows is None:
            return None
        e = sorted(windows)[pick % len(windows)]
        v = windows[e][0] - 1
        true = series._cut(P[e], v)
        window = np.zeros(max(true.size, 1), dtype=np.int64)
        window[: true.size] = true
        window[0] = (window[0] + delta) % equation.field.p
        return {**windows, e: (v, algebra._trim(window))}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_WINDOW_MIN_LEN", window)
        mp.setattr(expansion, "_windows", misclaimed)
        got = _outcome(expand, equation, m)
    if got[0] == "guard" and "disagrees with its windows" in got[1]:
        return "caught"
    return got


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
