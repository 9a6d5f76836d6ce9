from __future__ import annotations

import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercf import (
    BiPoly,
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


#: a dense p=3 equation whose quotient degrees about triple: 1, 2, 7, 20,
#: 61, ...; a run to 11 quotients forms tails up to 66430 high
TRIPLING = BiPoly(FIELDS[3], [0, FIELDS[3].T + 2, 0, 0, FIELDS[3].T + 2, 2])


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


def _hyperquadratic(p: int):
    """Equations A*x^(p+1) + B*x^p + C*x + D, each coefficient nonzero."""
    return st.lists(polys(p, 0, 3), min_size=4, max_size=4).map(
        lambda cs: BiPoly(FIELDS[p], dict(zip((p + 1, p, 1, 0), cs)))
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
        # a series is no public operand
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
    C*bar + D, B' = A*bar^p + C, C' = A*bar + B, D' = A; the same
    evaluator takes an equation to a whole Moebius map's tail."""

    @staticmethod
    def _tall_equation(steps: int) -> BiPoly:
        eq = pattern_equation(build_spec(FIELDS[7], (2, 4, 5)))
        for _ in range(steps):
            _, eq = next_step(eq)
        return eq

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
        tail = expansion._evaluate(p, P._raw_terms(), *_mobius_maps(*arrays))
        assert all(floor is None and c.size for floor, c in tail.values())
        _assert_mobius_matches_reference(P, tail, arrays, v)


def _mobius_maps(x, y, x_prev, y_prev) -> tuple:
    """z and w of the tail map after quotients with continuant arrays
    (x, y) and predecessors (x_prev, y_prev): N = x*y' + x_prev and
    D = y*y' + y_prev in the new variable y'."""
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
        # steps on the support {0, 1, p, p+1} and on a dense equation
        K = FIELDS[7]
        eq = pattern_equation(build_spec(K, (2, 4, 5)))
        m = pattern_position(7, 3)
        run = stepwise_expand(eq, m)
        assert expand(TRIPLING, 8).quotients
        first = len(keys)
        assert 0 < first == len(set(keys)) <= 6
        assert stepwise_expand(eq, m).quotients == run.quotients
        assert stepwise_expand(pattern_equation(build_spec(K, (3, 1, 6))), m).quotients
        assert expand(TRIPLING, 8).quotients
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


def _on_the_machine(equation: BiPoly) -> bool:
    """Whether expand runs the homographic machine on the equation: x-degree
    p+1 on the support {0, 1, p, p+1}."""
    p = equation.field.p
    return equation.degree_x == p + 1 and set(equation.terms) <= {0, 1, p, p + 1}


def _assert_agrees(got: tuple, want: tuple, equation: BiPoly):
    """expand's outcome against an oracle's, field by field; on the
    machine, whose max_coeff_degree is its state's, that one only within
    the bound."""
    if _on_the_machine(equation) and got[0] == want[0] == "done":
        assert got[3] <= got[4]
        got, want = got[:3] + got[4:], want[:3] + want[4:]
    assert got == want


def _assert_oracles_agree(equation: BiPoly, m: int, dense: bool = True):
    got = _outcome(expand, equation, m)
    _assert_agrees(got, _outcome(stepwise_expand, equation, m), equation)
    if dense:
        _assert_agrees(got, _dense_outcome(equation, m), equation)


class TestAgainstDenseEngine:
    """expand, the machine or the step loop, against the dense Horner
    engine and against the one-step-per-quotient loop."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pattern_equations(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        u = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        steps = data.draw(st.integers(1, verification_steps(p)))
        eq = pattern_equation(build_spec(FIELDS[p], u))
        # the dense oracle costs seconds past n_1 at p >= 11
        dense = p <= 7 or steps <= pattern_position(p, 1) + 6
        _assert_oracles_agree(eq, steps, dense)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_all_linear_family(self, data):
        p = data.draw(st.sampled_from((5, 7, 11)))
        u1 = data.draw(st.integers(1, p - 1).filter(lambda v: (1 + 2 * v) % p))
        steps = data.draw(st.integers(1, 120))
        eq = mills_robbins_equation(FIELDS[p], u1)
        _assert_oracles_agree(eq, steps, dense=steps <= 60)

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
        _assert_oracles_agree(eq, _steps_within(eq, DENSE_HEIGHT_BUDGET))

    def test_dense_equation_of_tripling_degrees(self):
        # quotient degrees 1, 2, 7, 20, 61, ...: the fifteenth tail is
        # 5.4 million high, so the comparison stops at the height budget
        m = _steps_within(TRIPLING, DENSE_HEIGHT_BUDGET)
        assert m == 8
        _assert_oracles_agree(TRIPLING, m)

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
        _assert_oracles_agree(eq, 12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_single_root_dense_equations(self, data):
        # one root of degree >= 1 and the rest of negative degree: runs that
        # go on for many quotients instead of aborting early
        p = data.draw(st.sampled_from((3, 5, 7)))
        eq = data.draw(_single_root_equations(p))
        _assert_oracles_agree(eq, 30)


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


def _assert_height_guard(monkeypatch, eq: BiPoly, engine: str, excess: int):
    """The engine's own heights stay within base + deg_x * (the degree
    sum), so a second step reported at the bound passes and one just past
    it raises."""
    bound = eq.max_coeff_degree() + eq.degree_x * sum(expand(eq, 2).quotients.degrees())
    real = getattr(expansion, engine)

    def tall(field, terms, budget):
        for step, (bar, height, tail) in enumerate(real(field, terms, budget), start=1):
            yield bar, bound + excess if step == 2 else height, tail

    monkeypatch.setattr(expansion, engine, tall)
    if not excess:
        assert expand(eq, 3).max_coeff_degree == bound
        return
    with pytest.raises(RuntimeError, match=(
            f"coefficient degree {bound + 1} exceeded the bound {bound} after step 2")):
        expand(eq, 3)


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
        # the step loop on a dense equation
        _assert_height_guard(monkeypatch, TRIPLING, "_run", excess)

    @pytest.mark.parametrize("excess", (0, 1))
    def test_height_guard_on_the_machine(self, monkeypatch, excess):
        eq = pattern_equation(build_spec(FIELDS[7], (2, 4, 5)))
        _assert_height_guard(monkeypatch, eq, "_machine", excess)

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

    @pytest.mark.parametrize("budget", (2, 5))
    def test_the_loop_ends_on_the_rational_round(self, budget):
        # t*x - (t^2 + 1) over F_5 again: the second quotient is the
        # rational end, by the last quotient's division at a budget of 2 and
        # by a step past it, and the generator ends right after it
        K = FIELDS[5]
        T = K.T
        rounds = expansion._run(K, BiPoly(K, [-(T * T + 1), T])._raw_terms(), budget)
        (first, top, tail), last = next(rounds), next(rounds)
        assert first == T and top == 1 and tail is not None
        assert last == (T, None, None)
        assert next(rounds, None) is None

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
        # the tripling equation through 10 quotients ends on one of degree
        # 14762: its tail, or P(bar) itself, would take products by bar^3,
        # 44287 terms
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
        run = expand(TRIPLING, 10)
        monkeypatch.undo()
        assert _outcome(expand, TRIPLING, 10) == _outcome(stepwise_expand, TRIPLING, 10)
        power = 3 * int(run.quotients[-1].degree) + 1
        assert power == 44287 and len(last) == 1 and not run.rational
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
        for m in range(1, _steps_within(eq, 2_000, cap=10) + 1):
            _assert_agrees(_outcome(expand, eq, m), _outcome(stepwise_expand, eq, m), eq)


def _draw_on_support(data, p: int, kind: str) -> tuple:
    """An equation A*x^(p+1) + B*x^p + C*x + D of one kind, and the root
    planted in it, or None: "random", deg B above deg A half the time so
    that runs go on; "degenerate", (A, B) and (C, D) proportional, so that
    AD = BC; "abort", deg B <= deg A, a constant first quotient; or
    "rational", the root u = -(B // A) of degree >= 1, its equation taken
    back through up to two quotients drawn at random."""
    K = FIELDS[p]
    zero = Poly(K, ())

    def draw(low=0, high=3, or_zero=False):
        strategy = polys(p, low, high)
        return data.draw(st.one_of(st.just(zero), strategy) if or_zero else strategy)

    A = draw(0, 2)
    C, D = draw(or_zero=True), draw(or_zero=True)
    if kind == "random":
        B = draw(0, 4, or_zero=True)
    elif kind == "degenerate":
        g, h, B = draw(), draw(or_zero=True), draw(0, 4)
        A, B, C, D = g * A, g * B, h * A, h * B
    elif kind == "abort":
        B = draw(0, int(A.degree), or_zero=True)
    else:
        u = draw(1, 2)
        B = (draw(0, int(A.degree) - 1, or_zero=True) if A.degree else zero) - A * u
        D = -(A * u ** (p + 1) + B * u ** p + C * u)
        back = data.draw(st.lists(polys(p, 1, 2), max_size=2))
        for a in back:
            # x = a + 1/y: the equation of x from that of y
            assume(D)
            A, B, C, D = D, C - D * a, B - D * a ** p, A - B * a - C * a ** p + D * a ** (p + 1)
        if back:
            u = None
    eq = BiPoly(K, {p + 1: A, p: B, 1: C, 0: D})
    assume(eq.degree_x == p + 1)
    return eq, (u if kind == "rational" else None)


class TestMachine:
    """The homographic machine that `expand` runs on the support {0, 1, p,
    p+1}: the one-step loop's quotients, rational ends and aborts, read off
    the Frobenius images of its own quotients, checked by its determinant."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_stepwise_on_the_support(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        kind = data.draw(st.sampled_from(("random", "degenerate", "abort", "rational")))
        eq, root = _draw_on_support(data, p, kind)
        steps = _steps_within(eq, 2_000, cap=40)
        for m in (steps, data.draw(st.integers(1, steps))):
            with mock.patch.object(expansion, "_run", wraps=expansion._run) as stall:
                got = _outcome(expand, eq, m)
            _assert_agrees(got, _outcome(stepwise_expand, eq, m), eq)
            if kind == "abort":  # no emit decides a constant quotient
                assert stall.called
            if root is not None:
                assert got[0] == "done" and got[1:3] == ([root], root)

    def test_a_stall_steps_and_the_machine_goes_on(self):
        # p=3: with both linear quotients read, the images at hand cannot
        # decide the third, of degree 6; a step on the tail's equation
        # takes it, and emits follow
        K = FIELDS[3]
        T = K.T
        eq = BiPoly(K, {4: 2 * T, 3: 2 * T ** 2 + 2, 1: T, 0: T})
        with mock.patch.object(expansion, "_run", wraps=expansion._run) as stall:
            run = expand(eq, 12)
        assert stall.call_count == 1
        assert run.quotients.degrees() == [1, 1, 6, 15, 3, 42, 3, 6, 3, 123, 3, 6]
        _assert_agrees(_outcome(expand, eq, 12), _outcome(stepwise_expand, eq, 12), eq)

    @pytest.mark.parametrize("call", (1, 2, 50))
    def test_a_corrupted_product_fails_the_determinant(self, monkeypatch, call):
        # the constant term of one of the machine's own products off by
        # one: the update moves the determinant by the entry that product
        # meets, nonzero here, and each later update negates it whatever
        # the entries, so the identity fails at the end
        eq = pattern_equation(build_spec(FIELDS[7], (2, 4, 5)))
        real, calls = algebra._mul_arrays, []

        def corrupt(a, b, p, *addend):
            out = real(a, b, p, *addend)
            if sys._getframe(1).f_code.co_name != "_machine":
                return out
            calls.append(None)
            return algebra._add_arrays(out, np.ones(1, dtype=np.int64), p) if len(
                calls) == call else out

        monkeypatch.setattr(algebra, "_mul_arrays", corrupt)
        with pytest.raises(RuntimeError, match="determinant identity failed"):
            expand(eq, pattern_position(7, 3))
        assert len(calls) > call

    def test_stays_on_raw_arrays(self, monkeypatch):
        # p=7 through n_4: not one series or equation object made between
        # the input and the quotients
        spec = build_spec(FIELDS[7], (2, 4, 5))
        eq = pattern_equation(spec)
        m = pattern_position(7, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("the machine left raw arrays")

        for owner, name in ((LaurentSeries, "_raw"), (LaurentSeries, "from_poly"),
                            (LaurentSeries, "__init__"), (BiPoly, "__init__")):
            monkeypatch.setattr(owner, name, refuse)
        run = expand(eq, m)
        monkeypatch.undo()
        assert run.quotients == pattern(spec, m)


class TestBar:
    """`_bar` is -(P[n-1] // P[n]): the negated schoolbook quotient."""

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

        degree = data.draw(st.integers(0, 40), label="deg P[n]")
        A, B = coefficient(degree), np.zeros(0, dtype=np.int64)
        P = {n: (None, A)}
        if data.draw(st.integers(0, 9), label="P[n-1] absent") > 0:
            B = coefficient(degree + qlen - 1)
            P[n - 1] = (None, B)
        q, _ = rdivmod(poly_dict(Poly(K, B)), poly_dict(Poly(K, A)), p)
        assert expansion._bar(K, P) == Poly(K, dict_coeffs({e: -c for e, c in q.items()}, p))


class TestIsRoot:
    """`_is_root` is the one test of P(bar) = 0, for a constant quotient and
    for a run's last: it forms P(bar) only where its values at T = 0 and
    T = 1 both vanish.  A constant bar that is not the root aborts."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        # a root is planted as P = (x - bar)*Q, so that "root" is drawn
        p = data.draw(st.sampled_from((3, 5, 7)))
        K = FIELDS[p]
        Q = data.draw(st.one_of(
            _equations(p, 2 * p + 1, dense=True), _hyperquadratic(p)))
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
        run = expand(eq, 40)
        if run.rational:
            # a finite expansion: its convergent is the root itself
            x, y, _, _ = continuants(run.quotients)
            one = Poly(eq.field, (1,)).coeffs
            maps = _mobius_maps(x.coeffs, y.coeffs, one, algebra._EMPTY)
            assert eq.degree_x not in expansion._evaluate(eq.field.p, eq._raw_terms(), *maps)
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
