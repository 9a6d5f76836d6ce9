"""Partial-quotient extraction from algebraic equations over F_p[T].

Given P of degree n in x with a power-series root alpha, one step emits
the integer part bar = -(P[n-1] // P[n]) of the root and moves to the
equation y^n * P(bar + 1/y) of the tail 1/(alpha - bar).  Iterating
yields the partial quotients one at a time, with no correctness theorem
here: outputs are validated a posteriori through eval_at_series.

k steps compose into one Moebius map: with the continuants of their
quotients, the tail equation is sum of c_e * N^e * D^(n-e) for
N = x_k*y + x_(k-1), D = y_k*y + y_(k-1); one step is N = bar*y + 1, D = y,
and P at a polynomial or a series is D = 1.  One Frobenius-split Horner on
term maps, y-exponent to coefficient, takes them all.  N^p and D^p are
Frobenius images, so A*x^(p+1) + B*x^p + C*x + D goes to
N^p*(A*N + B*D) + D^p*(C*N + D*D), and with the unit a marker of this
module never multiplied, a step makes just the 4 coefficient products of
that form.

The Horner runs once per shape of the equation and of N and D, on
placeholder slots, and traces a straight-line schedule of products,
sums and Frobenius images; every evaluation replays the schedule of its
shape on raw values, (floor, array) pairs, by the rules of `series`,
where an exact value has no floor.  The products of one product of term
maps share their transforms, so each long operand is transformed once,
and each value is dropped after its last use.

`expand` works on raw term maps, x-exponent to raw value, from its
input's coefficient arrays to the quotients it emits: no BiPoly and no
LaurentSeries is made in between.  It extracts in jumps.  A quotient
reads only the tops of P[n] and P[n-1], so the steps run on top windows
of the coefficients, views of the exact arrays cut at one floor, whose
floors track what they still determine, for as long as the windows
decide each quotient, its degree >= 1, P(bar) nonzero and every tail
coefficient's degree.  A step on windows of 190 terms at p=7 takes about
65 us (2-vCPU host), of which numpy's small-array calls are most.  The
composite map of the quotients found is then applied to the exact
equation once, and each of its coefficients cut at its window's floor
must equal the window.  What the windows leave open, a deep quotient, a
constant one or a possibly rational root, falls to the same step on the
exact term map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import _EMPTY, Poly, PrimeField, _trim
from .cf import PartialQuotients, continuants
from .series import (
    InsufficientPrecisionError, LaurentSeries, Raw, _cut, _raw_add, _raw_floordiv,
    _raw_frobenius, _raw_mul,
)

__all__ = [
    "BiPoly",
    "ExpansionResult",
    "NoAdmissibleQuotientError",
    "next_step",
    "expand",
    "eval_at_series",
]

#: least number of coefficients a jump's windows hold below the equation's
#: height; from heights of 32 times that on, they hold height // 32, and
#: an equation less than four windows high takes full-size steps.  A
#: linear quotient uses up about two of them, so a jump decides up to
#: about half as many quotients for the cost of one composite map, which
#: multiplies the full coefficients by continuants of about that degree.
_WINDOW_MIN_LEN = 64


class _Unit:
    """The unit coefficient of a term map: a product by it is the other
    factor, not formed, and it is its own Frobenius image."""

    def frobenius(self) -> "_Unit":
        return self


_UNIT = _Unit()


class NoAdmissibleQuotientError(RuntimeError):
    """The step produced a quotient of degree < 1: the input equation does
    not define an expansion with non-constant partial quotients."""

    def __init__(self, step: int, bar: Poly, emitted: Sequence[Poly]):
        super().__init__(
            f"no admissible partial quotient at step {step}: "
            f"extracted {bar!s} (degree < 1); {len(emitted)} quotients "
            "were safely emitted"
        )
        self.step = step
        self.bar = bar
        self.emitted = tuple(emitted)


class BiPoly:
    """A polynomial in x whose coefficients are polynomials in F_p[T].

    Stored sparsely as `terms`, a read-only map from x-exponent to nonzero
    coefficient: the hyperquadratic equations keep only the exponents
    {0, 1, p, p+1} through every extraction step.  The constructor takes
    either that map or a dense sequence indexed by exponent.  Its
    operands, the coefficients, the value of P(value) and the bare operand
    of `+` and `*` (the x^0 term), are Polys of the field or scalars.  A
    sum or product goes through the constructor too, so one that cancels
    to x-degree below 1 raises its ValueError.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimeField, coeffs: Union[Mapping, Sequence]):
        items = coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs)
        terms = _terms(field, items)
        if not terms or max(terms) < 1:
            raise ValueError("degree in x must be at least 1")
        self.field = field
        self.terms = terms

    @property
    def degree_x(self) -> int:
        return max(self.terms)

    def coefficient(self, i: int) -> Poly:
        return self.terms.get(i) or Poly(self.field, ())

    def max_coeff_degree(self) -> int:
        return max(int(c.degree) for c in self.terms.values())

    def __call__(self, value: Poly) -> Poly:
        value = Poly._coerce(self.field, value)
        z = {0: (None, value.coeffs)} if value else {}
        out = _evaluate(self.field.p, self._raw_terms(), z, {0: _UNIT})
        return Poly._raw(self.field, out[0][1] if out else _EMPTY)

    def _raw_terms(self) -> Dict[int, Raw]:
        """The terms as an exact raw term map, the engine's equations."""
        return {e: (None, c.coeffs) for e, c in self.terms.items()}

    def _operand(self, other) -> Dict[int, Poly]:
        """The terms of a BiPoly operand; a bare one is the x^0 term."""
        items = other.terms.items() if isinstance(other, BiPoly) else [(0, other)]
        return _terms(self.field, items)

    def __add__(self, other) -> "BiPoly":
        return BiPoly(self.field, _plus(self.terms, self._operand(other).items()))

    def __mul__(self, other) -> "BiPoly":
        return BiPoly(self.field, _times(self.terms, self._operand(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiPoly)
            and other.field == self.field
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return " + ".join(
            f"({self.terms[i]})" + ("" if i == 0 else "*x" if i == 1 else f"*x^{i}")
            for i in sorted(self.terms, reverse=True)
        )


def _terms(field: PrimeField, items) -> Dict[int, Poly]:
    """The nonzero coefficients of (exponent, coefficient) items, each a
    Poly of the field or a scalar, as Polys."""
    terms: Dict[int, Poly] = {}
    for e, c in items:
        if e < 0:
            raise ValueError("x-exponents must be nonnegative")
        c = Poly._coerce(field, c)
        if c:
            terms[e] = c
    return terms


def _plus(f: Mapping[int, object], items) -> Dict[int, object]:
    """f plus (exponent, coefficient) items, a Poly dropped if it cancels
    (a slot, whose value is not known yet, is kept)."""
    out = dict(f)
    for e, c in items:
        c = out.pop(e) + c if e in out else c
        if c:
            out[e] = c
    return out


def _times(f: Mapping[int, object], g: Mapping[int, object]) -> Dict[int, object]:
    """The product of two term maps.  A product by the unit marker is the
    other factor, not formed.  The products of slots make one batch of
    the schedule, which shares one `spectra`, so that the replay
    transforms each operand once."""
    batch, items = [], []
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            if c1 is _UNIT:
                c = c2
            elif c2 is _UNIT:
                c = c1
            elif c1.__class__ is _Slot:
                c = _Slot(c1.ops, _raw_mul, (c1.index, c2.index), batch)
            else:
                c = c1 * c2
            items.append((e1 + e2, c))
    return _plus({}, items)


@dataclass
class ExpansionResult:
    """Outcome of an expansion run.

    `rational` marks that the equation turned out to have the last
    emitted quotient as an exact (rational) root, ending the expansion.
    `max_coeff_degree` is the largest T-degree seen among the working
    equation's coefficients; `coeff_degree_bound` is the a-priori bound
    it was checked against after every step.
    """

    quotients: PartialQuotients
    rational: bool
    rational_value: Optional[Poly]
    max_coeff_degree: int
    coeff_degree_bound: int


def next_step(P: BiPoly) -> Tuple[Poly, Optional[BiPoly]]:
    """One extraction step.

    Returns (bar, next_equation); next_equation is None when P(bar) = 0,
    i.e. the root is rational and bar is its final quotient.  Raises
    NoAdmissibleQuotientError when the extracted bar has degree < 1.
    `expand` takes the same step, `_step`, on raw term maps.
    """
    bar, tail = _step(P.field, P._raw_terms())
    if tail is None:
        return bar, None
    return bar, BiPoly(P.field, {e: Poly._raw(P.field, c) for e, (_, c) in tail.items()})


def _step(field: PrimeField, P: Dict[int, Raw]) -> Tuple[Poly, Optional[Dict[int, Raw]]]:
    """One step on a raw term map, exact or of windows, with the tail's
    map.  A window's InsufficientPrecisionError says it cannot decide bar."""
    p, n = field.p, max(P)
    bar = Poly._raw(field, _trim(-_raw_floordiv(P.get(n - 1, (None, _EMPTY)), P[n], p) % p))
    if bar.degree < 1:
        # no tail follows a constant bar: the run ends, rationally if P(bar)
        # is zero (a window, a series, is never known to be)
        if 0 not in _evaluate(p, P, {0: (None, bar.coeffs)} if bar else {}, {0: _UNIT}):
            return bar, None
        raise NoAdmissibleQuotientError(1, bar, ())
    tail = _evaluate(p, P, {1: (None, bar.coeffs), 0: _UNIT}, {1: _UNIT})  # x = bar + 1/y
    return bar, (tail if n in tail else None)  # tail[n] is P(bar)


def expand(P: BiPoly, m: int) -> ExpansionResult:
    """First m partial quotients of the power-series root of P.

    Stops early if the root turns out rational.  A quotient of degree < 1
    aborts with NoAdmissibleQuotientError carrying the quotients emitted
    so far.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    base_height = P.max_coeff_degree()
    emitted: List[Poly] = []
    degree_sum = 0
    max_seen = base_height
    rational_value: Optional[Poly] = None
    try:
        for step, (bar, height) in enumerate(_quotients(P.field, P._raw_terms(), m), start=1):
            if bar.degree >= 1:
                emitted.append(bar)
                degree_sum += int(bar.degree)
            if height is None:
                rational_value = bar
                break
            if step == m:
                break
            max_seen = max(max_seen, height)
            bound = base_height + P.degree_x * degree_sum
            if height > bound:
                raise RuntimeError(
                    f"coefficient degree {height} exceeded the bound {bound} "
                    f"after step {step}"
                )
    except NoAdmissibleQuotientError as err:
        raise NoAdmissibleQuotientError(len(emitted) + 1, err.bar, emitted) from None
    return ExpansionResult(
        quotients=PartialQuotients(emitted),
        rational=rational_value is not None,
        rational_value=rational_value,
        max_coeff_degree=max_seen,
        coeff_degree_bound=base_height + P.degree_x * degree_sum,
    )


def _quotients(
    field: PrimeField, P: Dict[int, Raw], m: int
) -> Iterator[Tuple[Poly, Optional[int]]]:
    """The first m quotients of the root of the exact term map P, each with
    the largest coefficient degree of the tail equation it leaves, or None
    for a rational end: jumps, each followed by one full-size step for
    what its windows left open."""
    left = m
    while True:
        bars, heights, windows = _jump(field, P, left)
        if bars:
            P = _apply(field.p, P, bars, windows)
            yield from zip(bars, heights)
            left -= len(bars)
            if not left:
                return
        bar, P = _step(field, P)
        yield bar, None if P is None else _height(P)
        left -= 1
        if P is None or not left:
            return


def _height(P: Mapping[int, Raw]) -> int:
    """The largest coefficient degree of a raw term map, read from the
    array sizes (an exact array starts at degree 0)."""
    return max((v or 0) + c.size for v, c in P.values()) - 1


def _windows(P: Mapping[int, Raw]) -> Optional[Dict[int, Raw]]:
    """P's coefficients as top windows at one floor below its height, or
    None when the equation is less than four windows high: a step on it
    then costs about as much as on its windows, and a jump gains nothing."""
    height = _height(P)
    length = max(_WINDOW_MIN_LEN, height // 32)
    if height < 4 * length:
        return None
    floor = height - length
    return {e: (floor, _cut(c, floor)) for e, c in P.items()}


def _jump(
    field: PrimeField, P: Dict[int, Raw], budget: int
) -> Tuple[List[Poly], List[int], Optional[Dict[int, Raw]]]:
    """Up to `budget` quotients of P decided by steps on its windows, the
    largest coefficient degree after each, and the windowed tail equation
    (none at all for an equation too short for windows).

    The run stops at a step whose bar needs a term below a floor or has
    degree < 1, or whose tail has a coefficient zero to its floor: that
    coefficient's degree, P(bar) among them, is unknown.
    """
    bars: List[Poly] = []
    heights: List[int] = []
    windows = _windows(P)
    if windows is None:
        return bars, heights, None
    while len(bars) < budget:
        try:
            bar, tail = _step(field, windows)
        except (InsufficientPrecisionError, NoAdmissibleQuotientError):
            break
        if not all(c.size for _, c in tail.values()):
            break
        bars.append(bar)
        heights.append(_height(tail))
        windows = tail
    return bars, heights, windows


def _apply(
    p: int, P: Dict[int, Raw], bars: List[Poly], windows: Dict[int, Raw]
) -> Dict[int, Raw]:
    """The tail of P after `bars`, by their composite map, checked against
    the windowed tail: each coefficient cut at its window's floor must
    equal the window."""
    tail = _mobius(p, P, *(c.coeffs for c in continuants(PartialQuotients(bars))))
    if tail.keys() != windows.keys() or not all(
        np.array_equal(_cut(tail[e], v), w) for e, (v, w) in windows.items()
    ):
        raise RuntimeError(
            f"a jump of {len(bars)} quotients disagrees with its windows"
        )
    return tail


def _mobius(p: int, P: Mapping[int, Raw], x, y, x_prev, y_prev) -> Dict[int, Raw]:
    """P's tail equation after quotients with continuant arrays (x, y) and
    predecessors (x_prev, y_prev): sum of c_e * N^e * D^(n-e) for
    N = x*y' + x_prev and D = y*y' + y_prev in the new variable y'."""
    z, w = ({e: (None, c) for e, c in ((1, a), (0, b)) if c.size}
            for a, b in ((x, x_prev), (y, y_prev)))
    return _evaluate(p, P, z, w)


def eval_at_series(P: BiPoly, s: LaurentSeries) -> LaurentSeries:
    """P(s) with propagated validity: the result being zero to its floor
    certifies s as a root of P down to that order."""
    value = _evaluate(P.field.p, P._raw_terms(), {0: (s.valid_order, s.coeffs)}, {0: _UNIT})
    return LaurentSeries._raw(P.field, *value[0])


class _Slot:
    """A placeholder coefficient: the Horner run on slots traces a
    schedule.  Each slot is one entry of `ops`, (operation, operand slot
    numbers, batch), an input none; the products of one `_times` call
    share its batch."""

    __slots__ = ("ops", "index")

    def __init__(self, ops: list, kind=None, args=(), batch=None):
        self.ops, self.index = ops, len(ops)
        ops.append((kind, args, batch))

    def __add__(self, other: "_Slot") -> "_Slot":
        return _Slot(self.ops, _raw_add, (self.index, other.index))

    def frobenius(self) -> "_Slot":
        return _Slot(self.ops, _raw_frobenius, (self.index,))


#: the schedule of each shape traced so far, by `_evaluate`'s key
_SCHEDULES: Dict[tuple, tuple] = {}


def _evaluate(
    p: int, P: Mapping[int, Raw], z: Mapping[int, object], w: Mapping[int, object]
) -> Dict[int, Raw]:
    """sum of c_e * z^e * w^(n-e) over the terms c_e*x^e of P, n = deg P,
    as a term map in y, for term maps z and w of raw values and the unit;
    P(z) when w is {0: unit}.  An exact zero is left out of the result.

    It replays the schedule of the shape of P, z and w, traced the first
    time that shape comes: steps of products, each batch sharing one
    `spectra` (a batch of one is a lone product, whose transforms are
    its own), sums and Frobenius images, and after each step the values
    it read for the last time are dropped.
    """
    key = (p, tuple(P), tuple([(e, c is _UNIT) for e, c in z.items()]),
           tuple([(e, c is _UNIT) for e, c in w.items()]))
    steps, outputs, size = _SCHEDULES.get(key) or _SCHEDULES.setdefault(key, _trace(*key))
    regs = [*P.values(), *[c for c in z.values() if c is not _UNIT],
            *[c for c in w.values() if c is not _UNIT]]
    regs += [None] * (size - len(regs))
    for kind, items, dead in steps:
        if kind is _raw_mul:
            spectra = {} if len(items) > 1 else None
            for a, b, out in items:
                regs[out] = _raw_mul(regs[a], regs[b], p, spectra)
            del spectra
        elif kind is _raw_add:
            for a, b, out in items:
                regs[out] = _raw_add(regs[a], regs[b], p)
        else:
            for a, out in items:
                regs[out] = _raw_frobenius(regs[a], p)
        for r in dead:
            regs[r] = None
    values = ((e, regs[r]) for e, r in outputs)
    return {e: c for e, c in values if c[0] is not None or c[1].size}


def _trace(p: int, P: tuple, z: tuple, w: tuple) -> tuple:
    """The schedule of one shape: p, P's exponents, and z's and w's, each
    with a flag for the unit.  It runs `_split_horner` on slots, drops
    what the result does not need, gathers each batch of products into
    one step and marks after each step the slots read there last.
    Returns (steps, outputs, number of slots); a step is (operation,
    items, slots to drop), an item its operand slots and its result."""
    ops: list = []
    P, z, w = ({e: _Slot(ops) for e in P}, *(
        {e: _UNIT if unit else _Slot(ops) for e, unit in t} for t in (z, w)))
    outputs = tuple((e, c.index) for e, c in _split_horner(p, P, z, w).items())
    # backwards: a slot is needed if an output reads it, and the first
    # needed step met that reads it is the one after which it is dropped
    need, steps = {r for _, r in outputs}, []
    for i in range(len(ops) - 1, -1, -1):
        kind, args, batch = ops[i]
        if kind is None or i not in need:
            continue
        if kind is not _raw_mul or not steps or steps[-1][2] is not batch:
            steps.append((kind, [], batch, []))
        steps[-1][1].append((*args, i))
        for r in args:
            if r not in need:
                need.add(r)
                steps[-1][3].append(r)
    steps = tuple((kind, tuple(items[::-1]), tuple(dead)) for kind, items, _, dead in steps[::-1])
    return steps, outputs, len(ops)


def _horner(terms: Mapping[int, Mapping], z, w, top: int):
    """sum of terms[k] * z^k * w^(top - k) over k <= top, by Horner over k
    from the top down, for term maps terms[k], z and w."""
    acc = wk = None  # wk is w^(top - k), None for 1
    for k in range(top, -1, -1):
        if acc is not None:
            acc = _times(acc, z)
        if k < top:
            wk = w if wk is None else _times(wk, w)
        if k in terms:
            t = terms[k] if wk is None else _times(wk, terms[k])
            acc = t if acc is None else _plus(acc, t.items())
    return acc


def _split_horner(p: int, P: Mapping[int, object], z, w) -> Dict[int, object]:
    """sum of c_e * z^e * w^(n-e) over the terms c_e of P, n = max(P).

    With e = p*q + r and r < p, z^e = (z^p)^q * z^r, and z^p is a
    Frobenius image: the sum is Horner in (z^p, w^p) over q of Horner in
    (z, w) over r, of inner degree n mod p.  A homogeneous term with
    r > n mod p needs p more inner degree; those terms make a second such
    sum, one outer degree lower.
    """
    n = max(P)
    low = n % p
    parts: Dict[int, Dict[int, Dict[int, object]]] = {}
    for e, c in P.items():
        q, r = divmod(e, p)
        parts.setdefault(int(r > low), {}).setdefault(q, {})[r] = {0: c}
    zp, wp = ({p * e: c.frobenius() for e, c in t.items()} for t in (z, w))
    total = None
    for high, groups in parts.items():
        inner = {q: _horner(rs, z, w, low + p * high) for q, rs in groups.items()}
        part = _horner(inner, zp, wp, n // p - high)
        total = part if total is None else _plus(total, part.items())
    return total
