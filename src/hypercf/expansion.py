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
that form, each added to something at once.

The Horner runs once per shape of the equation and of N and D, on
placeholder slots, and traces a straight-line schedule of products,
sums and Frobenius images, a product that only a sum reads fused into
it as a*b + c: a step is 1 Frobenius image and 4 such calls.  Every
evaluation replays the schedule of its shape on raw values, (floor,
array) pairs, by the rules of `series`, where an exact value has no
floor, each value dropped after its last use.  A composite map of exact
values replays it in one transform domain: each input is transformed
once, at one length, a Frobenius image's spectrum is read off its
input's, products and sums are pointwise and each output takes one
inverse transform.  Where a bound on the values' coefficients or a
rounding check fails, and for every other evaluation, the products are
formed one by one.

`expand` works on raw term maps, x-exponent to raw value, from its
input's coefficient arrays to the quotients it emits: no BiPoly and no
LaurentSeries is made in between.  One loop extracts in jumps at every
level.  A quotient reads only the tops of P[n] and P[n-1], so a round
runs the loop on top windows of P's coefficients, views cut at one
floor, whose floors track what they still determine, for as long as
they decide each quotient, its degree >= 1, P(bar) nonzero and every
tail coefficient's degree, and applies the composite map of what they
decide to P once: each coefficient cut at its window's floor must equal
the window.  Where they decide nothing, the round steps on P itself.
Windows are cut from windows while they stay four windows high, so the
steps run on the shortest; one on windows of up to 190 terms at p=7
takes about 33 us (timeit minima of 50 steps of a 410-quotient run,
2-vCPU host), of which its numpy calls made bare take 20.  What the
exact map's windows leave open, a deep quotient, a constant one or a
possibly rational root, falls to a step on it.  One test
decides P(bar) = 0 for a constant quotient and for a run's last, which
forms no tail: never on windows, and on an exact P by P(bar) at T = 0
and T = 1, formed only when both vanish.  A constant non-root aborts.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import algebra
from .algebra import (
    _EMPTY, _FFT_EXACT_BOUND, Poly, PrimeField, _fft_length, _trim,
)
from .cf import PartialQuotients, continuants
from .series import (
    InsufficientPrecisionError, LaurentSeries, Raw, _cut, _raw_add, _raw_div,
    _raw_frobenius, _raw_mul,
)

__all__ = [
    "BiPoly",
    "ExpansionResult",
    "NoAdmissibleQuotientError",
    "expand",
    "eval_at_series",
]

#: least number of coefficients a map's windows hold below its height;
#: from spans of 32 times that on they hold span // 32, the span being the
#: height above the map's highest floor (an exact map's height), and a
#: map less than four windows high is stepped on itself.  A linear
#: quotient uses up about two of them, so a round decides up to about
#: half as many quotients for the cost of one composite map, which
#: multiplies the map's coefficients by continuants of about that degree.
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
    either that map or a dense sequence indexed by exponent.  The
    coefficients and the value of P(value) are Polys of the field or
    scalars.
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
        raw = (None, Poly._coerce(self.field, value).coeffs)
        return Poly._raw(self.field, _value(self.field.p, self._raw_terms(), raw)[1])

    def _raw_terms(self) -> Dict[int, Raw]:
        """The terms as an exact raw term map, the engine's equations."""
        return {e: (None, c.coeffs) for e, c in self.terms.items()}

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
    """f plus (exponent, coefficient) items: the sum of slots is a slot,
    kept even if its value will be zero."""
    out = dict(f)
    for e, c in items:
        out[e] = out[e] + c if e in out else c
    return out


def _times(f: Mapping[int, object], g: Mapping[int, object]) -> Dict[int, object]:
    """The product of two term maps of slots and the unit marker.  A
    product by the unit is the other factor, not formed."""
    items = []
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            if c1 is _UNIT:
                c = c2
            elif c2 is _UNIT:
                c = c1
            else:
                c = _Slot(c1.ops, _raw_mul, (c1.index, c2.index))
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


def _step(field: PrimeField, P: Dict[int, Raw]) -> Tuple[Poly, Optional[Dict[int, Raw]]]:
    """One step on a raw term map, exact or of windows, with the tail's
    map; a window's InsufficientPrecisionError says it cannot decide bar."""
    p, n, bar = field.p, max(P), _bar(field, P)
    if bar.degree < 1 and _is_root(field, P, bar):  # the root, or `_is_root` aborts
        return bar, None
    tail = _evaluate(p, P, {1: (None, bar.coeffs), 0: _UNIT}, {1: _UNIT}, _STEP)
    return bar, (tail if n in tail else None)  # tail[n] is P(bar)


#: the shape of z and w in a step, x = bar + 1/y: z = bar*y + 1 and w = y
_STEP = (((1, False), (0, True)), ((1, True),))


def _bar(field: PrimeField, P: Mapping[int, Raw]) -> Poly:
    """The quotient -(P[n-1] // P[n]) of a raw term map, n = max(P): the
    top of a trimmed dividend leaves the quotient trimmed."""
    p, n = field.p, max(P)
    return Poly._raw(field, -_raw_div(P.get(n - 1, (None, _EMPTY)), P[n], p, 0)[1] % p)


def _is_root(field: PrimeField, P: Mapping[int, Raw], bar: Poly) -> bool:
    """Whether P's quotient bar is its root, P(bar) = 0: a rational end.
    Windows are never known to be zero; on an exact P, P(bar) is read at
    T = 0 and T = 1, from each array's first entry and its sum, and formed
    only when both vanish.  A constant non-root aborts: no tail follows."""
    p, root = field.p, all(v is None for v, _ in P.values())
    for read in (lambda c: c[:1].sum(), np.sum):  # P(bar) at T = 0, then at T = 1
        b = int(read(bar.coeffs))
        root = root and not sum(int(read(c)) * pow(b, e, p) for e, (_, c) in P.items()) % p
    root = root and not _value(p, P, (None, bar.coeffs))[1].size
    if bar.degree < 1 and not root:
        raise NoAdmissibleQuotientError(1, bar, ())
    return root


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
    for a rational end: the rounds of `_run`, and then the m-th quotient,
    which forms no tail: -1 for its height, None at a rational end."""
    for bars, heights, P in _run(field, P, m - 1):
        yield from zip(bars, heights)
        if P is None:
            return
    bar = _bar(field, P)
    yield bar, None if _is_root(field, P, bar) else -1


def _run(
    field: PrimeField, P: Dict[int, Raw], budget: int
) -> Iterator[Tuple[List[Poly], List[Optional[int]], Optional[Dict[int, Raw]]]]:
    """Up to `budget` quotients of the term map P, exact or of windows, in
    rounds of (quotients, the largest coefficient degree after each, the
    tail map, None at a rational end): the loop run on P's windows and
    what they decide applied to P, or one step on P where they decide
    none.  On windows the run ends where they cannot decide the next
    quotient: a bar or an apply's check that reads below a floor raises
    InsufficientPrecisionError, a constant bar aborts, and a tail with a
    coefficient zero to its floor, P(bar) among them, ends it unyielded.
    A window map too short to cut is not asked again: it only shortens."""
    exact, cut = all(v is None for v, _ in P.values()), True
    while budget > 0:
        bars, heights, tail = [], [], _windows(P) if cut else None
        cut = exact or tail is not None
        try:
            for more, tops, tail in () if tail is None else _run(field, tail, budget):
                bars += more
                heights += tops
        except (InsufficientPrecisionError, NoAdmissibleQuotientError):
            pass  # raised on windows: the rounds before it stand
        if bars:
            P = _apply(field.p, P, bars, tail)
        else:
            bar, P = _step(field, P)
            if P is not None and not all(c.size for _, c in P.values()):
                return
            bars, heights = [bar], [None if P is None else _height(P)]
        yield bars, heights, P
        if P is None:
            return
        budget -= len(bars)


def _height(P: Mapping[int, Raw]) -> int:
    """The largest coefficient degree of a raw term map, read from the
    array sizes (an exact array starts at degree 0)."""
    return max((v or 0) + c.size for v, c in P.values()) - 1


def _windows(P: Mapping[int, Raw]) -> Optional[Dict[int, Raw]]:
    """P's coefficients as top windows at one floor below its height, or
    None when P is less than four windows high above its highest floor (0
    for an exact map): a step on it then costs about as much as on its
    windows, and running on them gains nothing."""
    height = _height(P)
    span = height - max(v or 0 for v, _ in P.values())
    length = max(_WINDOW_MIN_LEN, span // 32)
    if span < 4 * length:
        return None
    floor = height - length
    return {e: (floor, _cut(c, floor)) for e, c in P.items()}


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
    tail = _spectral(p, P, z, w)
    return _evaluate(p, P, z, w) if tail is None else tail


def eval_at_series(P: BiPoly, s: LaurentSeries) -> LaurentSeries:
    """P(s) with propagated validity: the result being zero to its floor
    certifies s as a root of P down to that order."""
    value = _value(P.field.p, P._raw_terms(), (s.valid_order, s.coeffs))
    return LaurentSeries._raw(P.field, *value)


def _value(p: int, P: Mapping[int, Raw], v: Raw) -> Raw:
    """P(v) for a raw value v, exact or a series, zero as (None, _EMPTY)."""
    return _evaluate(p, P, {0: v}, {0: _UNIT}).get(0, (None, _EMPTY))


class _Slot:
    """A placeholder coefficient: the Horner run on slots traces a
    schedule.  Each slot is one entry of `ops`, (operation, operand slot
    numbers), an input's operation None."""

    __slots__ = ("ops", "index")

    def __init__(self, ops: list, kind=None, args=()):
        self.ops, self.index = ops, len(ops)
        ops.append((kind, args))

    def __add__(self, other: "_Slot") -> "_Slot":
        return _Slot(self.ops, _raw_add, (self.index, other.index))

    def frobenius(self) -> "_Slot":
        return _Slot(self.ops, _raw_frobenius, (self.index,))


#: the schedule of each shape traced so far, by `_evaluate`'s key
_SCHEDULES: Dict[tuple, tuple] = {}


def _evaluate(
    p: int, P: Mapping[int, Raw], z: Mapping[int, object], w: Mapping[int, object],
    shape: Optional[tuple] = None,
) -> Dict[int, Raw]:
    """sum of c_e * z^e * w^(n-e) over the terms c_e*x^e of P, n = deg P,
    as a term map in y, for term maps z and w of raw values and the unit;
    P(z) when w is {0: unit}.  An exact zero is left out of the result.
    It replays the schedule of the shape of P, z and w, the latter's
    given as `shape` where the caller knows it, one operation at a time,
    each product with its own transforms, a fused one, a*b + c, as the
    one call kind(a, b, p, c)."""
    steps, outputs, size = _schedule(p, P, z, w, shape)
    regs = [*P.values(), *[c for t in (z, w) for c in t.values() if c is not _UNIT]]
    regs += [None] * (size - len(regs))
    for kind, args, out, dead in steps:
        # operands by position: a list of them unpacked into the call made
        # a windowed step about 7% slower (52 against 48 us at p=7)
        if len(args) == 3:
            i, j, k = args
            regs[out] = kind(regs[i], regs[j], p, regs[k])
        elif len(args) == 2:
            regs[out] = kind(regs[args[0]], regs[args[1]], p)
        else:
            regs[out] = kind(regs[args[0]], p)
        for r in dead:
            regs[r] = None
    return {e: regs[r] for e, r in outputs if regs[r][0] is not None or regs[r][1].size}


def _spectral(
    p: int, P: Mapping[int, Raw], z: Mapping[int, Raw], w: Mapping[int, Raw]
) -> Optional[Dict[int, Raw]]:
    """`_evaluate` for z and w of exact values, none the unit, in one
    transform domain: every input is transformed once, at one length, a
    Frobenius image's spectrum is read off its input's, products, fused
    ones and sums are pointwise, and each output takes one inverse
    transform.  None, for the per-product replay, when P has a
    window, a value's balanced coefficients may pass the 2^34 a lone FFT
    product keeps, or an output fails its rounding check."""
    inputs = [*P.values(), *z.values(), *w.values()]
    if any(v is not None for v, _ in inputs):
        return None
    steps, outputs, size = _schedule(p, P, z, w)
    # each value's size and a bound on its balanced coefficients
    shape = [(c.size, (p - 1) // 2) for _, c in inputs] + [(0, 0)] * (size - len(inputs))
    for kind, args, out, _ in steps:
        (sa, ba), (sb, bb), (sc, bc) = [shape[r] for r in args] + [(0, 0)] * (3 - len(args))
        shape[out] = ((max(sa + sb - 1, sc), ba * bb * min(sa, sb) + bc) if kind is _raw_mul
                      else (max(sa, sb), ba + bb) if kind is _raw_add else (p * (sa - 1) + 1, ba))
    if max(b for _, b in shape) > _FFT_EXACT_BOUND:
        return None
    length = _fft_length(max((shape[r][0] for _, r in outputs), default=1))
    # x(T^p)'s spectrum is x's read at p*k mod length, conjugated above length/2
    k = p * np.arange(length // 2 + 1) % length
    regs: list = [None] * size
    for kind, args, out, dead in steps:
        for r in args:
            if regs[r] is None:  # an input, transformed at its first read
                regs[r] = algebra._spectrum(inputs[r][1], p, length)
        a, *b = (regs[r] for r in args)
        if kind is _raw_frobenius:  # of an input
            a = regs[out] = a[np.minimum(k, length - k)]
            a.imag[k > length - k] *= -1
        else:
            regs[out] = a + b[0] if kind is _raw_add else sum(b[1:], a * b[0])
        for r in dead:
            regs[r] = None
    tail = [(e, algebra._from_spectrum(regs[r], length, shape[r][0], p)) for e, r in outputs]
    if any(c is None for _, c in tail):
        return None
    return {e: (None, c) for e, c in ((e, _trim(c)) for e, c in tail) if c.size}


def _schedule(p: int, P: Mapping[int, Raw], z: Mapping, w: Mapping,
              shape: Optional[tuple] = None) -> tuple:
    """The schedule of the shape of P, z and w, traced when it first comes;
    z's and w's shape, read off them unless given, are their exponents,
    each with a flag for the unit."""
    key = (p, tuple(P), *(shape or [tuple([(e, c is _UNIT) for e, c in t.items()])
                                    for t in (z, w)]))
    return _SCHEDULES.get(key) or _SCHEDULES.setdefault(key, _trace(*key))


def _trace(p: int, P: tuple, z: tuple, w: tuple) -> tuple:
    """The schedule of one shape: p, P's exponents, and z's and w's, each
    with a flag for the unit.  It runs `_split_horner` on slots, drops
    what the result does not need, fuses each product that only a sum
    reads into that sum, and marks after each step the slots read there
    last.  Returns (steps, outputs, number of slots); a step is one
    operation, (operation, operand slots, result slot, slots to drop), a
    fused product `_raw_mul` on three operand slots (a, b, c)."""
    ops: list = []
    P, z, w = ({e: _Slot(ops) for e in P}, *(
        {e: _UNIT if unit else _Slot(ops) for e, unit in t} for t in (z, w)))
    outputs = tuple((e, c.index) for e, c in _split_horner(p, P, z, w).items())
    reads = Counter([r for _, args in ops for r in args] + [r for _, r in outputs])
    # backwards: a slot is needed if an output reads it, and the first
    # needed step met that reads it is the one after which it is dropped;
    # a sum formed from a product it alone reads takes that product's
    # factors, a*b + c in one kernel call, and the product is not formed
    need, steps = {r for _, r in outputs}, []
    for i in range(len(ops) - 1, -1, -1):
        kind, args = ops[i]
        if kind is None or i not in need:
            continue
        if kind is _raw_add:
            fused = [(*ops[j][1], c) for j, c in (args, args[::-1])
                     if ops[j][0] is _raw_mul and reads[j] == 1]
            kind, args = (_raw_mul, fused[0]) if fused else (kind, args)
        dead = tuple(set(args) - need)
        need.update(dead)
        steps.append((kind, args, i, dead))
    return tuple(steps[::-1]), outputs, len(ops)


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
