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
A product of term maps transforms each long operand once, for all its products.

`expand` extracts in jumps.  A quotient reads only the tops of P[n] and
P[n-1], so the steps run on top windows of the coefficients, Laurent
series whose floors track what they still determine, for as long as the
windows decide each quotient, its degree >= 1, P(bar) nonzero and every
tail coefficient's degree.  The composite map of the quotients found is
then applied to the full equation once, and the result's tops must equal
the windows.  What the windows leave open, a deep quotient, a constant
one or a possibly rational root, falls to one full-size step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import Poly, PrimeField, _mul_arrays
from .cf import PartialQuotients, continuants
from .series import InsufficientPrecisionError, LaurentSeries

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
    either that map or a dense sequence indexed by exponent.  Its public
    operands, the coefficients, the value of P(value) and the bare operand
    of `+` and `*` (the x^0 term), are Polys of the field or scalars.
    Only the engine, through `_raw`, makes term maps of LaurentSeries
    windows, which are kept even when zero to their floor: below it they
    are unknown, not zero.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimeField, coeffs: Union[Mapping, Sequence]):
        items = coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs)
        terms = _terms(field, items)
        if not terms or max(terms) < 1:
            raise ValueError("degree in x must be at least 1")
        self.field = field
        self.terms = terms

    @classmethod
    def _raw(cls, field: PrimeField, terms: Dict[int, object]) -> "BiPoly":
        # the nonzero terms of an intermediate result, of any x-degree
        self = object.__new__(cls)
        self.field = field
        self.terms = terms
        return self

    @property
    def degree_x(self) -> int:
        return max(self.terms)

    def coefficient(self, i: int) -> Poly:
        return self.terms.get(i) or Poly(self.field, ())

    def max_coeff_degree(self) -> int:
        return max(int(c.degree) for c in self.terms.values())

    def __call__(self, value: Poly) -> Poly:
        out = _evaluate(self, _terms(self.field, [(0, value)]), {0: _UNIT})
        return out.get(0, Poly(self.field))

    def _operand(self, other) -> Dict[int, Poly]:
        """The terms of a BiPoly operand; a bare one is the x^0 term."""
        items = other.terms.items() if isinstance(other, BiPoly) else [(0, other)]
        return _terms(self.field, items)

    def __add__(self, other) -> "BiPoly":
        return BiPoly._raw(self.field, _plus(self.terms, self._operand(other).items()))

    def __mul__(self, other) -> "BiPoly":
        return BiPoly._raw(self.field, _times(self.terms, self._operand(other)))

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


def _nonzero(c) -> bool:
    return isinstance(c, LaurentSeries) or bool(c)


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
    """f plus (exponent, coefficient) items, a term dropped if it cancels."""
    out = dict(f)
    for e, c in items:
        c = out.pop(e) + c if e in out else c
        if _nonzero(c):
            out[e] = c
    return out


def _times(f: Mapping[int, object], g: Mapping[int, object]) -> Dict[int, object]:
    """The product of two term maps.  A product by the unit marker is the
    other factor, not formed.  Products of Polys share one `spectra`,
    which transforms each operand once."""
    spectra, items = {}, []
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            if c1 is _UNIT:
                c = c2
            elif c2 is _UNIT:
                c = c1
            elif c1.__class__ is Poly is c2.__class__:
                c = Poly._raw(c1.field, _mul_arrays(c1.coeffs, c2.coeffs, c1.field.p, spectra))
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
    On an equation of windows the step is the same, and a window's
    InsufficientPrecisionError says it cannot decide bar.
    """
    n = P.degree_x
    bar = -(P.coefficient(n - 1) // P.terms[n])
    if bar.degree < 1:
        # no tail follows a constant bar: the run ends, rationally if P(bar)
        # is zero (a window, a series, is never known to be)
        if not _nonzero(P(bar)):
            return bar, None
        raise NoAdmissibleQuotientError(1, bar, ())
    tail = _evaluate(P, {1: bar, 0: _UNIT}, {1: _UNIT})  # x = bar + 1/y
    return bar, (BiPoly._raw(P.field, tail) if n in tail else None)  # tail[n] is P(bar)


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
        for step, (bar, height) in enumerate(_quotients(P, m), start=1):
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


def _quotients(P: BiPoly, m: int) -> Iterator[Tuple[Poly, Optional[int]]]:
    """The first m quotients of P's root, each with the largest coefficient
    degree of the tail equation it leaves, or None for a rational end:
    jumps, each followed by one full-size step for what its windows left
    open."""
    left = m
    while True:
        bars, heights, windows = _jump(P, left)
        if bars:
            P = _apply(P, bars, windows)
            yield from zip(bars, heights)
            left -= len(bars)
            if not left:
                return
        bar, P = next_step(P)
        yield bar, None if P is None else P.max_coeff_degree()
        left -= 1
        if P is None or not left:
            return


def _windows(P: BiPoly) -> Optional[BiPoly]:
    """P's coefficients as top windows at one floor below its height, or
    None when the equation is less than four windows high: a step on it
    then costs about as much as on its windows, and a jump gains nothing."""
    height = P.max_coeff_degree()
    length = max(_WINDOW_MIN_LEN, height // 32)
    if height < 4 * length:
        return None
    floor = height - length
    return BiPoly._raw(
        P.field, {e: LaurentSeries.from_poly(c, floor) for e, c in P.terms.items()}
    )


def _jump(P: BiPoly, budget: int) -> Tuple[List[Poly], List[int], Optional[BiPoly]]:
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
    while windows is not None and len(bars) < budget:
        try:
            bar, tail = next_step(windows)
        except (InsufficientPrecisionError, NoAdmissibleQuotientError):
            break
        if any(c.is_zero_to_floor for c in tail.terms.values()):
            break
        bars.append(bar)
        heights.append(max(c.top_degree for c in tail.terms.values()))
        windows = tail
    return bars, heights, windows


def _apply(P: BiPoly, bars: List[Poly], windows: BiPoly) -> BiPoly:
    """The tail of P after `bars`, by their composite map, checked against
    the windowed tail: each coefficient cut at its window's floor must
    equal the window."""
    tail = _mobius(P, *continuants(PartialQuotients(bars)))
    if tail.terms.keys() != windows.terms.keys() or any(
        LaurentSeries.from_poly(tail.terms[e], w.valid_order) != w
        for e, w in windows.terms.items()
    ):
        raise RuntimeError(
            f"a jump of {len(bars)} quotients disagrees with its windows"
        )
    return tail


def _mobius(P: BiPoly, x, y, x_prev, y_prev) -> BiPoly:
    """P's tail equation after quotients with continuants (x, y) and
    predecessors (x_prev, y_prev): sum of c_e * N^e * D^(n-e) for
    N = x*y' + x_prev and D = y*y' + y_prev in the new variable y'."""
    z, w = (_terms(P.field, [(1, a), (0, b)]) for a, b in ((x, x_prev), (y, y_prev)))
    return BiPoly._raw(P.field, _evaluate(P, z, w))


def eval_at_series(P: BiPoly, s: LaurentSeries) -> LaurentSeries:
    """P(s) with propagated validity: the result being zero to its floor
    certifies s as a root of P down to that order."""
    return _evaluate(P, {0: s}, {0: _UNIT})[0]


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


def _evaluate(P: BiPoly, z: Mapping[int, object], w: Mapping[int, object]) -> Dict[int, object]:
    """sum of c_e * z^e * w^(n-e) over the terms c_e*x^e of P, n = deg P,
    as a term map in y, for term maps z and w; P(z) when w is {0: unit}.

    With e = p*q + r and r < p, z^e = (z^p)^q * z^r, and z^p is a
    Frobenius image: the sum is Horner in (z^p, w^p) over q of Horner in
    (z, w) over r, of inner degree n mod p.  A homogeneous term with
    r > n mod p needs p more inner degree; those terms make a second such
    sum, one outer degree lower.
    """
    p, n = P.field.p, P.degree_x
    low = n % p
    parts: Dict[int, Dict[int, Dict[int, object]]] = {}
    for e, c in P.terms.items():
        q, r = divmod(e, p)
        parts.setdefault(int(r > low), {}).setdefault(q, {})[r] = {0: c}
    zp, wp = ({p * e: c.frobenius() for e, c in t.items()} for t in (z, w))
    total = None
    for high, groups in parts.items():
        inner = {q: _horner(rs, z, w, low + p * high) for q, rs in groups.items()}
        part = _horner(inner, zp, wp, n // p - high)
        total = part if total is None else _plus(total, part.items())
    return total
