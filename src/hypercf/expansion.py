"""Partial-quotient extraction from algebraic equations over F_p[T].

Given P of degree n in x with a power-series root alpha, one step emits
the integer part bar = -(P[n-1] // P[n]) of the root and moves to the
equation y^n * P(bar + 1/y) of the tail 1/(alpha - bar).  Iterating
yields the partial quotients one at a time, with no correctness theorem
here: outputs are validated a posteriori through eval_at_series.

Both a step and P at a value are Horner schemes split by the Frobenius
identity (x + bar)^p = x^p + bar^p, e = p*(e // p) + e % p.  P(v), for a
polynomial or a series v, is Horner in v^p over e // p of Horner in v
over e % p, on raw values, (floor, array) pairs, by the rules of
`series`, each step one fused product acc*v + c: on the support
{0, 1, p, p+1}, v^p*(A*v + B) + (C*v + D), 3 products.  A step's tail is
the Taylor shift Q(x) = P(x + bar), tail[n-e] = Q[e], on exact arrays:
Horner in x^p + bar^p over e // p of Horner in x + bar over e % p, each
step f*(x^k + g) + c, c of degree below k, one fused product
f[e]*g + (f[e-k] or c[e]) per term of f.  On {0, 1, p, p+1} it is
A' = bar^p*(A*bar + B) + C*bar + D, B' = A*bar^p + C, C' = A*bar + B,
D' = A: 4 products.

`expand` works on raw arrays from its input's coefficients to the
quotients it emits: no BiPoly and no LaurentSeries is made in between.
An equation of x-degree p+1 on the support {0, 1, p, p+1} runs a
homographic machine (Gosper, HAKMEM item 101): with x = alpha^p, alpha =
(a*x + b)/(c*x + d) for the state (a, b; c, d) = (-B, -D; A, C), and the
continued fraction of x is [a_1^p, a_2^p, ...], the Frobenius images of
alpha's own quotients.  The machine emits r = a // c, moving to (c, d;
a - r*c, b - r*d), where r is alpha's next quotient for every x of
degree at least delta: deg d and deg(b - r*d) below deg c + delta,
deg r >= 1 and the new row nonzero; otherwise it reads the image q of
the next emitted quotient not yet read, x = q + 1/x', moving to
(a*q + b, a; c*q + d, c).  delta is p*deg a_j for the next quotient a_j
to read once it is emitted, and p before.  Where nothing is left to
read, the state is the tail's equation c*y^(p+1) - a*y^p + d*y - b up to
sign, c zero at a rational end, and the machine stalls into one step on
it, which keeps the step's rule, aborts and rational ends.  Each emit
and read negates the determinant ad - bc, and a run ends by checking it.
Every other equation runs a step per quotient.  Either way a run's last
quotient forms no tail: the machine's is confirmed by the next emit or
stall, the step loop's is a division for bar.  One test decides P(bar) =
0 for a constant quotient and for that last one, on P by P(bar) at T = 0
and T = 1, formed only when both vanish.  A constant non-root aborts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import algebra
from .algebra import _EMPTY, Poly, PrimeField
from .cf import PartialQuotients
from .series import LaurentSeries, Raw, _raw_frobenius, _raw_mul

__all__ = [
    "BiPoly",
    "ExpansionResult",
    "NoAdmissibleQuotientError",
    "expand",
    "eval_at_series",
]

#: an exact term map: x-exponent to the ascending array of its coefficient
_Terms = Dict[int, np.ndarray]


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

    def _raw_terms(self) -> _Terms:
        """The terms as an exact term map of arrays, the engine's equations."""
        return {e: c.coeffs for e, c in self.terms.items()}

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


@dataclass
class ExpansionResult:
    """Outcome of an expansion run.

    `rational` marks that the equation turned out to have the last
    emitted quotient as an exact (rational) root, ending the expansion.
    `max_coeff_degree` is the largest T-degree seen among the working
    equation's coefficients, on the machine the entries of its state, the
    coefficients of the equation linking y to x; `coeff_degree_bound` is
    the a-priori bound it was checked against after every step.
    """

    quotients: PartialQuotients
    rational: bool
    rational_value: Optional[Poly]
    max_coeff_degree: int
    coeff_degree_bound: int


def _step(field: PrimeField, P: _Terms) -> Tuple[Poly, Optional[_Terms]]:
    """One step on an exact term map: bar and the tail's map, None at a
    rational end."""
    p, n, bar = field.p, max(P), _bar(field, P)
    if bar.degree < 1 and _is_root(field, P, bar):  # the root, or `_is_root` aborts
        return bar, None
    # y^n * P(bar + 1/y) = sum of Q[e] * y^(n-e) for Q(x) = P(x + bar)
    Q = _shift(p, P, bar.coeffs)
    tail = {n - e: c for e, c in Q.items() if c.size}
    return bar, (tail if n in tail else None)  # tail[n] is P(bar)


def _bar(field: PrimeField, P: _Terms) -> Poly:
    """The quotient -(P[n-1] // P[n]) of an exact term map, n = max(P)."""
    p, n = field.p, max(P)
    return Poly._raw(field, -algebra._floordiv_arrays(P.get(n - 1, _EMPTY), P[n], p) % p)


def _is_root(field: PrimeField, P: _Terms, bar: Poly) -> bool:
    """Whether P's quotient bar is its root, P(bar) = 0: a rational end.
    P(bar) is read at T = 0 and T = 1, from each array's first entry and
    its sum, and formed only when both vanish.  A constant non-root
    aborts: no tail follows."""
    p, root = field.p, True
    for read in (lambda c: c[:1].sum(), np.sum):  # P(bar) at T = 0, then at T = 1
        b = int(read(bar.coeffs))
        root = root and not sum(int(read(c)) * pow(b, e, p) for e, c in P.items()) % p
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
    p, terms = P.field.p, P._raw_terms()
    hyperquadratic = max(terms) == p + 1 and terms.keys() <= {0, 1, p, p + 1}
    try:
        for step, (bar, height, _) in enumerate(
                (_machine if hyperquadratic else _run)(P.field, terms, m), start=1):
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


#: a run's quotients: (quotient, height after it, the tail's map or None);
#: height None at a rational end, the quotient the root
_Quotients = Iterator[Tuple[Poly, Optional[int], Optional[_Terms]]]


def _run(field: PrimeField, P: _Terms, budget: int) -> _Quotients:
    """Up to `budget` quotients of the exact term map P, one `_step` each,
    with the largest coefficient degree of its tail.  The budget's last
    quotient is a division for bar that forms no tail: height -1, None at
    a rational end, and no tail map."""
    for left in range(budget, 0, -1):
        if left == 1:
            bar = _bar(field, P)
            yield bar, (None if _is_root(field, P, bar) else -1), None
            return
        bar, P = _step(field, P)
        yield bar, (None if P is None else _height(P)), P
        if P is None:
            return


def _height(P: _Terms) -> int:
    """The largest coefficient degree of an exact term map."""
    return max(c.size for c in P.values()) - 1


def _machine(field: PrimeField, P: _Terms, budget: int) -> _Quotients:
    """Up to `budget` quotients of A*x^(p+1) + B*x^p + C*x + D, the exact
    term map P, by the homographic machine on its state (a, b; c, d),
    with the largest entry degree after each.  An emitted quotient is
    held back until the next emit shows it is not the root, or a stall
    with c zero that it is; a stall steps on the tail's equation and takes
    its tail as the state, an emit and a read.  RuntimeError where the
    run's determinant is not (-1)^(emits + reads) * (AD - BC)."""
    p = field.p
    A, B, C, D = (P.get(e, _EMPTY) for e in (p + 1, p, 1, 0))
    state, updates, held = [-B % p, -D % p, A, C], 0, None
    det = _determinant(p, *state)
    emitted: List[np.ndarray] = []
    read = 0
    while True:
        a, b, c, d = state
        delta = p * (emitted[read].size - 1) if read < len(emitted) else p
        if c.size and a.size > c.size and d.size < c.size + delta:  # deg r >= 1
            r = algebra._floordiv_arrays(a, c, p)
            low = algebra._mul_arrays(-r % p, d, p, b)  # b - r*d
            high = algebra._mul_arrays(-r % p, c, p, a) if low.size < c.size + delta else None
            if high is not None and (high.size or low.size):
                if len(emitted) == budget:
                    break
                if held:
                    yield held
                state, updates = [c, d, high, low], updates + 1
                emitted.append(r)
                held = (Poly._raw(field, r), max(v.size for v in state) - 1, None)
                continue
        if read < len(emitted):
            q = algebra._frobenius_array(emitted[read], p)
            state = [algebra._mul_arrays(a, q, p, b), a, algebra._mul_arrays(c, q, p, d), c]
            read, updates = read + 1, updates + 1
            continue
        if not c.size:  # the held quotient is the root
            held = (held[0], None, None)
            break
        if held:
            if len(emitted) == budget:
                break
            yield held
        tail = {e: v for e, v in zip((p + 1, p, 1, 0), (c, -a % p, d, -b % p)) if v.size}
        bar, height, tail = held = next(_run(field, tail, budget - len(emitted)))
        if tail is None:
            break
        A, B, C, D = (tail.get(e, _EMPTY) for e in (p + 1, p, 1, 0))
        state, updates = [-B % p, -D % p, A, C], updates + 2
        emitted.append(bar.coeffs)
        read = len(emitted)
        yield held
        held = None
    if not np.array_equal(_determinant(p, *state), -det % p if updates % 2 else det):
        raise RuntimeError(f"the machine's determinant identity failed after {updates} updates")
    yield held


def _determinant(p: int, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """ad - bc."""
    return algebra._mul_arrays(a, d, p, -algebra._mul_arrays(b, c, p) % p)


def eval_at_series(P: BiPoly, s: LaurentSeries) -> LaurentSeries:
    """P(s) with propagated validity: the result being zero to its floor
    certifies s as a root of P down to that order."""
    value = _value(P.field.p, P._raw_terms(), (s.valid_order, s.coeffs))
    return LaurentSeries._raw(P.field, *value)


def _value(p: int, P: Mapping[int, np.ndarray], v: Raw) -> Raw:
    """P(v) for an exact term map P and a raw value v, exact or a series,
    zero as (None, _EMPTY): Horner in v^p over e // p of Horner in v over
    e % p, each step one fused product acc*v + c."""
    vp = _raw_frobenius(v, p) if max(P) >= p else None  # read where e // p > 0
    acc = None
    for group in _groups(p, P):
        inner = None
        for r in range(max(group, default=-1), -1, -1):
            c = (None, group.get(r, _EMPTY))
            inner = c if inner is None else _raw_mul(inner, v, p, c)
        acc = inner if acc is None else _raw_mul(acc, vp, p, inner or (None, _EMPTY))
    return acc


def _shift(p: int, P: Mapping[int, np.ndarray], bar: np.ndarray) -> Dict[int, np.ndarray]:
    """The Taylor shift P(x + bar) of an exact term map, zeros kept:
    Horner in x^p + bar^p over e // p of Horner in x + bar over e % p."""
    barp = algebra._frobenius_array(bar, p) if max(P) >= p else None  # read where e // p > 0
    acc = {}
    for group in _groups(p, P):
        inner = {}
        for r in range(max(group, default=-1), -1, -1):
            inner = _times_plus(p, inner, 1, bar, {0: group[r]} if r in group else {})
        acc = _times_plus(p, acc, p, barp, inner)
    return acc


def _groups(p: int, P: Mapping[int, object]) -> Iterator[Dict[int, object]]:
    """P's terms by e // p from the top down, each keyed by e % p, empty
    where no term has that e // p."""
    groups: Dict[int, Dict[int, object]] = {}
    for e, c in P.items():
        groups.setdefault(e // p, {})[e % p] = c
    return (groups.get(q, {}) for q in range(max(groups), -1, -1))


def _times_plus(p: int, f: Mapping[int, np.ndarray], k: int, g: np.ndarray,
                c: Mapping[int, np.ndarray]) -> Dict[int, np.ndarray]:
    """f*(x^k + g) + c for term maps f and c of exact arrays, c of degree
    below k, so that f*x^k and c share no term: one fused product
    f[e]*g + (f[e-k] or c[e]) per term of f."""
    out = {**c, **{e + k: a for e, a in f.items()}}
    for e, a in f.items():
        out[e] = algebra._mul_arrays(a, g, p, out.get(e, _EMPTY))
    return out
