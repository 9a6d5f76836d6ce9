"""Partial-quotient extraction from algebraic equations over F_p[T].

Given P with a power-series root alpha, one step emits the integer part
bar = -(P[n-1] // P[n]) of the root, then moves to the equation of the
tail 1/(alpha - bar) by a Taylor shift x -> x + bar followed by a
coefficient reversal.  Iterating yields the partial quotients one at a
time.  The step carries no correctness theorem here: outputs are meant
to be validated a posteriori through eval_at_series.

Equations are stored sparsely, by x-exponent.  The Taylor shift
P(x + bar), P at a polynomial and P at a series all take one
Frobenius-split Horner: in characteristic p, (x + bar)^p = x^p + bar^p,
so for A*x^(p+1) + B*x^p + C*x + D it is (A*z + B)*z^p + C*z + D with
z^p a Frobenius, which keeps the support {0, 1, p, p+1} at every step.
The shifted x^0 coefficient is P(bar), which decides rational termination.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import Poly, PrimeField
from .cf import PartialQuotients
from .series import LaurentSeries

__all__ = [
    "BiPoly",
    "ExpansionResult",
    "NoAdmissibleQuotientError",
    "next_step",
    "expand",
    "eval_at_series",
]


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
    either that map or a dense sequence indexed by exponent.  `+` and `*`
    take a BiPoly or a bare Poly (or scalar), which is the x^0 term.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimeField, coeffs: Union[Mapping, Sequence]):
        items = coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs)
        terms: Dict[int, Poly] = {}
        for e, c in items:
            if e < 0:
                raise ValueError("x-exponents must be nonnegative")
            if not isinstance(c, Poly):
                c = Poly(field, (c,))
            elif c.field != field:
                raise ValueError("field mismatch")
            if not c.is_zero:
                terms[e] = c
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
        return _evaluate(self, value, value.frobenius())

    def _collect(self, terms: Iterable[Tuple[int, Poly]]) -> "BiPoly":
        out: Dict[int, Poly] = {}
        for e, c in terms:
            out[e] = out[e] + c if e in out else c
        return BiPoly(self.field, out)

    def __add__(self, other) -> "BiPoly":
        o = other.terms if isinstance(other, BiPoly) else {0: other}
        return self._collect([*self.terms.items(), *o.items()])

    def __mul__(self, other) -> "BiPoly":
        o = other.terms if isinstance(other, BiPoly) else {0: other}
        return self._collect(
            (e1 + e2, c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in o.items()
        )

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
        parts = []
        for i in sorted(self.terms, reverse=True):
            xs = "" if i == 0 else ("*x" if i == 1 else f"*x^{i}")
            parts.append(f"({self.terms[i]}){xs}")
        return " + ".join(parts)


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
    """
    field = P.field
    n = P.degree_x
    bar = -(P.coefficient(n - 1) // P.terms[n])
    z = BiPoly(field, {1: 1, 0: bar})
    shifted = _evaluate(P, z, BiPoly(field, {field.p: 1, 0: bar.frobenius()}))
    if 0 not in shifted.terms:  # the x^0 coefficient is P(bar)
        return bar, None
    if bar.degree < 1:
        raise NoAdmissibleQuotientError(1, bar, ())
    return bar, BiPoly(field, {n - k: c for k, c in shifted.terms.items()})


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
    current = P
    for step in range(1, m + 1):
        try:
            bar, current = next_step(current)
        except NoAdmissibleQuotientError as err:
            raise NoAdmissibleQuotientError(step, err.bar, emitted) from None
        if bar.degree >= 1:
            emitted.append(bar)
            degree_sum += int(bar.degree)
        if current is None:
            rational_value = bar
            break
        if step == m:
            break
        height = current.max_coeff_degree()
        max_seen = max(max_seen, height)
        bound = base_height + current.degree_x * degree_sum
        if height > bound:
            raise RuntimeError(
                f"coefficient degree {height} exceeded the bound {bound} "
                f"after step {step}"
            )
    return ExpansionResult(
        quotients=PartialQuotients(emitted),
        rational=rational_value is not None,
        rational_value=rational_value,
        max_coeff_degree=max_seen,
        coeff_degree_bound=base_height + P.degree_x * degree_sum,
    )


def eval_at_series(P: BiPoly, s: LaurentSeries) -> LaurentSeries:
    """P(s) with propagated validity: the result being zero to its floor
    certifies s as a root of P down to that order."""
    return _evaluate(P, s, s.frobenius())


def _horner(terms: Mapping[int, object], z):
    """sum of terms[k] * z^k, by Horner over k from the top down."""
    acc = terms[max(terms)]
    for k in range(max(terms) - 1, -1, -1):
        acc = acc * z
        if k in terms:
            acc = acc + terms[k]
    return acc


def _evaluate(P: BiPoly, z, zp):
    """P(z) for a Poly, LaurentSeries or BiPoly z, given zp = z^p: with
    P(x) = sum over q of x^(pq) * R_q(x) and deg R_q < p, Horner in zp
    over q of Horner in z over R_q."""
    p = P.field.p
    groups: Dict[int, Dict[int, Poly]] = {}
    for e, c in P.terms.items():
        groups.setdefault(e // p, {})[e % p] = c
    return _horner({q: _horner(r, z) for q, r in groups.items()}, zp)
