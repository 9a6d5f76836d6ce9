"""Partial-quotient extraction from algebraic equations over F_p[T].

Given P with a power-series root alpha, one step emits the integer part
bar = -(P[n-1] // P[n]) of the root, then moves to the equation of the
tail 1/(alpha - bar) by a Taylor shift x -> x + bar followed by a
coefficient reversal.  Iterating yields the partial quotients one at a
time.  The step carries no correctness theorem here: outputs are meant
to be validated a posteriori through eval_at_series.

Equations are stored sparsely, by x-exponent, and the Taylor shift
expands each term by the binomial theorem, keeping only the binomials
that are nonzero mod p.  For the hyperquadratic equations
A*x^(p+1) + B*x^p + C*x + D this preserves the support {0, 1, p, p+1}
at every step, with bar^p computed as a Frobenius.  The shifted x^0
coefficient is P(bar), which decides rational termination.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import FieldElement, Poly, PrimeField
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
    either that map or a dense sequence indexed by exponent.
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
        n = self.degree_x
        acc = self.terms[n]
        for e in range(n - 1, -1, -1):
            acc = acc * value + self.coefficient(e)
        return acc

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
    p = P.field.p
    n = P.degree_x
    bar = -(P.coefficient(n - 1) // P.terms[n])
    powers: Dict[int, Poly] = {}

    def power(j: int) -> Poly:
        # bar**p is a Frobenius; bar**(p+1) reuses it
        if j not in powers:
            powers[j] = bar ** j if j <= p else power(j - 1) * bar
        return powers[j]

    # c*(x + bar)^e = sum over k of comb(e, k)*c*bar^(e-k)*x^k; by Lucas's
    # theorem comb(p+1, k) and comb(p, k) vanish mod p unless k is in
    # {0, 1, p, p+1}, so the shift keeps the hyperquadratic support
    shifted: Dict[int, Poly] = {}
    for e, c in P.terms.items():
        for k in range(e + 1):
            binom = comb(e, k) % p
            if binom:
                term = c * binom * power(e - k)
                shifted[k] = shifted[k] + term if k in shifted else term
    if shifted[0].is_zero:  # the x^0 coefficient is P(bar)
        return bar, None
    if bar.degree < 1:
        raise NoAdmissibleQuotientError(1, bar, ())
    return bar, BiPoly(P.field, {n - k: c for k, c in shifted.items()})


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
    n = P.degree_x
    # exact coefficients; a floor far below anything the products can
    # reach, so the precision of s is the only binding constraint
    coeff_floor = (min(s.valid_order, -1) - 1) * (n + 1) - P.max_coeff_degree()
    acc = LaurentSeries.from_poly(P.coefficient(n), coeff_floor)
    for e in range(n - 1, -1, -1):
        acc = acc * s + LaurentSeries.from_poly(P.coefficient(e), coeff_floor)
    return acc
