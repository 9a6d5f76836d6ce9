"""Continued fractions over F_p[T]: continuants, convergents, conversions.

Partial quotients are polynomials of degree >= 1 (the expansions handled
here never contain constant quotients, and the first quotient is held to
the same rule).  Positions are reported 1-based: a_1 is the first
quotient, matching the continuant initial conditions x_1 = a_1, y_1 = 1.
"""
from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import Poly
from .series import InsufficientPrecisionError, LaurentSeries, series_from_rational

__all__ = [
    "PartialQuotients",
    "continuants",
    "rational_to_cf",
    "cf_to_series",
    "convergent_validity_floor",
]


class PartialQuotients:
    """An ordered, immutable list of partial quotients a_1, a_2, ...

    May be empty (an expansion that terminated before its first
    quotient); the operations that need at least one quotient say so.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Poly] = ()):
        items = tuple(items)
        for i, a in enumerate(items):
            if not isinstance(a, Poly) or a.is_zero or a.degree < 1:
                raise ValueError(
                    f"partial quotient a_{i + 1} must be a polynomial of degree >= 1"
                )
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Poly]:
        return iter(self.items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PartialQuotients(self.items[i])
        return self.items[i]

    def quotient(self, n: int) -> Poly:
        """1-based access: quotient(1) is a_1."""
        if not 1 <= n <= len(self.items):
            raise IndexError(f"no partial quotient a_{n}")
        return self.items[n - 1]

    def tail(self, start: int) -> "PartialQuotients":
        """The tail [a_start, a_start+1, ...] (1-based)."""
        if not 1 <= start <= len(self.items):
            raise IndexError(f"tail start {start} out of range")
        return PartialQuotients(self.items[start - 1 :])

    def degrees(self) -> List[int]:
        return [int(a.degree) for a in self.items]

    def leading_coefficients(self) -> List[int]:
        return [a.leading_coefficient().value for a in self.items]

    def first_difference(self, other: "PartialQuotients") -> Optional[int]:
        """1-based index of the first disagreement, or None if one list is
        a prefix of the other and they agree on the overlap."""
        for n, (a, b) in enumerate(zip(self.items, other.items), start=1):
            if a != b:
                return n
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialQuotients) and other.items == self.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.items)
        return f"[{inner}]"


def continuants(pqs: PartialQuotients) -> Tuple[Poly, Poly, Poly, Poly]:
    """The final convergent pair and its predecessor, (x_N, y_N, x_{N-1},
    y_{N-1}), via K_n = a_n*K_{n-1} + K_{n-2} from (x_1, x_0) = (a_1, 1)
    and (y_1, y_0) = (1, 0).  Only the pair in flight is kept, so memory
    stays at the size of the last convergent whatever N is.

    The determinant identity x_n*y_{n-1} - x_{n-1}*y_n = (-1)^n is checked
    once, on the final pair, and a failure raises RuntimeError.  That one
    check catches any single faulty step: every exact step maps
    det_n to -det_{n-1}, whatever its inputs, so a step that gets x_n
    wrong by e (or y_n wrong by e) shifts det_n by e*y_{n-1} (or by
    -e*x_{n-1}), a nonzero polynomial, and the later steps carry that
    shift to det_N with only its sign flipped.
    """
    if not pqs.items:
        raise ValueError("continuants need at least one partial quotient")
    field = pqs.items[0].field
    x_prev, y_prev = Poly(field, (1,)), Poly(field, ())
    x, y = pqs.items[0], Poly(field, (1,))
    for a in pqs.items[1:]:
        x, x_prev = a * x + x_prev, x
        y, y_prev = a * y + y_prev, y
    return _checked(x, y, x_prev, y_prev, len(pqs.items))


def prefixed_continuants(prefix: Sequence[Poly], tail: PartialQuotients):
    """The continuant pairs of prefix + tail and of tail: one pass over the
    tail, then M(a_1)...M(a_k) times its pair, M(a) = [[a, 1], [1, 0]] taking
    (x, y, x', y') to (a*x + y, x, a*x' + y', x'), checked as in continuants.

    The prefix is not folded into `continuants` as one right fold: a
    stream's largest quotient comes last (degree 4801 at p=7 through n_4),
    which a right fold meets at every step and this left fold once; such a
    version took 1.3-1.5 times as long to certify that stream (2-vCPU
    host).  A fold from the identity would also hide a wrong first
    product, which against y' = 0 leaves the determinant unchanged."""
    x, y, x_prev, y_prev = pair = continuants(tail)
    for a in reversed(prefix):
        x, y, x_prev, y_prev = a * x + y, x, a * x_prev + y_prev, x_prev
    return _checked(x, y, x_prev, y_prev, len(prefix) + len(tail.items)), pair


def _checked(x: Poly, y: Poly, x_prev: Poly, y_prev: Poly, n: int):
    """The pair, once its determinant is (-1)^n; RuntimeError otherwise."""
    if x * y_prev - x_prev * y != Poly(x.field, ((-1) ** n,)):
        raise RuntimeError(f"determinant identity failed at n={n}")
    return x, y, x_prev, y_prev


def rational_to_cf(num: Poly, den: Poly) -> PartialQuotients:
    """Euclidean-algorithm expansion of num/den.

    Requires deg num > deg den so that every quotient, including the
    first, has degree >= 1; the continuants of the result reproduce
    num/den in lowest terms.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.degree <= den.degree:
        raise ValueError(
            "rational_to_cf requires deg(num) > deg(den) "
            "(the first partial quotient must be non-constant)"
        )
    quotients = []
    a, b = num, den
    while not b.is_zero:
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    return PartialQuotients(quotients)


def convergent_validity_floor(pqs: PartialQuotients) -> int:
    """Deepest order claimable for the infinite expansion from this prefix.

    The error of x_m/y_m has degree -deg(y_m) - deg(y_{m+1}); without
    a_{m+1} the bound deg(y_{m+1}) >= deg(y_m) + 1 leaves every term of
    exponent >= -2*deg(y_m) trustworthy.
    """
    deg_y = sum(int(a.degree) for a in pqs.items[1:])
    return -2 * deg_y


def cf_to_series(pqs: PartialQuotients, order: int) -> LaurentSeries:
    """Series of the continued fraction, exact for terms of degree >= order.

    The quotients are a prefix of an infinite expansion, so `order` must
    not pass the validity floor of the deepest convergent.  A finite
    expansion's value is `series_from_rational` of its last convergent.
    """
    x, y, _, _ = continuants(pqs)
    floor = convergent_validity_floor(pqs)
    if order < floor:
        raise InsufficientPrecisionError(
            f"insufficient partial quotients for requested order {order} "
            f"(floor is {floor})"
        )
    return series_from_rational(x, y, order)
