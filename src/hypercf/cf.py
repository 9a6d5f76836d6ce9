"""Continued fractions over F_p[T]: continuants, convergents, conversions.

Partial quotients are polynomials of degree >= 1 (the expansions handled
here never contain constant quotients, and the first quotient is held to
the same rule).  Positions are reported 1-based: a_1 is the first
quotient, matching the continuant initial conditions x_1 = a_1, y_1 = 1.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import algebra
from .algebra import _FFT_MIN_LEN, Poly, _trim
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
            if not isinstance(a, Poly) or a.coeffs.size < 2:
                raise ValueError(
                    f"partial quotient a_{i + 1} must be a polynomial of degree >= 1"
                )
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Poly]:
        return iter(self.items)

    def __getitem__(self, i):
        if isinstance(i, slice):  # of validated items, so not checked again
            out = object.__new__(PartialQuotients)
            out.items = self.items[i]
            return out
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
        return self[start - 1 :]

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
    y_{N-1}): the entries of M(a_1)...M(a_N) = [[x_N, x_{N-1}], [y_N,
    y_{N-1}]], M(a) = [[a, 1], [1, 0]], multiplied in a product tree.

    The tree splits the quotients where their degree sum reaches half, so
    a deep quotient becomes a leaf of its own.  A run of degree sum at most
    _FFT_MIN_LEN, whose products are short convolutions anyway, is a leaf
    stepped by K_n = a_n*K_{n-1} + K_{n-2} from (x_1, x_0) = (a_1, 1) and
    (y_1, y_0) = (1, 0) on packed arrays, x and y in the low and high half
    of one array, so a step is one product (see _fold).  A node multiplies
    its halves' matrices, four entries of two products each (see
    _product), so each tree level costs a few products of the final size
    where a fold paid one per quotient.  One pair is held per tree level,
    O(total degree) in all, not every convergent.  The tree runs on
    coefficient arrays, through the `algebra` kernels held at the time of
    the call, and only the root's pair becomes Polys.

    The determinant identity x_N*y_{N-1} - x_{N-1}*y_N = (-1)^N is checked
    once, at the root, and a failure raises RuntimeError.  That one check
    catches any single faulty node entry and the leaf faults below.  In
    a leaf, every exact step maps det_n to -det_{n-1}, whatever its
    inputs.  A packed step that shifts x_n by e_x and y_n by e_y shifts
    det_n by e_x*y_{n-1} - e_y*x_{n-1}, and as gcd(x_{n-1}, y_{n-1}) = 1
    that is zero only when (e_x, e_y) = c*(x_{n-1}, y_{n-1}).  So every
    fault confined to one half is caught, and with it every
    single-coefficient fault, as long as the shifted entries lie at or
    below deg x_n in their half: the shifted x and y then stay below
    degree g to the leaf's end, so the later steps carry them exactly.  (A
    term put above deg x_n, where the exact product has none, may cross
    between the halves later, which this argument leaves out.)  In a node,
    an entry wrong by e shifts the determinant, which is linear in each
    entry, by e times a cofactor, an entry of the node's matrix and a
    nonzero continuant, as a node spans at least two quotients.  Every
    other factor above it is exact and unimodular, so the shift reaches
    the root times a sign.
    """
    items = pqs.items
    if not items:
        raise ValueError("continuants need at least one partial quotient")
    field = items[0].field
    if any(a.field != field for a in items):
        raise ValueError("field mismatch")
    sums = [0, *accumulate(a.coeffs.size - 1 for a in items)]
    pair = _product([a.coeffs for a in items], sums, 0, len(items), field.p)
    return _checked(*(Poly._raw(field, c) for c in pair), len(items))


def _product(items, sums, lo: int, hi: int, p: int):
    """M(a) over the arrays items[lo:hi] as (x, y, x', y'), sums[i] being
    the degree sum of items[:i]: a fold, or the product of the halves split
    where the degree sum reaches half, (x, y, x', y') by (X, Y, X', Y').

    Each entry of a node is a sum u*U + v*V of two products.  While both x
    and X reach the FFT threshold and the balanced bound of such a sum,
    2*((p-1)/2)^2 * min(len), passes `algebra._fft_length`'s exactness
    test, the entries are taken in one transform domain: the 8 operands
    are transformed once, at the length of x*X, products and sums are
    pointwise and each entry takes one inverse transform.  Otherwise, and
    for an entry that fails its rounding check, the entry is u*U with v*V
    as its addend.  So is every entry of a node with a half of one
    quotient a, (a, 1, 1, 0), which leaves two products by a to form:
    4 forward and 2 inverse transforms against the domain's 8 and 4."""
    if hi - lo == 1 or sums[hi] - sums[lo] <= _FFT_MIN_LEN:
        return _fold(items[lo:hi], p)
    mid = bisect_left(sums, (sums[lo] + sums[hi]) / 2, lo + 1, hi - 1)
    left, right = _product(items, sums, lo, mid, p), _product(items, sums, mid, hi, p)
    # entry (u, U) is left[u]*right[U] + left[u+2]*right[U+1]: x*X + x'*Y,
    # y*X + y'*Y, x*X' + x'*Y' and y*X' + y'*Y'
    entries = [(u, U) for U in (0, 2) for u in (0, 1)]
    n, shorter = left[0].size + right[0].size - 1, min(left[0].size, right[0].size)
    out = [None] * 4
    size = algebra._fft_length(n, 2 * ((p - 1) // 2) ** 2 * shorter)
    if shorter >= _FFT_MIN_LEN and size and min(mid - lo, hi - mid) > 1:
        f, F = ([algebra._spectrum(c, p, size) for c in half] for half in (left, right))
        out = [algebra._from_spectrum(f[u] * F[U] + f[u + 2] * F[U + 1], size, n, p)
               for u, U in entries]
    mul = algebra._mul_arrays
    return tuple(_trim(c) if c is not None else
                 mul(left[u], right[U], p, mul(left[u + 2], right[U + 1], p))
                 for c, (u, U) in zip(out, entries))


def _fold(items, p: int):
    """M(a) over the nonempty arrays items as (x, y, x', y'), by the
    recurrence on one packed array per column: x in entries [0, g) and y
    in [g, 2g), g being the degree sum plus one, which lies above every
    degree x or y reaches.  A step is one product with its addend, X =
    (a*X + X')[:2g], reduced once, and no term crosses into y's half or
    past the cut, as deg(a_n*x_(n-1)) = deg x_n < g and deg(a_n*y_(n-1))
    = deg y_n < g."""
    g = sum(a.size - 1 for a in items) + 1
    X, X_prev = np.zeros(2 * g, np.int64), np.zeros(2 * g, np.int64)
    X[: items[0].size], X[g], X_prev[0] = items[0], 1, 1
    convolve = algebra._convolve
    for a in items[1:]:
        X, X_prev = convolve(a, X, p, X_prev)[: 2 * g], X
    # copies, so the tree above does not hold a leaf's packed arrays: for a
    # deep single-quotient leaf they are four times the size of its x
    return tuple(_trim(half).copy() for half in (X[:g], X[g:], X_prev[:g], X_prev[g:]))


def prefixed_continuants(prefix: Sequence[Poly], tail: PartialQuotients):
    """The continuant pairs of prefix + tail and of tail: the tail's product
    tree, then M(a_1)...M(a_k) times its pair, M(a) taking (x, y, x', y')
    to (a*x + y, x, a*x' + y', x'), checked as in continuants.

    Passing prefix + tail to `continuants` as well would multiply the
    tail's tree a second time; the prefix costs 2k products on the tail's
    pair instead, each by a short quotient.  A fold from the identity
    would also hide a wrong first product, which against y' = 0 leaves the
    determinant unchanged."""
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
    exponent >= -2*deg(y_m) trustworthy, deg(y_m) = deg a_2 + ... + deg a_m.
    """
    rest = pqs.items[1:]
    return 2 * (len(rest) - sum(a.coeffs.size for a in rest))


def cf_to_series(pqs: PartialQuotients, order: int) -> LaurentSeries:
    """Series of the continued fraction, exact for terms of degree >= order.

    The quotients are a prefix of an infinite expansion, so `order` must
    not pass the validity floor of the deepest convergent.  A finite
    expansion's value is `series_from_rational` of its last convergent.
    """
    x, y, _, _ = continuants(pqs)
    floor = -2 * y.degree  # convergent_validity_floor(pqs), read off y_N
    if order < floor:
        raise InsufficientPrecisionError(
            f"insufficient partial quotients for requested order {order} "
            f"(floor is {floor})"
        )
    return series_from_rational(x, y, order)
