"""Truncated formal Laurent series in 1/T over F_p with tracked precision.

Every series carries a validity floor V (`valid_order`): all terms with
exponent >= V are exact, and nothing at all is claimed below V.  Arithmetic
propagates the weakest floor justified by its inputs, so "the residual is
zero down to order K" is a checkable statement, never an accident of
truncation.

Precision rules (window of a runs [V_a, top_a], similarly for b):

* add/sub:   V = max(V_a, V_b)
* mul:       V = max(V_a + top_b, V_b + top_a)
* exact operands: an int, FieldElement or Poly c is known to every
             order: a + c keeps V = V_a, a*c has V = V_a + deg c
             (a constant, zero included, keeps V_a), and a/c, for c
             nonzero, has V = V_a - deg c; an operand that is neither
             a series nor exact raises TypeError, as Poly's do
* div a/b:   V = max(V_a - top_b, V_b + top_a - 2*top_b), an exact
             operand's term left out (the second bounds the leakage of
             b's unknown tail through the quotient)
* frobenius: V = p*(V - 1) + 1

The window is stored in the Poly layout shifted to the floor, ascending
from V and trimmed at the top, so a series is T^V times a Poly-layout
array and its arithmetic runs on the polynomial kernels.  A series that
is zero everywhere above its floor is stored with an empty window; for
the precision rules its nominal top degree is taken to be V - 1.

The rules of +, -, *, / and Frobenius are written once, in functions on
raw values, (floor, array) pairs: a series is (V, window) and an exact
polynomial (None, coeffs), with no floor.  The methods below and the
extraction engine's evaluations both call them.
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .algebra import (
    _EMPTY, FieldElement, Poly, PrimeField, _add_arrays, _fit, _frobenius_array, _frozen,
    _mul_arrays, _render, _residue, _residues, _top_quotient, _trim,
)

__all__ = ["LaurentSeries", "series_from_rational", "InsufficientPrecisionError"]


class InsufficientPrecisionError(ValueError):
    """Raised when a requested order lies below what the data supports."""


#: a raw value: (floor, ascending array), the floor None for an exact one
Raw = Tuple[Optional[int], np.ndarray]


def _cut(a: Raw, v: int) -> np.ndarray:
    """a's entries from exponent v up; an exact value is known to every
    order, so zero below its constant term.  A cut below a series' floor
    raises InsufficientPrecisionError: nothing is known there."""
    floor, arr = a
    if floor is not None:
        if v < floor:
            raise InsufficientPrecisionError(f"a cut at {v} is below the floor {floor}")
        return arr if v == floor else arr[v - floor :]
    if v < 0 and arr.size:
        return np.concatenate((np.zeros(-v, dtype=np.int64), arr))
    return arr[max(v, 0) :]


def _raw_add(a: Raw, b: Raw, p: int) -> Raw:
    """a + b at the higher floor."""
    (v_a, x), (v_b, y) = a, b
    if v_a == v_b:  # both exact, or both at one floor
        return v_a, _add_arrays(x, y, p)
    v = v_b if v_a is None else v_a if v_b is None else max(v_a, v_b)
    return v, _add_arrays(_cut(a, v), _cut(b, v), p)


def _raw_mul(a: Raw, b: Raw, p: int, c: Raw = (None, _EMPTY)) -> Raw:
    """a*b + c for any raw values, exact or series, c an exact zero unless
    given: at the product's floor, then the higher of that and c's, with
    c added to the product inside its one reduction."""
    if a[0] is None:
        if b[0] is None:
            if c[0] is None:
                return None, _mul_arrays(a[1], b[1], p, c[1])
            return _raw_add(_raw_mul(a, b, p), c, p)
        a, b = b, a
    (v_a, x), (v_b, y) = a, b
    top_a = v_a + x.size - 1
    if v_b is None:
        # the unknown terms below V reach up to V - 1 + deg b (a
        # constant, zero included, keeps V)
        top_b = y.size - 1
        v = v_a + top_b if top_b > 0 else v_a
    else:
        top_b = v_b + y.size - 1
        v = max(v_a + top_b, v_b + top_a)
    if c[0] is not None and c[0] > v:
        v = c[0]
    # a term of exponent e reaches the floor v only if e >= v - (the
    # other factor's top), which leaves top - v + 1 terms of each factor
    keep = top_a + top_b - v + 1
    if x.size == 0 or y.size == 0 or keep < 1:
        return v, _cut(c, v)
    x, y = x[-keep:] if keep < x.size else x, y[-keep:] if keep < y.size else y
    at = v - (top_a + top_b - x.size - y.size + 2)  # from the product's first exponent
    return v, _mul_arrays(x, y, p, _cut(c, v), at)


def _raw_frobenius(a: Raw, p: int) -> Raw:
    """a**p: exponent k goes to p*k, coefficients are Frobenius-fixed; a
    series' exponent V + i lands p*i + p - 1 above its new floor."""
    v, x = a
    if v is None:
        return None, _frobenius_array(x, p)
    return p * (v - 1) + 1, _frobenius_array(x, p, p - 1)


def _raw_div(a: Raw, b: Raw, p: int) -> Raw:
    """a/b from its floor V = max(V_a - top_b, V_b + top_a - 2*top_b), for
    a or b a series, an exact operand's term left out.  A divisor zero to
    its floor, of unknown degree, is refused; an exact zero dividend has
    no terms."""
    (v_a, x), (v_b, y) = a, b
    if y.size == 0:
        raise InsufficientPrecisionError("the divisor's degree is below its floor")
    top_a, top_b = (v_a or 0) + x.size - 1, (v_b or 0) + y.size - 1
    v = (v_a - top_b if v_b is None else v_b + top_a - 2 * top_b if v_a is None
         else max(v_a - top_b, v_b + top_a - 2 * top_b))
    n = top_a - top_b - v + 1
    return v, (_top_quotient(x, y, n, p) if x.size and n > 0 else _EMPTY)


class LaurentSeries:
    """A Laurent series in 1/T known exactly down to `valid_order`.

    `coeffs` has the Poly layout shifted to the floor: coeffs[i] is the
    coefficient of T**(valid_order + i), and the last stored coefficient
    is nonzero unless the series is (known-)zero to its floor, in which
    case the window is empty.  The constructor takes the window in
    descending order, from T**top_degree down to T**valid_order.
    """

    __slots__ = ("field", "valid_order", "coeffs")

    def __init__(
        self,
        field: PrimeField,
        top_degree: int,
        coeffs: Iterable,
        valid_order: int,
    ):
        # entries not covered by `coeffs` are asserted zero
        size = max(top_degree - valid_order + 1, 0)
        window = _fit(_residues(coeffs, field), size)
        self.field = field
        self.valid_order = valid_order
        self.coeffs = _frozen(_trim(window[::-1]))

    @classmethod
    def _raw(cls, field: PrimeField, valid_order: int, arr: np.ndarray):
        # arr must already be ascending from valid_order, trimmed and reduced mod p
        self = object.__new__(cls)
        self.field = field
        self.valid_order = valid_order
        self.coeffs = _frozen(arr)
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, valid_order: int) -> "LaurentSeries":
        return cls._raw(field, valid_order, _EMPTY)

    @classmethod
    def from_poly(cls, poly: Poly, valid_order: int) -> "LaurentSeries":
        return cls._raw(poly.field, valid_order, _cut((None, poly.coeffs), valid_order))

    @classmethod
    def from_terms(
        cls, field: PrimeField, terms: Dict[int, int], valid_order: int
    ) -> "LaurentSeries":
        top = max(terms, default=valid_order - 1)
        arr = np.zeros(max(top - valid_order + 1, 0), dtype=np.int64)
        for e, c in terms.items():
            c = _residue(field, c)
            if e >= valid_order:
                arr[e - valid_order] = c
        return cls._raw(field, valid_order, _trim(arr))

    # -- structure -----------------------------------------------------------

    @property
    def top_degree(self):
        """Degree of the leading stored term, or None if zero to the floor."""
        if self.coeffs.size == 0:
            return None
        return self._nominal_top

    @property
    def _nominal_top(self) -> int:
        return self.valid_order + self.coeffs.size - 1

    @property
    def is_zero_to_floor(self) -> bool:
        return self.coeffs.size == 0

    def term(self, k: int) -> FieldElement:
        if k < self.valid_order:
            raise ValueError(
                f"exponent {k} is below the validity floor {self.valid_order}"
            )
        if k > self._nominal_top:
            return self.field.zero
        return FieldElement(self.field, int(self.coeffs[k - self.valid_order]))

    def terms(self) -> Dict[int, int]:
        return {self.valid_order + i: int(c) for i, c in enumerate(self.coeffs) if c}

    def truncated(self, valid_order: int) -> "LaurentSeries":
        """Weaken the floor (valid_order may only move up)."""
        if valid_order < self.valid_order:
            raise ValueError("cannot deepen a validity floor by truncation")
        return LaurentSeries._raw(
            self.field, valid_order, self.coeffs[valid_order - self.valid_order :]
        )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LaurentSeries"):
        if other.field != self.field:
            raise ValueError("operands must be series over the same field")

    @property
    def _value(self) -> Raw:
        return self.valid_order, self.coeffs

    def _operand(self, other) -> Raw:
        """A series of self's field, or an exact Poly or scalar, as a raw value."""
        if isinstance(other, LaurentSeries):
            self._check(other)
            return other._value
        return None, Poly._coerce(self.field, other).coeffs

    def _series(self, value: Raw) -> "LaurentSeries":
        return LaurentSeries._raw(self.field, *value)

    def __add__(self, other):
        return self._series(_raw_add(self._value, self._operand(other), self.field.p))

    def __sub__(self, other):
        v, y = self._operand(other)  # the sum with the negation, trimmed as y is
        return self._series(_raw_add(self._value, (v, -y % self.field.p), self.field.p))

    def __rsub__(self, other):
        return -self + other

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._raw(
            self.field, self.valid_order, (-self.coeffs) % self.field.p
        )

    def __mul__(self, other):
        return self._series(_raw_mul(self._value, self._operand(other), self.field.p))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentSeries":
        b = self._operand(other)
        if b[1].size == 0:
            raise ZeroDivisionError("divisor is zero to its validity floor")
        return self._series(_raw_div(self._value, b, self.field.p))

    def frobenius(self) -> "LaurentSeries":
        """self**p, by `_raw_frobenius`."""
        return self._series(_raw_frobenius(self._value, self.field.p))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and other.field == self.field
            and other.valid_order == self.valid_order
            and np.array_equal(other.coeffs, self.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.valid_order, self.coeffs.tobytes()))

    def __str__(self) -> str:
        tail = f"O(t^{self.valid_order - 1})"
        return " + ".join(_render(self.coeffs, self.valid_order) + [tail])

    def __repr__(self) -> str:
        return f"LaurentSeries({self} mod {self.field.p})"


def series_from_rational(num: Poly, den: Poly, order: int) -> LaurentSeries:
    """The series of num/den, exact for every term of degree >= order: an
    exact divisor of degree d needs num only down to order + d."""
    d = max(den.coeffs.size - 1, 0)  # a zero den is refused by the division
    return LaurentSeries.from_poly(num, order + d) / den
