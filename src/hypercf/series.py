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
* div a/b:   V = max(V_a - top_b, V_b + top_a - 2*top_b)
             (the second term bounds the leakage of b's unknown tail
             through the quotient; for an exactly known divisor it is
             never the binding one)
* frobenius: V = p*(V - 1) + 1
* a // b:    the polynomial part of a/b, read from the top
             top_a - top_b + 1 terms of each window, so defined only
             while both windows hold that many

The window is stored in the Poly layout shifted to the floor, ascending
from V and trimmed at the top, so a series is T^V times a Poly-layout
array and its arithmetic runs on the polynomial kernels.  A series that
is zero everywhere above its floor is stored with an empty window; for
the precision rules its nominal top degree is taken to be V - 1.
"""
from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from .algebra import (
    _EMPTY, FieldElement, Poly, PrimeField, _add_arrays, _fit, _frozen, _mul_arrays,
    _render, _residue, _residues, _sub_arrays, _top_quotient, _trim,
)

__all__ = ["LaurentSeries", "series_from_rational", "InsufficientPrecisionError"]


class InsufficientPrecisionError(ValueError):
    """Raised when a requested order lies below what the data supports."""


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
        arr = poly.coeffs
        if valid_order < 0 and arr.size:
            arr = np.concatenate((np.zeros(-valid_order, dtype=np.int64), arr))
        return cls._raw(poly.field, valid_order, arr[max(valid_order, 0):])

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

    def polynomial_part(self) -> Poly:
        """The terms with exponent >= 0 (the "integer part")."""
        if self.valid_order > 0:
            raise ValueError("floor above 0: constant term unknown")
        return Poly._raw(self.field, self.coeffs[-self.valid_order :])

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LaurentSeries"):
        if other.field != self.field:
            raise ValueError("operands must be series over the same field")

    def _addsub(self, other, kernel) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            # an exact polynomial is known to every order, so at self's floor
            other = LaurentSeries.from_poly(Poly._coerce(self.field, other), self.valid_order)
        self._check(other)
        v = max(self.valid_order, other.valid_order)
        a = self.coeffs[v - self.valid_order :]
        b = other.coeffs[v - other.valid_order :]
        return LaurentSeries._raw(self.field, v, kernel(a, b, self.field.p))

    def __add__(self, other):
        return self._addsub(other, _add_arrays)

    def __sub__(self, other):
        return self._addsub(other, _sub_arrays)

    def __rsub__(self, other):
        return -self + other

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._raw(
            self.field, self.valid_order, (-self.coeffs) % self.field.p
        )

    def __mul__(self, other):
        top_a = self._nominal_top
        if isinstance(other, LaurentSeries):
            self._check(other)
            b, top_b = other.coeffs, other._nominal_top
            v = max(self.valid_order + top_b, other.valid_order + top_a)
        else:
            # the unknown terms below V reach up to V - 1 + deg c (a
            # constant, zero included, keeps V)
            b = Poly._coerce(self.field, other).coeffs
            top_b = b.size - 1
            v = self.valid_order + max(top_b, 0)
        if self.is_zero_to_floor or b.size == 0:
            return LaurentSeries.zero(self.field, v)
        # a term of exponent e reaches the floor v only if e >= v - (the
        # other factor's top), which leaves top - v + 1 terms of each factor
        keep = top_a + top_b - v + 1
        a, b = self.coeffs[-keep:], b[-keep:]
        low = top_a + top_b - a.size - b.size + 2  # the product's first exponent
        return LaurentSeries._raw(
            self.field, v, _mul_arrays(a, b, self.field.p)[v - low :]
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentSeries":
        top_a, v_a = self._nominal_top, self.valid_order
        if isinstance(other, LaurentSeries):
            self._check(other)
            b, top_b = other.coeffs, other._nominal_top
            v_q = max(v_a - top_b, other.valid_order + top_a - 2 * top_b)
        else:
            # an exact divisor has no unknown tail to leak into the quotient
            b = Poly._coerce(self.field, other).coeffs
            top_b = b.size - 1
            v_q = v_a - top_b
        if b.size == 0:
            raise ZeroDivisionError("divisor is zero to its validity floor")
        nq = top_a - top_b - v_q + 1
        if self.is_zero_to_floor or nq <= 0:
            return LaurentSeries.zero(self.field, v_q)
        return LaurentSeries._raw(
            self.field, v_q, _top_quotient(self.coeffs, b, nq, self.field.p)
        )

    def __floordiv__(self, other: "LaurentSeries") -> Poly:
        """The polynomial part of self/other, from the top (quotient length)
        terms of each window.  Raises InsufficientPrecisionError when a
        window holds fewer, or when the divisor is zero to its floor, of
        unknown degree."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        if other.is_zero_to_floor:
            raise InsufficientPrecisionError("the divisor's degree is below its floor")
        qlen = self._nominal_top - other._nominal_top + 1
        if qlen <= 0:
            return Poly(self.field)
        if min(self.coeffs.size, other.coeffs.size) < qlen:
            raise InsufficientPrecisionError(
                f"the polynomial part of a quotient needs the top {qlen} terms "
                "of each window"
            )
        return Poly._raw(
            self.field, _top_quotient(self.coeffs, other.coeffs, qlen, self.field.p)
        )

    def __rfloordiv__(self, other) -> Poly:
        # an exact dividend is known to every order, so at the divisor's floor
        return LaurentSeries.from_poly(Poly._coerce(self.field, other), self.valid_order) // self

    def frobenius(self) -> "LaurentSeries":
        """self**p: exponents map to p*k, coefficients are Frobenius-fixed."""
        p = self.field.p
        # exponent V + i goes to p*(V + i), entry p*i + p - 1 above the new floor
        out = np.zeros(p * self.coeffs.size, dtype=np.int64)
        out[p - 1 :: p] = self.coeffs
        return LaurentSeries._raw(self.field, p * (self.valid_order - 1) + 1, out)

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
