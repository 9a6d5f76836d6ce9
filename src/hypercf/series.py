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
             nonzero, has V = V_a - deg c
* div a/b:   V = max(V_a - top_b, V_b + top_a - 2*top_b)
             (the second term bounds the leakage of b's unknown tail
             through the quotient; for an exactly known divisor it is
             never the binding one)
* frobenius: V = p*(V - 1) + 1

A series that is zero everywhere above its floor is stored with an empty
coefficient window; for the precision rules its nominal top degree is
taken to be V - 1.
"""
from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from .algebra import FieldElement, Poly, PrimeField, _mul_arrays, _quotient

__all__ = ["LaurentSeries", "series_from_rational", "InsufficientPrecisionError"]


class InsufficientPrecisionError(ValueError):
    """Raised when a requested order lies below what the data supports."""


class LaurentSeries:
    """A Laurent series in 1/T known exactly down to `valid_order`.

    `coeffs` is dense and descending: coeffs[0] is the coefficient of
    T**top_degree and coeffs[-1] the coefficient of T**valid_order.
    The leading stored coefficient is nonzero unless the series is
    (known-)zero to its floor, in which case the window is empty.
    """

    __slots__ = ("field", "valid_order", "coeffs")

    def __init__(
        self,
        field: PrimeField,
        top_degree: int,
        coeffs: Iterable,
        valid_order: int,
    ):
        if isinstance(coeffs, np.ndarray):
            arr = coeffs.astype(np.int64) % field.p
        else:
            arr = np.array(
                [c.value if isinstance(c, FieldElement) else int(c) for c in coeffs],
                dtype=np.int64,
            )
            arr %= field.p
        window = top_degree - valid_order + 1
        if window <= 0:
            arr = arr[:0]
        elif arr.size > window:
            arr = arr[:window]
        elif arr.size < window:
            # entries not covered by `coeffs` are asserted zero
            arr = np.concatenate([arr, np.zeros(window - arr.size, dtype=np.int64)])
        nz = np.nonzero(arr)[0]
        arr = arr[nz[0] :] if nz.size else arr[:0]
        if arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
        self.field = field
        self.valid_order = valid_order
        self.coeffs = arr

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, valid_order: int) -> "LaurentSeries":
        return cls(field, valid_order - 1, (), valid_order)

    @classmethod
    def from_poly(cls, poly: Poly, valid_order: int) -> "LaurentSeries":
        return cls(poly.field, int(poly.degree) if not poly.is_zero else valid_order - 1,
                   poly.coeffs[::-1], valid_order)

    @classmethod
    def from_terms(
        cls, field: PrimeField, terms: Dict[int, int], valid_order: int
    ) -> "LaurentSeries":
        if not terms:
            return cls.zero(field, valid_order)
        top = max(terms)
        arr = np.zeros(top - valid_order + 1, dtype=np.int64)
        for e, c in terms.items():
            if e >= valid_order:
                arr[top - e] = c % field.p
        return cls(field, top, arr, valid_order)

    # -- structure -----------------------------------------------------------

    @property
    def top_degree(self):
        """Degree of the leading stored term, or None if zero to the floor."""
        if self.coeffs.size == 0:
            return None
        return self.valid_order + self.coeffs.size - 1

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
        top = self._nominal_top
        if k > top:
            return self.field.zero
        return FieldElement(self.field, int(self.coeffs[top - k]))

    def terms(self) -> Dict[int, int]:
        top = self._nominal_top
        return {
            top - i: int(c) for i, c in enumerate(self.coeffs) if c
        }

    def truncated(self, valid_order: int) -> "LaurentSeries":
        """Weaken the floor (valid_order may only move up)."""
        if valid_order < self.valid_order:
            raise ValueError("cannot deepen a validity floor by truncation")
        return LaurentSeries(self.field, self._nominal_top, self.coeffs, valid_order)

    def polynomial_part(self) -> Poly:
        """The terms with exponent >= 0 (the "integer part")."""
        if self.valid_order > 0:
            raise ValueError("floor above 0: constant term unknown")
        top = self._nominal_top
        if top < 0:
            return Poly(self.field, ())
        window = self.coeffs[: top + 1]
        return Poly(self.field, window[::-1])

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LaurentSeries"):
        if not isinstance(other, LaurentSeries) or other.field != self.field:
            raise ValueError("operands must be series over the same field")

    def _exact(self, other) -> Poly:
        """An int, FieldElement or Poly operand as an exact polynomial."""
        c = Poly(self.field)._coerce(other)  # raises on a field mismatch
        if c is NotImplemented:
            raise ValueError("operands must be series or polynomials over one field")
        return c

    def _addsub(self, other, sign: int) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            # an exact polynomial is known to every order, so at self's floor
            other = LaurentSeries.from_poly(self._exact(other), self.valid_order)
        self._check(other)
        v = max(self.valid_order, other.valid_order)
        top = max(self._nominal_top, other._nominal_top, v - 1)
        n = top - v + 1
        out = np.zeros(n, dtype=np.int64)
        for s, sgn in ((self, 1), (other, sign)):
            stop = s._nominal_top
            lo = max(s.valid_order, v)
            if stop >= lo:
                out[top - stop : top - lo + 1] += sgn * s.coeffs[: stop - lo + 1]
        out %= self.field.p
        return LaurentSeries(self.field, top, out, v)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(
            self.field, self._nominal_top, (-self.coeffs) % self.field.p, self.valid_order
        )

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            # the unknown terms below V reach up to V - 1 + deg c (a constant,
            # zero included, keeps V); entry i of the ascending product is V + i
            c = self._exact(other)
            d, v = max(c.coeffs.size - 1, 0), self.valid_order
            full = _mul_arrays(self.coeffs[::-1], c.coeffs, self.field.p)[d:]
            return LaurentSeries(self.field, self._nominal_top + d, full[::-1], v + d)
        self._check(other)
        top = self._nominal_top + other._nominal_top
        v = max(
            self.valid_order + other._nominal_top,
            other.valid_order + self._nominal_top,
        )
        # a term of exponent e reaches the floor v only if e >= v - (the
        # other factor's top), which leaves top - v + 1 terms of each factor
        keep = top - v + 1
        full = _mul_arrays(
            self.coeffs[:keep][::-1], other.coeffs[:keep][::-1], self.field.p
        )[::-1]
        return LaurentSeries(self.field, top, full, v)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentSeries":
        top_a, v_a = self._nominal_top, self.valid_order
        if not isinstance(other, LaurentSeries):
            # an exact divisor c puts the floor at V_a - deg c; the quotient
            # window, as long as self's, reads only that many top terms of c
            c = self._exact(other)
            if c.is_zero:
                raise ZeroDivisionError("division by zero")
            d = int(c.degree)
            other = LaurentSeries.from_poly(c, d + min(0, v_a - top_a))
        self._check(other)
        if other.is_zero_to_floor:
            raise ZeroDivisionError(
                "division by a series that is zero to its validity floor"
            )
        top_b, v_b = other._nominal_top, other.valid_order
        v_q = max(v_a - top_b, v_b + top_a - 2 * top_b)
        nq = top_a - top_b - v_q + 1
        if self.is_zero_to_floor or nq <= 0:
            return LaurentSeries.zero(self.field, v_q)
        # descending windows are power series in 1/T: entry i of the
        # quotient is the exponent top_a - top_b - i
        q = _quotient(self.coeffs, other.coeffs, nq, self.field.p)
        return LaurentSeries(self.field, top_a - top_b, q, v_q)

    def frobenius(self) -> "LaurentSeries":
        """self**p: exponents map to p*k, coefficients are Frobenius-fixed."""
        p = self.field.p
        v = p * (self.valid_order - 1) + 1
        if self.coeffs.size == 0:
            return LaurentSeries.zero(self.field, v)
        top = p * self._nominal_top
        out = np.zeros(top - v + 1, dtype=np.int64)
        out[:: p][: self.coeffs.size] = self.coeffs
        return LaurentSeries(self.field, top, out, v)

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
        parts = []
        top = self._nominal_top
        for i, c in enumerate(self.coeffs):
            c = int(c)
            if c == 0:
                continue
            e = top - i
            if e == 0:
                parts.append(str(c))
            else:
                mono = "t" if e == 1 else f"t^{e}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        parts.append(f"O(t^{self.valid_order - 1})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentSeries({self} mod {self.field.p})"


def series_from_rational(num: Poly, den: Poly, order: int) -> LaurentSeries:
    """The series of num/den, exact for every term of degree >= order: an
    exact divisor of degree d needs num only down to order + d."""
    d = max(den.coeffs.size - 1, 0)  # a zero den is refused by the division
    return LaurentSeries.from_poly(num, order + d) / den
