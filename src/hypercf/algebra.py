"""Exact arithmetic over F_p and dense univariate polynomials in F_p[T].

Residues are machine integers in [0, p), p < 2^31.  Polynomial coefficients
live in numpy int64 arrays (ascending powers, no trailing zeros; Laurent
series windows share this layout), and three kernels on them do all the
arithmetic at C speed, exactly.  `_add_arrays` sums: a difference is the
sum with the negation.  `_mul_arrays` forms a product with its addend, a
long one by a float64 FFT whose rounding is checked, exact convolution the
fallback.  `_top_quotient` divides: every division, of polynomials and of
Laurent series alike, takes the top coefficients of one truncated
power-series quotient, from the schoolbook recurrence up to 16 terms and
beyond by Newton inversion to half its length and one Karp-Markstein
step, each long step in one transform domain no longer than its target
(the inverse transformed once, the residual a wrap-around cyclic
product); only divmod and % go on to form a remainder.

One rule, `_residue`, turns a value into a residue of F_p; every
constructor and operator here and in `series` and `expansion` lifts
scalars through it.
"""
from __future__ import annotations

import operator
from typing import Iterable, Union

import numpy as np

__all__ = [
    "NEG_INFINITY",
    "is_prime",
    "PrimeField",
    "FieldElement",
    "Poly",
]

#: degree sentinel for the zero polynomial; compares below every integer.
NEG_INFINITY = float("-inf")

#: shorter-operand length from which a product goes through the FFT: about
#: where it starts to beat np.convolve (its fixed cost is ~45 us at p=7).
_FFT_MIN_LEN = 128
#: bound on the balanced coefficients of a value taken by the FFT: a
#: product's are at most ((p-1)/2)^2 * min(len), and 2^34 is far under
#: 2^53, where floats stop resolving the fractions the residual check
#: reads.  At 0.998 of it (p=4093, length 4096) the residual measured
#: 5e-6 with every operand (p-1)/2, the worst balanced case.
_FFT_EXACT_BOUND = 1 << 34
#: an FFT coefficient further than this from an integer voids the product,
#: which is then recomputed by the exact convolution.
_FFT_TRIPWIRE = 2.0 ** -8

#: terms of a quotient taken by the schoolbook recurrence, and the most
#: an inverse is seeded with (9 to 16): at p=7 over a 186-term divisor
#: (2-vCPU host) a 2-term inverse took 10-17 us against 38 us from one
#: term, and 16 beat 8 at 9 terms (24-31 against 41-48 us) and 32 at 40
#: terms (66-104 against 119-150 us).
_NEWTON_SEED = 16

# witnesses making Miller-Rabin deterministic for n < 3.3 * 10**24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p for an odd prime modulus p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if isinstance(p, int) and p >= 1 << 31:  # keeps residue products below 2^62
            raise ValueError("p must be below 2^31 = 2147483648")
        if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        self.p = p

    def __call__(self, value: Union[int, "FieldElement"]) -> "FieldElement":
        return FieldElement(self, value)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def T(self) -> "Poly":
        return Poly(self, (0, 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class FieldElement:
    """A residue in F_p; arithmetic is closed and exact."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: Union[int, "FieldElement"]):
        self.field = field
        self.value = _residue(field, value)

    def _op(self, other, f):
        """f(self's value, other's residue) as an element; NotImplemented
        for an operand that _residue does not take."""
        try:
            v = _residue(self.field, other)
        except TypeError:
            return NotImplemented
        return FieldElement(self.field, f(self.value, v))

    def __add__(self, other):
        return self._op(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, operator.sub)

    def __rsub__(self, other):
        return self._op(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._op(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return FieldElement(self.field, pow(self.value, k, self.field.p))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via Fermat: a**(p-2) mod p."""
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return FieldElement(self.field, pow(self.value, self.field.p - 2, self.field.p))

    def __truediv__(self, other):
        return self._op(other, lambda a, b: a * FieldElement(self.field, b).inverse().value)

    def __rtruediv__(self, other):
        return self._op(other, lambda a, b: b * self.inverse().value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __repr__(self) -> str:
        return f"F{self.field.p}({self.value})"


# ---------------------------------------------------------------------------
# coefficient-array kernels
# ---------------------------------------------------------------------------

def _residue(field: PrimeField, x) -> int:
    """x as a residue of `field`, the one rule for what enters F_p: an int
    or numpy integer mod p, or an element of the field; an element of
    another field raises ValueError and any other value TypeError."""
    if isinstance(x, (int, np.integer)):
        return int(x) % field.p
    if isinstance(x, FieldElement):
        if x.field != field:
            raise ValueError("field mismatch")
        return x.value
    raise TypeError(f"a {type(x).__name__} is not an element of F_{field.p}")


def _residues(coeffs: Iterable, field: PrimeField) -> np.ndarray:
    """An array of integer dtype, or a sequence of values each taken by
    _residue, as an int64 array of residues.  An array is widened to 64
    bits of its own signedness before `%`, which is exact there for every
    integer dtype (a uint64 entry cast to int64 would wrap first)."""
    if isinstance(coeffs, np.ndarray):
        if not np.issubdtype(coeffs.dtype, np.integer):
            raise TypeError(f"a {coeffs.dtype} array is not a sequence of residues")
        wide = np.uint64 if coeffs.dtype.kind == "u" else np.int64
        return (coeffs.astype(wide) % wide(field.p)).astype(np.int64, copy=False)
    return np.array([_residue(field, c) for c in coeffs], dtype=np.int64)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, copied first if it is a view of another array."""
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _trim(arr: np.ndarray) -> np.ndarray:
    if arr.size and arr[-1]:
        return arr
    nz = arr.nonzero()[0]
    return arr[: nz[-1] + 1] if nz.size else _EMPTY


def _add_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    low = out[: b.size]  # in place: no temporaries
    low += b
    low %= p
    return _trim(out)


def _plus(out: np.ndarray, c: np.ndarray) -> np.ndarray:
    """out + c, unreduced: in place where out is as long."""
    if c.size:
        if out.size < c.size:
            out = _fit(out, c.size)
        out[: c.size] += c
    return out


def _convolve(a: np.ndarray, b: np.ndarray, p: int, c=_EMPTY, at: int = 0) -> np.ndarray:
    """The terms of a*b + T^at * c from exponent `at` up, mod p, c
    reduced: only those are reduced.  int64 accumulation is exact while
    (p-1)^2 * min(len) + (p-1) stays below 2^62."""
    if (p - 1) * ((p - 1) * min(a.size, b.size) + 1) < (1 << 62):
        # np.convolve(a, b) is this correlation behind checks of its
        # arguments that cost a short product about half a microsecond
        out = np.correlate(a, b[::-1], "full")[at:]
        if c.size:  # not even a call for the many products with no addend
            out = _plus(out, c)
        out %= p
        return out
    full = _plus(np.convolve(a.astype(object), b.astype(object))[at:], c) % p
    return full.astype(np.int64)


def _fft_length(n: int, bound: int) -> int:
    """The least c * 2^k >= n with c in (1, 3, 5, 9, 15): pocketfft is fast
    on these 2*3*5-smooth lengths, which overshoot n by at most 25%; 0,
    the one exactness test, where `bound`, on the balanced coefficients
    of the values to transform, passes _FFT_EXACT_BOUND."""
    if bound > _FFT_EXACT_BOUND:
        return 0
    return min(c << ((n - 1) // c).bit_length() for c in (1, 3, 5, 9, 15))


def _balanced(x: np.ndarray, p: int) -> np.ndarray:
    """Residues as floats in (-p/2, p/2), which keeps FFT rounding small."""
    out = x.astype(np.float64)
    out -= p * (out > p // 2)  # no masked assignment: about 4x faster
    return out


def _spectrum(x: np.ndarray, p: int, size: int) -> np.ndarray:
    """The real transform of x's balanced residues at length `size`."""
    return np.fft.rfft(_balanced(x, p), size)


def _from_spectrum(spectrum: np.ndarray, size: int, n: int, p: int):
    """The first n coefficients of the inverse transform, rounded and
    reduced mod p (`x - p*(x//p)` halves the cost of `%` on long arrays),
    or None when one lies further than _FFT_TRIPWIRE from an integer: a
    check sound for coefficients well below 2^53, as _FFT_EXACT_BOUND keeps."""
    c = np.fft.irfft(spectrum, size)[:n]
    del spectrum  # the last reference when the caller passed a temporary
    exact = np.rint(c)
    c -= exact
    np.abs(c, out=c)
    if c.max() > _FFT_TRIPWIRE:
        return None
    del c
    out = exact.astype(np.int64)
    del exact
    out -= p * (out // p)
    return out


def _fft_product(a: np.ndarray, b: np.ndarray, p: int):
    """a*b mod p from a float64 FFT, or None where its bound or rounding
    check fails.  No name holds a transform, so each goes once read."""
    n = a.size + b.size - 1
    size = _fft_length(n, ((p - 1) // 2) ** 2 * min(a.size, b.size))
    if not size:
        return None
    return _from_spectrum(_spectrum(a, p, size) * _spectrum(b, p, size), size, n, p)


def _mul_arrays(a: np.ndarray, b: np.ndarray, p: int, c=_EMPTY, at: int = 0) -> np.ndarray:
    """The terms of a*b + T^at * c in F_p[T] from exponent `at` up, for c
    reduced and trimmed, trimmed: the one product kernel.  Long operands
    go through `_fft_product`'s checked float FFT, c added to the product;
    short ones and those it refuses, at large moduli or on a failed
    rounding check, are convolved exactly, c added before the one reduction."""
    shorter = min(a.size, b.size)
    if shorter > 1:
        if shorter >= _FFT_MIN_LEN:
            out = _fft_product(a, b, p)
            if out is not None:
                return _trim(_plus(out[at:], c) % p if c.size else out[at:])
        return _trim(_convolve(a, b, p, c, at))
    if shorter == 0:
        return c
    if b.size == 1:
        a, b = b, a
    # a unit factor leaves a trimmed b as is
    if a[0] == 1 and b[-1] and not c.size:
        return b[at:] if at else b
    return _trim(_plus(b[at:] * int(a[0]), c) % p)


def _frobenius_array(x: np.ndarray, p: int, lead: int = 0) -> np.ndarray:
    """x's entries at every p-th place from `lead` on, zeros between: the
    Frobenius image's array, exponent k going to p*k."""
    out = np.zeros(lead + p * (x.size - 1) + 1 if x.size else 0, dtype=np.int64)
    out[lead::p] = x
    return out


def _fit(arr: np.ndarray, n: int) -> np.ndarray:
    """arr truncated or zero-padded to exactly n entries."""
    if arr.size >= n:
        return arr[:n]
    out = np.zeros(n, dtype=arr.dtype)
    out[: arr.size] = arr
    return out


def _series_quotient(a: list, b: list, k: int, p: int) -> list:
    """The first k terms of the power series a/b, for b[0] a unit, from
    lists of a's and b's first terms, by the schoolbook recurrence
    q_i = (a_i - sum_(j=1..i) b_j*q_(i-j)) / b_0."""
    top, unit = a + [0] * k, pow(b[0], p - 2, p)
    q: list = []
    for i in range(k):
        q.append((top[i] - sum(map(operator.mul, b[1 : i + 1], reversed(q)))) * unit % p)
    return q


def _newton_step(f: np.ndarray, g: np.ndarray, a, n: int, p: int) -> np.ndarray:
    """a/f mod T^n for power series, from g = 1/f mod T^k, k = g.size >=
    n/2, and a's first n terms, trimmed; a = None stands for 1, so that
    the step doubles the inverse (Newton), where a dividend ends a
    division (Karp and Markstein): q0 = a*g mod T^k, the residual r =
    (a - f*q0)[k:n], and a/f = q0 + T^k*(g*r) mod T^n.  From where g
    reaches the FFT threshold the products take one length L >= n, g
    transformed once, f*q0 cyclically: its terms past L wrap onto
    exponents below k, where a - f*q0 vanishes and nothing is read.  A
    product whose length is refused or whose rounding check fails is
    formed alone by _mul_arrays."""
    k = g.size
    size = _fft_length(n, ((p - 1) // 2) ** 2 * k) if k >= _FFT_MIN_LEN else 0
    spectrum = _spectrum(g, p, size) if size else None

    def product(x, y, m, y_spectrum=None):
        """x*y mod T^m, y's transform passed where it is at hand."""
        if size:
            y_spectrum = _spectrum(y, p, size) if y_spectrum is None else y_spectrum
            out = _from_spectrum(_spectrum(x, p, size) * y_spectrum, size, m, p)
            if out is not None:
                return out
        return _fit(_mul_arrays(x, y, p), m)

    q0, high = (g, _EMPTY) if a is None else (product(a[:k], g, k, spectrum), a[k:])
    # q0 is g in a doubling, whose transform is then at hand
    r = _plus(p - product(f[:n], q0, n, spectrum if q0 is g else None)[k:], high) % p
    return np.concatenate([q0, product(r, g[: n - k], n - k, spectrum)])


def _top_quotient(a: np.ndarray, b: np.ndarray, n: int, p: int) -> np.ndarray:
    """The top n coefficients of a/b, ascending, for b's last entry a unit:
    the one division kernel.  Reversed, a = q*b + r reads rev(a) =
    rev(q)*rev(b) mod T^n, a power-series quotient, straight from the
    recurrence up to _NEWTON_SEED terms.  Beyond, the recurrence seeds g =
    1/f, f = rev(b), at the foot of the ladder ceil(n/2^j), ..., ceil(n/2)
    within the seed length, Newton steps climb it and a last step divides
    rev(a) (see _newton_step), no transform longer than the quotient.
    Only the top n terms of b, and the nonzero ones among the top n of a,
    are read."""
    if n <= _NEWTON_SEED:
        q = _series_quotient(a[-n:].tolist()[::-1], b[-n:].tolist()[::-1], n, p)
        return np.array(q[::-1], dtype=np.int64)
    a, f = _trim(a[::-1][:n]), b[::-1][:n]
    rungs = [-(-n >> j) for j in range(((n - 1) // _NEWTON_SEED).bit_length(), 0, -1)]
    g = np.array(_series_quotient([1], f[: rungs[0]].tolist(), rungs[0], p), dtype=np.int64)
    for k2 in rungs[1:]:
        g = _newton_step(f, g, None, k2, p)
    return _newton_step(f, g, a, n, p)[::-1]


def _floordiv_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    qlen = a.size - b.size + 1
    return _top_quotient(a, b, qlen, p) if qlen > 0 else _EMPTY


def _divmod_arrays(a: np.ndarray, b: np.ndarray, p: int):
    q = _floordiv_arrays(a, b, p)
    # r = a - q*b has degree < m - 1, so only the low m - 1 terms matter
    m = b.size
    r = _mul_arrays(q[: m - 1], -b[: m - 1] % p, p, _trim(a[: m - 1]))
    return q, _trim(r[: m - 1])


def _render(arr: np.ndarray, low: int) -> list:
    """The nonzero entries of an ascending array, entry i the coefficient
    of t^(low + i), as `c*t^k` terms in descending powers; a unit
    coefficient is elided on monomials but printed for the constant."""
    parts = []
    for i in range(arr.size - 1, -1, -1):
        c, e = int(arr[i]), low + i
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            mono = "t" if e == 1 else f"t^{e}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return parts


class Poly:
    """Dense polynomial in F_p[T], coefficients stored in ascending order.

    Canonical form: no trailing zero coefficient; the zero polynomial is
    the empty array and has degree NEG_INFINITY.  Instances are immutable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable = ()):
        self.field = field
        self.coeffs = _frozen(_trim(_residues(coeffs, field)))

    @classmethod
    def _raw(cls, field: PrimeField, arr: np.ndarray) -> "Poly":
        # arr must already be trimmed and reduced mod p
        self = object.__new__(cls)
        self.field = field
        self.coeffs = _frozen(arr)
        return self

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        return self.coeffs.size - 1 if self.coeffs.size else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def leading_coefficient(self) -> FieldElement:
        if self.is_zero:
            return self.field.zero
        return FieldElement(self.field, int(self.coeffs[-1]))

    def coefficient(self, i: int) -> FieldElement:
        if 0 <= i < self.coeffs.size:
            return FieldElement(self.field, int(self.coeffs[i]))
        return self.field.zero

    def __bool__(self) -> bool:
        return self.coeffs.size != 0

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(field: PrimeField, x) -> "Poly":
        """x as a Poly over `field`: a Poly of that field as it is, a scalar
        as a constant by _residue; a Poly of another field raises ValueError."""
        if isinstance(x, Poly):
            if x.field is not field and x.field != field:  # `is` spares an __eq__ call
                raise ValueError("field mismatch")
            return x
        return Poly(field, (x,))

    def _op(self, other, kernel):
        """kernel(self, other, p) on coefficient arrays, as Polys;
        NotImplemented for an operand that _coerce does not take, so that
        its own type can answer."""
        try:
            o = Poly._coerce(self.field, other).coeffs
        except TypeError:
            return NotImplemented
        out = kernel(self.coeffs, o, self.field.p)
        if isinstance(out, tuple):  # divmod's (q, r)
            return tuple(Poly._raw(self.field, arr) for arr in out)
        return Poly._raw(self.field, out)

    def __add__(self, other):
        return self._op(other, _add_arrays)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, lambda a, b, p: _add_arrays(a, -b % p, p))

    def __rsub__(self, other):
        return self._op(other, lambda a, b, p: _add_arrays(-a % p, b, p))

    def __neg__(self):
        return Poly._raw(self.field, -self.coeffs % self.field.p)

    def __mul__(self, other):
        return self._op(other, _mul_arrays)

    __rmul__ = __mul__

    def __divmod__(self, other):
        return self._op(other, _divmod_arrays)

    def __floordiv__(self, other):
        return self._op(other, _floordiv_arrays)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        k = int(k)
        if k == 0:
            return Poly(self.field, (1,))
        if self.is_zero:
            return self
        if k == self.field.p:
            return self.frobenius()
        p = self.field.p
        result = None
        base = self.coeffs
        while k:
            if k & 1:
                result = base if result is None else _mul_arrays(result, base, p)
            k >>= 1
            if k:
                base = _mul_arrays(base, base, p)
        return Poly._raw(self.field, result)

    def frobenius(self) -> "Poly":
        """self**p via the exponent map i -> p*i (coefficients are fixed)."""
        return Poly._raw(self.field, _frobenius_array(self.coeffs, self.field.p))

    def __call__(self, value: Union[int, FieldElement]) -> FieldElement:
        v = _residue(self.field, value)
        acc = 0
        p = self.field.p
        for c in self.coeffs[::-1]:
            acc = (acc * v + int(c)) % p
        return FieldElement(self.field, acc)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and np.array_equal(other.coeffs, self.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs.tobytes()))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """Descending powers, `c*t^k` terms joined by ` + `."""
        return " + ".join(_render(self.coeffs, 0)) or "0"

    def __repr__(self) -> str:
        return f"Poly({self} mod {self.field.p})"
