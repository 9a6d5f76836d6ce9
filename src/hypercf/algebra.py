"""Exact arithmetic over F_p and dense univariate polynomials in F_p[T].

Residues are machine integers in [0, p), p < 2^31.  Polynomial coefficients
live in numpy int64 arrays (ascending powers, no trailing zeros; Laurent
series windows share this layout) so the kernels run at C speed while
every result stays exact: long products go through a float64 FFT whose
rounding is checked, with exact convolution as the fallback.  Every
division, of polynomials and of Laurent series alike, takes the top
coefficients of one truncated power-series quotient by Newton inversion
over that product, seeded by the schoolbook recurrence; only divmod and %
go on to form a remainder.

One rule, `_residue`, turns a value into a residue of F_p; every
constructor and operator here and in `series` and `expansion` lifts
scalars through it.
"""
from __future__ import annotations

import operator
from typing import Iterable, Optional, Union

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
#: FFT products are taken only while (p-1)^2 * min(len) stays within this
#: bound.  It keeps every balanced product coefficient below 2^34, far
#: under 2^53, where floats stop resolving the fractions the residual
#: check reads.  At 0.998 of it (p=4093, length 4096) the residual
#: measured 5e-6 with every operand (p-1)/2, the worst balanced case.
_FFT_EXACT_BOUND = 1 << 36
#: an FFT coefficient further than this from an integer voids the product,
#: which is then recomputed by the exact convolution.
_FFT_TRIPWIRE = 2.0 ** -8

#: terms of an inverse series taken by the schoolbook recurrence before
#: Newton doubling starts, so the engine's usual 2-term quotient runs no
#: Newton step: at p=7 over a 186-term divisor (2-vCPU host) a 2-term
#: quotient took 10-17 us against 38 us from one term, and 16 beat 8 at
#: 9 terms (24-31 against 41-48 us) and 32 at 40 terms (66-104 against
#: 119-150 us).
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
    nz = np.nonzero(arr)[0]
    if nz.size == 0:
        return _EMPTY
    return arr[: nz[-1] + 1]


def _add_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    low = out[: b.size]  # in place: no temporaries
    low += b
    low %= p
    return _trim(out)


def _sub_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = max(a.size, b.size)
    out = np.zeros(n, dtype=np.int64)
    out[: a.size] = a
    low = out[: b.size]
    low -= b
    low %= p
    return _trim(out)


def _convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # int64 accumulation is exact while (p-1)^2 * min(len) stays below 2^62
    if (p - 1) * (p - 1) * min(a.size, b.size) < (1 << 62):
        out = np.convolve(a, b)
        out %= p
        return out
    full = np.convolve(a.astype(object), b.astype(object)) % p
    return full.astype(np.int64)


def _fft_length(n: int) -> int:
    """The least c * 2^k >= n with c in (1, 3, 5, 9, 15): pocketfft is fast
    on these 2*3*5-smooth lengths, which overshoot n by at most 25%."""
    return min(c << ((n - 1) // c).bit_length() for c in (1, 3, 5, 9, 15))


def _balanced(x: np.ndarray, p: int) -> np.ndarray:
    """Residues as floats in (-p/2, p/2), which keeps FFT rounding small."""
    out = x.astype(np.float64)
    out -= p * (out > p // 2)  # no masked assignment: about 4x faster
    return out


def _fft_product(a: np.ndarray, b: np.ndarray, p: int, spectra: Optional[dict] = None):
    """a*b mod p from a float64 FFT, or None when some coefficient lies
    further than _FFT_TRIPWIRE from an integer, i.e. when rounding may
    have corrupted the product.  The check is sound only for coefficients
    well below 2^53, which _FFT_EXACT_BOUND ensures.  `spectra` keeps the
    transforms, by operand and length, for the other products of a batch;
    without it the transforms are this product's own, so a's takes the
    product spectrum in place and b's goes before the inverse transform."""
    n = a.size + b.size - 1
    size = _fft_length(n)
    lone = spectra is None
    spectra = {} if lone else spectra
    for x in (a, b):
        if (id(x), size) not in spectra:  # x is kept, so its id stays its own
            spectra[id(x), size] = (x, np.fft.rfft(_balanced(x, p), size))
    fa, fb = spectra[id(a), size][1], spectra[id(b), size][1]
    spectrum = np.multiply(fa, fb, out=fa if lone else None)
    del fa, fb, spectra
    c = np.fft.irfft(spectrum, size)[:n]
    del spectrum
    exact = np.rint(c)
    c -= exact
    np.abs(c, out=c)
    if c.max() > _FFT_TRIPWIRE:
        return None
    del c
    out = exact.astype(np.int64)
    out %= p
    return out


def _mul_arrays(a: np.ndarray, b: np.ndarray, p: int, spectra=None) -> np.ndarray:
    """The product a*b in F_p[T], trimmed.  Long operands go through a
    checked float FFT while (p-1)^2 * min(len) <= _FFT_EXACT_BOUND; short
    ones, large moduli and any FFT product that fails its rounding check
    are convolved exactly."""
    if a.size == 0 or b.size == 0:
        return _EMPTY
    if b.size == 1:
        a, b = b, a
    if a.size == 1:
        # a unit factor leaves a trimmed b as is
        return b if a[0] == 1 and b[-1] else _trim(b * int(a[0]) % p)
    shorter = min(a.size, b.size)
    if shorter >= _FFT_MIN_LEN and (p - 1) * (p - 1) * shorter <= _FFT_EXACT_BOUND:
        out = _fft_product(a, b, p, spectra)
        if out is not None:
            return _trim(out)
    return _trim(_convolve(a, b, p))


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
    out = np.zeros(n, dtype=np.int64)
    out[: arr.size] = arr
    return out


def _inverse_series(f: np.ndarray, n: int, p: int) -> np.ndarray:
    """g with f*g = 1 mod T^n, for f[0] a unit.  The first _NEWTON_SEED
    terms come from the schoolbook recurrence g_i = -g_0 * sum_(j=1..i)
    f_j*g_(i-j); then Newton iteration: if f*g = 1 + T^k*e mod T^2k then
    g - T^k*(g*e) is correct to T^2k."""
    k = min(n, _NEWTON_SEED)
    head = f[:k].tolist()
    unit = pow(head[0], p - 2, p)
    seed = [unit]
    for i in range(1, k):
        s = sum(map(operator.mul, head[1 : i + 1], reversed(seed)))
        seed.append(-s * unit % p)
    g = np.array(seed, dtype=np.int64)
    while k < n:
        k2 = min(2 * k, n)
        e = _fit(_mul_arrays(f[:k2], g, p), k2)[k:]
        step = _fit(_mul_arrays(g[: k2 - k], e, p), k2 - k)
        g = np.concatenate([g, (-step) % p])
        k = k2
    return g


def _top_quotient(a: np.ndarray, b: np.ndarray, n: int, p: int) -> np.ndarray:
    """The top n coefficients of a/b, ascending, for b's last entry a unit:
    the one division kernel.  Reversed, a = q*b + r reads rev(a) =
    rev(q)*rev(b) mod T^n, a power-series quotient taken by Newton
    inversion; only the top n terms of a and of b are read."""
    a, b = a[::-1][:n], b[::-1][:n]
    return _fit(_mul_arrays(a, _inverse_series(b, n, p), p), n)[::-1]


def _floordiv_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    qlen = a.size - b.size + 1
    return _top_quotient(a, b, qlen, p) if qlen > 0 else _EMPTY


def _divmod_arrays(a: np.ndarray, b: np.ndarray, p: int):
    q = _floordiv_arrays(a, b, p)
    # r has degree < m - 1, so only the low m - 1 terms of q*b matter
    m = b.size
    low = _fit(_mul_arrays(q[: m - 1], b[: m - 1], p), m - 1)
    return q, _sub_arrays(a[: m - 1], low, p)


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

    def _op(self, other, kernel, reflected: bool = False):
        """kernel(self, other) on coefficient arrays, kernel(other, self)
        when reflected, as Polys; NotImplemented for an operand that
        _coerce does not take, so that its own type can answer."""
        try:
            o = Poly._coerce(self.field, other).coeffs
        except TypeError:
            return NotImplemented
        p = self.field.p
        out = kernel(o, self.coeffs, p) if reflected else kernel(self.coeffs, o, p)
        if isinstance(out, tuple):  # divmod's (q, r)
            return tuple(Poly._raw(self.field, arr) for arr in out)
        return Poly._raw(self.field, out)

    def __add__(self, other):
        return self._op(other, _add_arrays)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, _sub_arrays)

    def __rsub__(self, other):
        return self._op(other, _sub_arrays, reflected=True)

    def __neg__(self):
        return Poly._raw(self.field, _trim((-self.coeffs) % self.field.p))

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
