"""Independent reference arithmetic used as a test oracle.

Polynomials are sparse {exponent: coefficient} dicts over plain Python
ints and every operation is schoolbook.  Nothing here touches the
package under test; agreement between the two implementations is the
point.  The exceptions are `dense_expand`, the extraction engine in
its original dense form, which runs on the package's Poly (checked
against the dict arithmetic above) but shares no code with the engine,
`schoolbook_divmod`, the package's former coefficient-by-coefficient
division loop on numpy arrays, kept as the oracle for the one quotient
kernel (Newton inversion) behind `//`, `divmod` and series division,
and `untrimmed_series_mul`, the package's former series product, which
multiplies whole windows on the package's kernel and is the oracle for
the product that trims its factors first, and `horner_eval_at_series`,
the package's former evaluation of an equation at a series, one Horner
product per x-degree with every coefficient padded to a deep floor, the
oracle for the Frobenius-split Horner of `expansion._value`, and
`next_step`, one step of the package's engine on a BiPoly, its tail the
Taylor shift that `rhomogeneous` checks, and `stepwise_expand`, the
package's former extraction loop, one `next_step` on the full equation
per quotient, the oracle for the homographic machine and for the run
that takes its last quotient without a tail, and `fold_continuants`, the
package's former continuant loop, one left fold over the quotients on
Poly, the oracle for the product tree.
"""
from __future__ import annotations

import numpy as np


def rnorm(d: dict, p: int) -> dict:
    return {e: c % p for e, c in d.items() if c % p}


def radd(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return rnorm(out, p)


def rsub(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return rnorm(out, p)


def rmul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return rnorm(out, p)


def rdeg(d: dict):
    return max(d) if d else None


def rdivmod(a: dict, b: dict, p: int):
    if not b:
        raise ZeroDivisionError
    q: dict = {}
    r = rnorm(dict(a), p)
    db = rdeg(b)
    inv = pow(b[db], p - 2, p)
    while r and rdeg(r) >= db:
        dr = rdeg(r)
        c = r[dr] * inv % p
        q[dr - db] = c
        r = rsub(r, rmul({dr - db: c}, b, p), p)
    return rnorm(q, p), r


def schoolbook_divmod(a: np.ndarray, b: np.ndarray, p: int):
    """Long division of ascending int64 coefficient arrays, one quotient
    coefficient per pass; b's last entry must be nonzero.  Returns (q, r)
    without trailing zeros."""
    def trim(arr):
        nz = np.nonzero(arr)[0]
        return arr[: nz[-1] + 1] if nz.size else arr[:0]

    if a.size < b.size:
        return a[:0], trim(a)
    inv = pow(int(b[-1]), p - 2, p)
    r = a.astype(np.int64) % p
    qlen = a.size - b.size + 1
    q = np.zeros(qlen, dtype=np.int64)
    for i in range(qlen - 1, -1, -1):
        c = int(r[i + b.size - 1]) * inv % p
        if c:
            q[i] = c
            r[i : i + b.size] = (r[i : i + b.size] - c * b) % p
    return trim(q), trim(r[: b.size - 1])


def untrimmed_series_mul(a, b):
    """a*b for two package LaurentSeries: both whole ascending windows
    multiplied, then cut at the floor max(V_a + top_b, V_b + top_a) by the
    public constructor, which takes the product top-down."""
    from hypercf.algebra import _mul_arrays

    top_a = a.valid_order + a.coeffs.size - 1
    top_b = b.valid_order + b.coeffs.size - 1
    v = max(a.valid_order + top_b, b.valid_order + top_a)
    if a.coeffs.size == 0 or b.coeffs.size == 0:
        return type(a).zero(a.field, v)
    full = _mul_arrays(a.coeffs, b.coeffs, a.field.p)[::-1]
    return type(a)(a.field, top_a + top_b, full, v)


def horner_eval_at_series(P, s):
    """P(s) for a package BiPoly P and LaurentSeries s by plain Horner in
    s, each coefficient a series at a floor far below anything the
    products can reach, so that the precision of s is the only binding
    constraint."""
    n = P.degree_x
    coeff_floor = (min(s.valid_order, -1) - 1) * (n + 1) - P.max_coeff_degree()
    acc = type(s).from_poly(P.coefficient(n), coeff_floor)
    for e in range(n - 1, -1, -1):
        acc = acc * s + type(s).from_poly(P.coefficient(e), coeff_floor)
    return acc


def reval(terms: dict, v: dict, p: int) -> dict:
    """sum of terms[e] * v^e for dict polynomials, e the x-exponent."""
    out: dict = {}
    for e, c in terms.items():
        out = radd(out, rmul(c, rpow(v, e, p), p), p)
    return out


def rhomogeneous(terms: dict, n: int, num: dict, den: dict, p: int) -> dict:
    """sum of terms[e] * num^e * den^(n - e) for dict polynomials."""
    out: dict = {}
    for e, c in terms.items():
        out = radd(out, rmul(c, rmul(rpow(num, e, p), rpow(den, n - e, p), p), p), p)
    return out


def rpow(a: dict, k: int, p: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = rmul(out, a, p)
    return out


def rseries(num: dict, den: dict, p: int, order: int) -> dict:
    """Terms of num/den with exponent >= order, by descending long division."""
    out: dict = {}
    r = rnorm(dict(num), p)
    dd = rdeg(den)
    inv = pow(den[dd], p - 2, p)
    while r and rdeg(r) - dd >= order:
        e = rdeg(r) - dd
        c = r[rdeg(r)] * inv % p
        out[e] = c
        r = rsub(r, rmul({e: c}, den, p), p)
    return rnorm(out, p)


def rcf(num: dict, den: dict, p: int) -> list:
    """Euclidean quotient list of num/den."""
    quotients = []
    a, b = rnorm(dict(num), p), rnorm(dict(den), p)
    while b:
        q, r = rdivmod(a, b, p)
        quotients.append(q)
        a, b = b, r
    return quotients


def rcontinuants(quotients: list, p: int) -> list:
    """(x_n, y_n) pairs from K_n = a_n*K_{n-1} + K_{n-2}."""
    x_prev, y_prev = {0: 1}, {}
    x, y = rnorm(dict(quotients[0]), p), {0: 1}
    out = [(x, y)]
    for a in quotients[1:]:
        x, x_prev = radd(rmul(a, x, p), x_prev, p), x
        y, y_prev = radd(rmul(a, y, p), y_prev, p), y
        out.append((x, y))
    return out


def fold_continuants(pqs) -> tuple:
    """(x_N, y_N, x_(N-1), y_(N-1)) of package quotients by one left fold
    of K_n = a_n*K_(n-1) + K_(n-2) on the package's Poly."""
    from hypercf import Poly

    field = pqs.items[0].field
    x_prev, y_prev = Poly(field, (1,)), Poly(field, ())
    x, y = pqs.items[0], Poly(field, (1,))
    for a in pqs.items[1:]:
        x, x_prev = a * x + x_prev, x
        y, y_prev = a * y + y_prev, y
    return x, y, x_prev, y_prev


def rvalidity_floor(quotients: list) -> int:
    """The convergent validity floor of quotient dicts a_1, ..., a_N:
    -2 * deg y_N, deg y_N being the degree sum of a_2, ..., a_N."""
    return -2 * sum(rdeg(a) for a in quotients[1:])


def rfibonacci(n: int, p: int) -> list:
    """[f_0, ..., f_n] from f_0 = 1, f_1 = T, f_k = T*f_(k-1) + f_(k-2)."""
    out, prev = [{0: 1}], {}
    for _ in range(n):
        out.append(radd(rmul({1: 1}, out[-1], p), prev, p))
        prev = out[-2]
    return out


def poly_dict(poly) -> dict:
    """Sparse view of a package Poly, for comparisons."""
    return {e: int(c) for e, c in enumerate(poly.coeffs) if c}


def dict_coeffs(d: dict, p: int) -> list:
    """Ascending dense list for feeding dicts back into the package."""
    if not d:
        return []
    out = [0] * (max(d) + 1)
    for e, c in d.items():
        out[e] = c % p
    return out


def _shift_pass(work: list, bar, start: int) -> None:
    # one synthetic-division pass: work[start] becomes the next shifted
    # coefficient, work[start+1:] the running quotient
    for j in range(len(work) - 2, start - 1, -1):
        work[j] = work[j] + bar * work[j + 1]


def _height(coeffs: list) -> int:
    return max(int(c.degree) for c in coeffs if not c.is_zero)


def dense_expand(coeffs: list, m: int) -> tuple:
    """First m partial quotients of the root of sum(coeffs[i] * x^i), by a
    dense Taylor shift of p+1 Horner passes per step.  coeffs is a dense
    ascending list of Poly with a nonzero last entry and at least two
    entries.

    Returns ("done", quotients, rational_value, max_coeff_degree,
    coeff_degree_bound), ("abort", step, emitted, bar) when a quotient of
    degree < 1 comes up, or ("guard", message) when the working equation
    outgrows its degree bound.
    """
    base_height = _height(coeffs)
    emitted: list = []
    degree_sum = 0
    max_seen = base_height
    rational_value = None
    current = list(coeffs)
    for step in range(1, m + 1):
        bar = -(current[-2] // current[-1])
        work = list(current)
        _shift_pass(work, bar, 0)
        if work[0].is_zero:
            rational_value = bar
            if bar.degree >= 1:
                emitted.append(bar)
                degree_sum += int(bar.degree)
            break
        if bar.degree < 1:
            return ("abort", step, emitted, bar)
        emitted.append(bar)
        degree_sum += int(bar.degree)
        if step == m:
            break
        for i in range(1, len(work) - 1):
            _shift_pass(work, bar, i)
        current = work[::-1]
        height = _height(current)
        max_seen = max(max_seen, height)
        bound = base_height + (len(current) - 1) * degree_sum
        if height > bound:
            return (
                "guard",
                f"coefficient degree {height} exceeded the bound {bound} "
                f"after step {step}",
            )
    bound = base_height + (len(coeffs) - 1) * degree_sum
    return ("done", emitted, rational_value, max_seen, bound)


def next_step(P):
    """One extraction step on a package BiPoly P: (bar, next equation), the
    equation None when P(bar) = 0, i.e. the root is rational and bar is its
    final quotient.  Raises NoAdmissibleQuotientError when bar has degree
    < 1.  It is the engine's `_step` on P's exact term map."""
    from hypercf import BiPoly, Poly
    from hypercf.expansion import _step

    bar, tail = _step(P.field, P._raw_terms())
    if tail is None:
        return bar, None
    return bar, BiPoly(P.field, {e: Poly._raw(P.field, c) for e, c in tail.items()})


def stepwise_expand(P, m: int):
    """The package's expand as it was before jumps: one `next_step` on the
    full equation per quotient, the height guard after every step.
    Returns the package's ExpansionResult or raises as expand does."""
    from hypercf import ExpansionResult, NoAdmissibleQuotientError, PartialQuotients

    if m < 1:
        raise ValueError("m must be >= 1")
    base_height = P.max_coeff_degree()
    emitted: list = []
    degree_sum = 0
    max_seen = base_height
    rational_value = None
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
