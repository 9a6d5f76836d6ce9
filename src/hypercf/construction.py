"""Builders for the hyperquadratic continued-fraction family and its checks.

The family is parametrized by an odd prime p and a unit triple
(u1, u2, u3).  With F = (T^2+4)^((p-1)/2) and R = T^p - T*F (the
remainder of T^p by F), the predicted expansion is the concatenation of
blocks C_0, C_1, C_2, ... where, writing e_n = (p^n - 1) / 2,

    C_{2n}   = u1*T, u2*P_{2n}, u3*T,
               then ((2*u3)^-1*T, 2*u3*T) repeated e_{2n} times
    C_{2n+1} = (4*u3)^-1*T, 4*u1*u2*u3*P_{2n+1}, (4*u1)^-1*T,
               then (2*u1*T, (2*u1)^-1*T) repeated e_{2n+1} times

with P_0 = T and P_{n+1} = F * P_n^p.  The expansion's tail from index 4
satisfies the Frobenius relation alpha^p = 4*u1*u3*F*alpha_4 + u1*R,
which eliminates to a single equation of degree p+1 in alpha; the same
elimination at depth 2 produces the all-linear Mills-Robbins equations.
The formal Fibonacci polynomials f_n = T*f_(n-1) + f_(n-2) that tie F
and R down are continuants: those of [T]*n are (f_n, f_(n-1), f_(n-1),
f_(n-2)).  Both families are built for p below 2^16 only, as building
and checking F and R costs O(p^2).  Everything here is checkable:
verify_pattern compares the predicted stream against the extraction
engine and measures both residuals.

The k-th high-degree entry sits at position n_k = `pattern_position(p, k)`
with degree d_k = `pattern_degree(p, k)`, and the degrees before it sum to

    s_k = 3*(p^k - 1)/(p - 1) + 1 = 3*(n_k - 2k - 2) + 1.

The irrationality measure nu = 2 + lim_k d_k/s_k = 2 + 2*(p - 1)/3 is kept
as an exact rational throughout.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .algebra import FieldElement, Poly, PrimeField
from .cf import (  # cf_to_series is read from here by bench/workloads.py
    PartialQuotients,
    cf_to_series,
    continuants,
    prefixed_continuants,
    rational_to_cf,
)
from .expansion import BiPoly, NoAdmissibleQuotientError, eval_at_series, expand
from .series import LaurentSeries, series_from_rational

__all__ = [
    "Triple",
    "PatternSpec",
    "build_spec",
    "build_Pn",
    "pattern",
    "pattern_position",
    "pattern_degree",
    "closed_forms",
    "nu",
    "DegreeProfile",
    "profile",
    "profile_from_degrees",
    "IrrationalityReport",
    "irrationality_report",
    "pattern_equation",
    "mills_robbins_u2",
    "mills_robbins_equation",
    "fibonacci_poly",
    "IdentityReport",
    "check_identities",
    "ResidualSummary",
    "PatternVerification",
    "verify_pattern",
]


@dataclass(frozen=True)
class Triple:
    """A triple of units (u1, u2, u3) in F_p*."""

    u1: FieldElement
    u2: FieldElement
    u3: FieldElement

    def __post_init__(self):
        field = self.u1.field
        if self.u2.field != field or self.u3.field != field:
            raise ValueError("triple components must share one field")
        if not (self.u1 and self.u2 and self.u3):
            raise ValueError("u components must be nonzero residues mod p")

    @classmethod
    def from_ints(cls, field: PrimeField, values: Sequence[int]) -> "Triple":
        if len(values) != 3:
            raise ValueError("a triple needs exactly three components")
        return cls(field(values[0]), field(values[1]), field(values[2]))

    def as_ints(self) -> Tuple[int, int, int]:
        return (self.u1.value, self.u2.value, self.u3.value)

    @property
    def field(self) -> PrimeField:
        return self.u1.field


@dataclass(frozen=True)
class PatternSpec:
    """Frozen parameters of one family member: the field, the unit triple,
    and the polynomials F = (T^2+4)^((p-1)/2), R = T^p - T*F."""

    field: PrimeField
    u: Triple
    F: Poly
    R: Poly


#: the families are built for p below this: F, R and their checks cost
#: O(p^2), about 40 s at p = 65521.
_FAMILY_P_BOUND = 1 << 16


def _F_and_R(field: PrimeField) -> Tuple[Poly, Poly]:
    """F = (T^2+4)^((p-1)/2) and R = T^p - T*F, for p below 2^16."""
    if field.p >= _FAMILY_P_BOUND:
        raise ValueError(f"p must be below 2^16 = {_FAMILY_P_BOUND} to build the family")
    T = field.T
    F = (T * T + 4) ** ((field.p - 1) // 2)
    return F, T ** field.p - T * F


def build_spec(field: PrimeField, u: Union[Triple, Sequence[int]]) -> PatternSpec:
    if not isinstance(u, Triple):
        u = Triple.from_ints(field, tuple(u))
    if u.field != field:
        raise ValueError("triple is over a different field")
    p = field.p
    F, R = _F_and_R(field)
    if F.degree != p - 1 or R != field.T ** p % F:
        raise RuntimeError("F must have degree p-1, R be the remainder of T^p by F")
    if R != fibonacci_poly(field, p - 2) * 2:
        raise RuntimeError("R must equal 2*f_(p-2)")
    return PatternSpec(field=field, u=u, F=F, R=R)


def pattern_position(p: int, k: int) -> int:
    """1-based stream index of the k-th high-degree entry (k >= 1)."""
    return (p ** k - 1) // (p - 1) + 2 * k + 2


def pattern_degree(p: int, k: int) -> int:
    """Degree of P_k, which is the degree of the k-th high-degree entry."""
    return 2 * p ** k - 1


def closed_forms(p: int, k: int) -> Tuple[int, int]:
    """(n_k, s_k) as exact integers, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_k = pattern_position(p, k)
    return n_k, 3 * (n_k - 2 * k - 2) + 1


def nu(p: int) -> Fraction:
    """The irrationality measure 2 + 2*(p-1)/3 as an exact rational."""
    value = Fraction(2) + Fraction(2 * (p - 1), 3)
    if not Fraction(2) < value <= Fraction(p + 1):
        raise RuntimeError(f"nu = {value} must lie in (2, p + 1]")
    return value


@dataclass
class DegreeProfile:
    """Empirical view of a degree sequence: where the non-linear entries
    sit, the degree sums in front of them, and how that squares with the
    closed forms."""

    p: int
    degrees: List[int]
    big_positions: List[Tuple[int, int, int]]  # (k, position, degree), 1-based
    partial_sums: List[Tuple[int, int]]        # (k, sum of degrees before position)
    mismatches: List[str] = dataclass_field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def profile_from_degrees(degrees: Sequence[int], p: int) -> DegreeProfile:
    degrees = [int(d) for d in degrees]
    big: List[Tuple[int, int, int]] = []
    sums: List[Tuple[int, int]] = []
    mismatches: List[str] = []
    running = 0
    k = 0
    for pos, d in enumerate(degrees, start=1):
        if d > 1:
            k += 1
            big.append((k, pos, d))
            sums.append((k, running))
            n_k, s_k = closed_forms(p, k)
            if pos != n_k:
                mismatches.append(f"entry {k}: position {pos}, closed form {n_k}")
            d_k = pattern_degree(p, k)
            if d != d_k:
                mismatches.append(f"entry {k}: degree {d}, closed form {d_k}")
            if running != s_k:
                mismatches.append(f"entry {k}: partial sum {running}, closed form {s_k}")
        running += d
    return DegreeProfile(p=p, degrees=degrees, big_positions=big,
                         partial_sums=sums, mismatches=mismatches)


def profile(pqs: PartialQuotients, p: int) -> DegreeProfile:
    return profile_from_degrees(pqs.degrees(), p)


@dataclass
class IrrationalityReport:
    """nu and its Liouville-Mahler frame 2 < nu <= d <= p+1, with the
    finite ratio samples (2*p^k - 1)/s_k that approach nu - 2 from below.
    The samples are finite evidence, not the limit itself."""

    p: int
    nu: Fraction
    liouville_upper: int
    ratio_samples: List[Tuple[int, Fraction]]


def irrationality_report(p: int, kmax: int = 6) -> IrrationalityReport:
    samples = [(k, Fraction(pattern_degree(p, k), closed_forms(p, k)[1]))
               for k in range(1, kmax + 1)]
    return IrrationalityReport(p=p, nu=nu(p), liouville_upper=p + 1, ratio_samples=samples)


def _tower(spec: PatternSpec) -> Iterator[Poly]:
    """P_0 = T, P_1, P_2, ..., each P_(n+1) = F * P_n^p, made on demand."""
    p = spec.field.p
    poly = spec.field.T
    for n in itertools.count():
        if poly.degree != pattern_degree(p, n):
            raise RuntimeError(f"P_{n} must have degree 2*p^{n} - 1")
        yield poly
        poly = spec.F * poly ** p


def build_Pn(spec: PatternSpec, n: int) -> Poly:
    """P_n of the tower P_0 = T, P_(k+1) = F * P_k^p."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(itertools.islice(_tower(spec), n, None))


def pattern(spec: PatternSpec, count: int) -> PartialQuotients:
    """The first `count` entries of the predicted expansion C_0 C_1 C_2..."""
    if count < 1:
        raise ValueError("count must be >= 1")
    field = spec.field
    p = field.p
    T = field.T
    u1, u2, u3 = spec.u.u1, spec.u.u2, spec.u.u3
    two, four = field(2), field(4)
    blocks = (  # by n mod 2: (first, scale of P_n, last, repeated pair) of C_n
        (u1 * T, u2, u3 * T, ((two * u3).inverse() * T, two * u3 * T)),
        ((four * u3).inverse() * T, four * u1 * u2 * u3, (four * u1).inverse() * T,
         (two * u1 * T, (two * u1).inverse() * T)),
    )
    out: List[Poly] = []
    for n, p_n in enumerate(_tower(spec)):
        first, scale, last, pair = blocks[n % 2]
        if n >= 1 and len(out) + 2 != pattern_position(p, n):
            raise RuntimeError("block bookkeeping drifted")
        out.extend((first, scale * p_n, last))
        out.extend(pair * min((p ** n - 1) // 2, count))
        if len(out) >= count:
            return PartialQuotients(out[:count])


def _eliminate_tail(
    field: PrimeField,
    G: Poly,
    H: Poly,
    x_n: Poly,
    y_n: Poly,
    x_prev: Poly,
    y_prev: Poly,
) -> BiPoly:
    """Equation for alpha from alpha^p = G*alpha_tail + H and the
    convergent relation alpha_tail = (x_prev - y_prev*alpha)/(y_n*alpha - x_n):

        y_n*a^{p+1} - x_n*a^p + (G*y_prev - H*y_n)*a + (H*x_n - G*x_prev) = 0
    """
    p = field.p
    return BiPoly(
        field,
        {p + 1: y_n, p: -x_n, 1: G * y_prev - H * y_n, 0: H * x_n - G * x_prev},
    )


def _tail_relation(spec: PatternSpec, R: Poly) -> Tuple[Poly, Poly]:
    """(G, H) of the tail relation alpha^p = G*alpha_4 + H, G = 4*u1*u3*F
    and H = u1*R."""
    u1 = spec.u.u1
    return spec.F * (spec.field(4) * u1 * spec.u.u3), R * u1


def pattern_equation(spec: PatternSpec, r_override: Optional[Poly] = None) -> BiPoly:
    """The degree-(p+1) equation satisfied by the pattern's expansion.

    r_override swaps in an alternate R (the `verify` command uses it to
    demonstrate that only the remainder convention R = T^p - T*F is
    consistent with the emitted stream).
    """
    T = spec.field.T
    pqs = PartialQuotients((spec.u.u1 * T, spec.u.u2 * T, spec.u.u3 * T))
    G, H = _tail_relation(spec, spec.R if r_override is None else r_override)
    return _eliminate_tail(spec.field, G, H, *continuants(pqs))


def mills_robbins_u2(field: PrimeField, u1: Union[int, FieldElement]) -> FieldElement:
    """u2 = -u1 * (1 + 2*u1)^-1; requires u1 not in {0, -1/2}."""
    u1 = field(u1)
    if not u1:
        raise ValueError("u1 must be nonzero")
    den = field(1) + field(2) * u1
    if not den:
        raise ValueError("u1 must differ from -1/2 mod p")
    return -u1 * den.inverse()


def mills_robbins_equation(field: PrimeField, u1: Union[int, FieldElement]) -> BiPoly:
    """Equation of the all-linear family: alpha = [u1*T, u2*T, tail] with
    alpha^p = F*tail - (1/2)*R, eliminated at depth 2.  Requires p >= 5."""
    if field.p < 5:
        raise ValueError("the all-linear family requires p >= 5")
    u1 = field(u1)
    u2 = mills_robbins_u2(field, u1)
    T = field.T
    pqs = PartialQuotients((u1 * T, u2 * T))
    F, R = _F_and_R(field)
    H = -(R * field(2).inverse())
    return _eliminate_tail(field, F, H, *continuants(pqs))


def fibonacci_poly(field: PrimeField, n: int) -> Poly:
    """f_n of f_0 = 1, f_1 = T, f_n = T*f_{n-1} + f_{n-2} over F_p, read
    from the continuants (f_(n+1), f_n, f_n, f_(n-1)) of [T]*(n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return continuants(PartialQuotients([field.T] * (n + 1)))[1]


@dataclass
class IdentityReport:
    p: int
    f_pm1_equals_F: bool
    f_p_plus_f_pm2_equals_Tp: bool
    R_equals_2_f_pm2: bool
    fibonacci_cf_all_T: bool
    fibonacci_cf_checked_through: int

    @property
    def all_ok(self) -> bool:
        return (
            self.f_pm1_equals_F
            and self.f_p_plus_f_pm2_equals_Tp
            and self.R_equals_2_f_pm2
            and self.fibonacci_cf_all_T
        )


def check_identities(field: PrimeField, fib_cf_limit: int = 12) -> IdentityReport:
    """The classical identities tying F and R to the formal Fibonacci
    polynomials, plus cf(f_n/f_(n-1)) = [T]*n for n <= L = fib_cf_limit:
    as f_n = T*f_(n-1) + f_(n-2), the one Euclid pass on (f_L, f_(L-1))
    that yields [T]*L divides f_n by f_(n-1) for every such n in turn."""
    if fib_cf_limit < 1:
        raise ValueError("fib_cf_limit must be >= 1")
    p = field.p
    T = field.T
    F, R = _F_and_R(field)
    f_p, f_pm1, _, f_pm2 = continuants(PartialQuotients([T] * p))
    all_T = PartialQuotients([T] * fib_cf_limit)
    f_L, f_Lm1, _, _ = continuants(all_T)
    return IdentityReport(
        p=p,
        f_pm1_equals_F=(f_pm1 == F),
        f_p_plus_f_pm2_equals_Tp=(f_p + f_pm2 == T ** p),
        R_equals_2_f_pm2=(R == f_pm2 * 2),
        fibonacci_cf_all_T=(rational_to_cf(f_L, f_Lm1) == all_T),
        fibonacci_cf_checked_through=fib_cf_limit,
    )


@dataclass
class ResidualSummary:
    """A residual series collapsed to what matters: its validity floor and
    whether anything nonzero survives above it."""

    floor: int
    zero_to_floor: bool

    @classmethod
    def of(cls, s: LaurentSeries) -> "ResidualSummary":
        return cls(floor=s.valid_order, zero_to_floor=s.is_zero_to_floor)


@dataclass
class PatternVerification:
    p: int
    u: Tuple[int, int, int]
    steps: int
    engine_aborted: bool
    match: bool
    first_mismatch: Optional[int]
    tail_relation_residual: Optional[ResidualSummary]
    equation_residual: Optional[ResidualSummary]

    @property
    def ok(self) -> bool:
        if not self.match:
            return False
        for res in (self.tail_relation_residual, self.equation_residual):
            if res is not None and not res.zero_to_floor:
                return False
        return True


def verify_pattern(
    spec: PatternSpec,
    steps: int,
    r_override: Optional[Poly] = None,
) -> PatternVerification:
    """Compare the predicted stream against the extraction engine and
    measure both residuals from truncated series.

    Any mismatch lands in the report (with the first differing index);
    nothing raises.  Each series is taken to its own convergent validity
    floor, the deepest order its quotients support.
    """
    predicted = pattern(spec, steps)

    equation = pattern_equation(spec, r_override=r_override)
    try:
        run = expand(equation, steps)
        engine_quotients = run.quotients
        aborted = False
    except NoAdmissibleQuotientError as err:
        engine_quotients = PartialQuotients(err.emitted)
        aborted = True

    emitted_count = len(engine_quotients)
    diff = predicted.first_difference(engine_quotients)
    match = diff is None and emitted_count == steps
    first_mismatch = diff if diff is not None else (
        None if match else emitted_count + 1
    )

    tail_res = eq_res = None
    if steps >= 5:
        tail = predicted.tail(4)
        (x, y, _, _), (x4, y4, _, _) = prefixed_continuants(predicted.items[:3], tail)
        # each convergent validity floor, -2 * deg y, read off its continuant
        alpha = series_from_rational(x, y, -2 * y.degree)
        alpha4 = series_from_rational(x4, y4, -2 * y4.degree)
        G, H = _tail_relation(spec, spec.R)
        tail_res = ResidualSummary.of(alpha.frobenius() - alpha4 * G - H)
        if r_override is not None:
            equation = pattern_equation(spec)
        eq_res = ResidualSummary.of(eval_at_series(equation, alpha))

    return PatternVerification(
        p=spec.field.p,
        u=spec.u.as_ints(),
        steps=steps,
        engine_aborted=aborted,
        match=match,
        first_mismatch=first_mismatch,
        tail_relation_residual=tail_res,
        equation_residual=eq_res,
    )
