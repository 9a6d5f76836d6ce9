"""Degree-sequence analytics and the irrationality measure.

Closed forms for the high-degree quotients: the k-th sits at position
n_k = `pattern_position(p, k)` with degree d_k = `pattern_degree(p, k)`,
and the degrees before it sum to

    s_k = 3*(p^k - 1)/(p - 1) + 1 = 3*(n_k - 2k - 2) + 1.

The measure nu = 2 + lim_k d_k/s_k = 2 + 2*(p - 1)/3 is kept as an exact
rational throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .algebra import PrimeField
from .cf import PartialQuotients
from .construction import pattern_degree, pattern_position

__all__ = [
    "closed_forms",
    "nu",
    "DegreeProfile",
    "profile",
    "profile_from_degrees",
    "IrrationalityReport",
    "irrationality_report",
]


def _p_of(field_or_p: Union[PrimeField, int]) -> int:
    return field_or_p.p if isinstance(field_or_p, PrimeField) else int(field_or_p)


def closed_forms(field_or_p: Union[PrimeField, int], k: int) -> Tuple[int, int]:
    """(n_k, s_k) as exact integers, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_k = pattern_position(_p_of(field_or_p), k)
    return n_k, 3 * (n_k - 2 * k - 2) + 1


def nu(field_or_p: Union[PrimeField, int]) -> Fraction:
    """The irrationality measure 2 + 2*(p-1)/3 as an exact rational."""
    p = _p_of(field_or_p)
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


def profile_from_degrees(degrees: Sequence[int], field_or_p: Union[PrimeField, int]) -> DegreeProfile:
    p = _p_of(field_or_p)
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


def profile(pqs: PartialQuotients, field_or_p: Union[PrimeField, int]) -> DegreeProfile:
    return profile_from_degrees(pqs.degrees(), field_or_p)


@dataclass
class IrrationalityReport:
    """nu and its Liouville-Mahler frame 2 < nu <= d <= p+1, with the
    finite ratio samples (2*p^k - 1)/s_k that approach nu - 2 from below.
    The samples are finite evidence, not the limit itself."""

    p: int
    nu: Fraction
    liouville_upper: int
    ratio_samples: List[Tuple[int, Fraction]]
    empirical_max_ratio: Optional[Fraction]


def irrationality_report(
    field_or_p: Union[PrimeField, int],
    kmax: int = 6,
    degree_profile: Optional[DegreeProfile] = None,
) -> IrrationalityReport:
    p = _p_of(field_or_p)
    samples = []
    for k in range(1, kmax + 1):
        _, s_k = closed_forms(p, k)
        samples.append((k, Fraction(pattern_degree(p, k), s_k)))
    empirical = None
    if degree_profile is not None and degree_profile.big_positions:
        ratios = []
        for (k, pos, d), (_, s_obs) in zip(
            degree_profile.big_positions, degree_profile.partial_sums
        ):
            if s_obs > 0:
                ratios.append(Fraction(d, s_obs))
        empirical = max(ratios) if ratios else None
    return IrrationalityReport(
        p=p,
        nu=nu(p),
        liouville_upper=p + 1,
        ratio_samples=samples,
        empirical_max_ratio=empirical,
    )
