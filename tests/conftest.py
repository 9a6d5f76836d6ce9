from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from hypercf import PartialQuotients, Poly, PrimeField

sys.path.insert(0, str(Path(__file__).parent))

FIELDS = {p: PrimeField(p) for p in (3, 5, 7, 11, 13)}


@pytest.fixture(params=(3, 5, 7))
def field(request):
    return FIELDS[request.param]


def polys(p: int, min_degree: int = 0, max_degree: int = 8):
    """Strategy for nonzero polynomials over F_p within a degree window."""
    def build(degree, coeffs, lead):
        return Poly(FIELDS[p], coeffs[:degree] + [lead])

    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.builds(
            build,
            st.just(d),
            st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
            st.integers(1, p - 1),
        )
    )


def quotient_lists(p: int, max_len: int = 6, max_degree: int = 3):
    return st.lists(
        polys(p, min_degree=1, max_degree=max_degree), min_size=1, max_size=max_len
    ).map(PartialQuotients)


def transforms(run):
    """run()'s result and its transforms in order: ("f", length, bytes of
    the input) for a forward one and ("i", length, None) for an inverse."""
    rfft, irfft, log = np.fft.rfft, np.fft.irfft, []

    def forward(x, n):
        log.append(("f", n, x.tobytes()))
        return rfft(x, n)

    def inverse(x, n):
        log.append(("i", n, None))
        return irfft(x, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "rfft", forward)
        mp.setattr(np.fft, "irfft", inverse)
        return run(), log
