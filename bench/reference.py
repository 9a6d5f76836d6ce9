"""A fixed reference computation that measures how fast the host runs now.

The host this benchmark runs on is shared: its speed for the same code
drifts by a third or more over tens of seconds, the same for wall and
CPU time, so a body's wall time alone varies more from run to run than
any bound a regression check could use.  Each repetition therefore also
times this computation just before and just after its body, in the same
process, and reports the body's time in units of it (`wall_rel`).  Host
speed cancels in that ratio; a change to hypercf does not, because
nothing here calls hypercf.

The work mirrors the kind of work hypercf's hot paths do, so that both
slow down alike: interpreted integer arithmetic, and many small numpy
calls in a Karatsuba product of dense F_7 coefficient arrays.  It is
deterministic and allocates little; one pass takes about 0.1 s.
"""
from __future__ import annotations

import time

import numpy as np

_P = 7
_N = 1500
_A = np.arange(_N, dtype=np.int64) * 5 % _P
_B = np.arange(_N, dtype=np.int64) * 3 % _P


def _karatsuba(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if min(a.size, b.size) <= 32:
        return np.convolve(a, b) % _P
    m = (max(a.size, b.size) + 1) >> 1
    z0 = _karatsuba(a[:m], b[:m])
    z2 = _karatsuba(a[m:], b[m:])
    z1 = _karatsuba((a[:m] + np.pad(a[m:], (0, m - a[m:].size))) % _P,
                    (b[:m] + np.pad(b[m:], (0, m - b[m:].size))) % _P)
    out = np.zeros(a.size + b.size - 1 + m, dtype=np.int64)
    out[: z0.size] += z0
    out[m : m + z1.size] += z1
    out[m : m + z0.size] -= z0
    out[m : m + z2.size] -= z2
    out[2 * m : 2 * m + z2.size] += z2
    return out[: a.size + b.size - 1] % _P


def _interpreted(n: int) -> int:
    s = 0
    for i in range(n):
        s = (s + i * i) % 1_000_003
    return s


def reference_s() -> float:
    """Wall seconds of one pass of the reference computation."""
    start = time.perf_counter()
    _interpreted(300_000)
    for _ in range(2):
        _karatsuba(_A, _B)
    return time.perf_counter() - start

