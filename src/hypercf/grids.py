"""Frozen parameter grids for verification sweeps.

The triples were drawn once (seeded sample over (F_p*)^3) and are kept
literal so every run and every machine exercises the same grid.  For
p = 7 the grid includes (2, 4, 5), the reference parameter set whose
expansion the golden tests pin down.

MILLS_ROBBINS_U1 lists, per prime, the admissible u1 values other than
-1 that the sweep exercises; for p = 5 only two such values exist
(F_5* minus {0, -1/2 = 2, -1 = 4} leaves {1, 3}).
"""
from __future__ import annotations

from typing import Dict, Tuple

from .construction import pattern_position

__all__ = ["VERIFICATION_TRIPLES", "MILLS_ROBBINS_U1", "verification_steps"]

VERIFICATION_TRIPLES: Dict[int, Tuple[Tuple[int, int, int], ...]] = {
    3: ((1, 2, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (1, 1, 1)),
    5: ((2, 3, 3), (1, 1, 1), (1, 3, 2), (2, 2, 1), (4, 3, 4)),
    7: ((2, 1, 1), (5, 2, 2), (2, 4, 5), (3, 3, 2), (5, 3, 4)),
    11: ((3, 10, 5), (8, 1, 6), (6, 4, 7), (10, 10, 4), (1, 6, 2)),
}

MILLS_ROBBINS_U1: Dict[int, Tuple[int, ...]] = {
    5: (1, 3),
    7: (1, 2, 4),
    11: (1, 2, 3),
}


def verification_steps(p: int) -> int:
    """Sweep depth n_3, reaching the third high-degree entry of the stream."""
    return pattern_position(p, 3)
