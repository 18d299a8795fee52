"""Optimal subpattern assignment metric with cutoff c and order p.

For point sets X (n points) and Y (m points), n <= m:
    d(X, Y)^p = (1/m) [ min-cost matching of min(c, dist)^p + c^p (m - n) ]
decomposed into a localization term (matched pairs) and a cardinality term
(the unmatched count). States of dimension 4 are treated as [px, vx, py, vy]
and reduced to planar positions first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

POSITION_IDX = (0, 2)


@dataclass(frozen=True)
class OspaResult:
    total: float
    localization: float
    cardinality: float
    cutoff: float
    order: float


def _positions(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.shape[1] == 4:
        return arr[:, POSITION_IDX]
    return arr


def ospa(x, y, cutoff: float, order: float) -> OspaResult:
    """OSPA distance between two finite point sets; symmetric in x and y."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if order < 1:
        raise ValueError("order must be >= 1")
    px, py = _positions(x), _positions(y)
    n, m = px.shape[0], py.shape[0]
    if n == 0 and m == 0:
        return OspaResult(0.0, 0.0, 0.0, cutoff, order)
    if n > m:
        px, py = py, px
        n, m = m, n
    if n == 0:
        return OspaResult(cutoff, 0.0, cutoff, cutoff, order)

    diff = px[:, None, :] - py[None, :, :]
    dist = np.minimum(np.sqrt((diff**2).sum(axis=2)), cutoff) ** order
    rows, cols = linear_sum_assignment(dist)
    # an exactly rounded sum, so ospa(x, y) == ospa(y, x) to the last bit
    matched = math.fsum(dist[rows, cols].tolist())
    loc = (matched / m) ** (1.0 / order)
    card = (cutoff**order * (m - n) / m) ** (1.0 / order)
    total = ((matched + cutoff**order * (m - n)) / m) ** (1.0 / order)
    return OspaResult(float(total), float(loc), float(card), cutoff, order)
