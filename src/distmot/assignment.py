"""K-best ranked assignment of tracks to measurements.

An association map is a tuple theta sending track i to measurement index
theta[i] in 0..|Z|, 0 meaning undetected; both searches produce distinct
positive entries by construction. Ranking maximizes the summed per-track
log score. Murty's partitioning over the optimal solutions of scipy's
linear_sum_assignment generates the maps best-first; misdetection is
modeled as one dummy column per track.
"""

from __future__ import annotations

import functools
import heapq
import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

BIG = 1e12


def _expand_cost(log_score: np.ndarray) -> np.ndarray:
    """(n, 1+m) log scores -> (n, m+n) cost matrix with per-track dummy columns."""
    n, m1 = log_score.shape
    m = m1 - 1
    cost = np.full((n, m + n), BIG)
    meas = -log_score[:, 1:]
    cost[:, :m] = np.where(np.isfinite(meas), np.minimum(meas, BIG), BIG)
    for i in range(n):
        c = -log_score[i, 0]
        cost[i, m + i] = c if np.isfinite(c) else BIG
    return cost


def _solve(cost: np.ndarray):
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    if (cost[rows, cols] >= BIG / 2).any():
        return None, None
    return cols, total


def _score_of(log_score: np.ndarray, theta: tuple[int, ...]) -> float:
    return float(sum(log_score[i, t] for i, t in enumerate(theta)))


@functools.cache
def _dense_table(n: int, m1: int) -> np.ndarray:
    """Read-only table of every valid theta vector for n tracks and m1 - 1 measurements."""
    theta = np.indices((m1,) * n).reshape(n, -1).T
    valid = np.ones(theta.shape[0], dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            valid &= ~((theta[:, i] == theta[:, j]) & (theta[:, i] > 0))
    theta = theta[valid]
    theta.setflags(write=False)
    return theta


def _ranked_dense(log_score: np.ndarray, k: int) -> list[tuple[tuple[int, ...], float]]:
    """Vectorized enumeration over all theta vectors; for small instances."""
    n, m1 = log_score.shape
    theta = _dense_table(n, m1)
    scores = log_score[np.arange(n)[None, :], theta].sum(axis=1)
    finite = np.isfinite(scores)
    theta, scores = theta[finite], scores[finite]
    order = np.lexsort(tuple(theta[:, i] for i in reversed(range(n))) + (-scores,))[:k]
    return [(tuple(int(t) for t in theta[i]), float(scores[i])) for i in order]


def _ranked_murty(log_score: np.ndarray, k: int) -> list[tuple[tuple[int, ...], float]]:
    """Murty's best-first partitioning; stops once k maps are held."""
    n, m = log_score.shape[0], log_score.shape[1] - 1
    cost0 = _expand_cost(log_score)
    first, total0 = _solve(cost0)
    if first is None:
        return []

    results: list[tuple[float, tuple[int, ...]]] = []
    counter = itertools.count()
    heap: list = [(total0, next(counter), cost0, first)]
    seen = set()
    while heap:
        total, _, cost, cols = heapq.heappop(heap)
        theta = tuple(int(c) + 1 if c < m else 0 for c in cols)
        if theta not in seen:
            seen.add(theta)
            score = _score_of(log_score, theta)
            if np.isfinite(score):
                results.append((score, theta))
                if len(results) == k:
                    break
        # partition: forbid each assigned pair in turn, force the earlier ones
        pinned = np.array(cost, copy=True)
        for i in range(n):
            sub = np.array(pinned, copy=True)
            sub[i, cols[i]] = BIG
            sol, sub_total = _solve(sub)
            if sol is not None:
                heapq.heappush(heap, (sub_total, next(counter), sub, sol))
            pinned[i, :] = BIG
            pinned[i, cols[i]] = cost[i, cols[i]]

    results.sort(key=lambda t: (-t[0], t[1]))
    return [(theta, score) for score, theta in results]


def ranked_assignments(log_score: np.ndarray, k: int) -> list[tuple[tuple[int, ...], float]]:
    """Top-k association maps theta with their total log scores, descending.

    log_score has shape (n_tracks, 1 + n_meas): column 0 is the misdetection
    score, column j >= 1 the score of measurement j. Maps whose total score
    is -inf (an impossible pairing) are not returned. Ties are ordered
    lexicographically on theta. Returns every valid map when k exceeds their
    number. Instances with at most 4096 candidate vectors are enumerated
    densely, larger ones searched with Murty's method.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    log_score = np.asarray(log_score, dtype=float)
    n = log_score.shape[0]
    if n == 0:
        return [((), 0.0)]
    if log_score.shape[1] ** n <= 4096:
        return _ranked_dense(log_score, k)
    return _ranked_murty(log_score, k)
