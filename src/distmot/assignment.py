"""K-best ranked assignment of tracks to measurements.

An association map is a tuple theta sending track i to measurement index
theta[i] in 0..|Z|, 0 meaning undetected; no two tracks share a positive
index. Its score is the sum of its per-track log scores, added in row order
from 0.0: ((0.0 + s[0, theta[0]]) + s[1, theta[1]]) + ...

One exact depth-first branch-and-bound finds the k best maps. It extends
theta one track at a time, tries each track's columns best first, and cuts a
branch once no completion can displace the k-th map it holds. The bound on
every completion of a prefix is the prefix score plus each remaining track's
best score, added in the same row order. Floating-point addition is
monotone, so that bound is never below a completion's score and rounding
drops no map. Maps are ranked by (-score, theta), theta lexicographic: a
branch whose bound equals the k-th held score is cut once its prefix sorts
after the k-th held theta, so ties cost O(k n m) steps, not the whole grid.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.optimize import linear_sum_assignment  # noqa: F401  kept bound: perfbench/tracing.py patches this name


def ranked_assignments(log_score: np.ndarray, k: int) -> list[tuple[tuple[int, ...], float]]:
    """Top-k association maps theta with their total log scores, descending.

    log_score has shape (n_tracks, 1 + n_meas): column 0 is the misdetection
    score, column j >= 1 the score of measurement j; entries are finite or
    -inf. Maps whose total score is -inf (an impossible pairing) are not
    returned. Ties are ordered lexicographically on theta. Returns every
    valid map when k exceeds their number.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    log_score = np.asarray(log_score, dtype=float)
    n = log_score.shape[0]
    rows = log_score.tolist()
    order = np.argsort(-log_score, axis=1, kind="stable").tolist()
    best = [row[cols[0]] for row, cols in zip(rows, order)]
    held: list[tuple[float, tuple[int, ...]]] = []  # min-heap of (score, -theta): worst held on top
    theta = [0] * n
    taken = [False] * log_score.shape[1]
    thr = -math.inf  # k-th held score; -inf until k maps are held
    last = None  # k-th held theta

    def extend(i: int, prefix: float) -> None:
        nonlocal thr, last
        if i == n:
            key = (prefix, tuple(-t for t in theta))
            if len(held) < k:
                heapq.heappush(held, key)
            else:
                heapq.heapreplace(held, key)
            if len(held) == k:
                thr, last = held[0][0], [-t for t in held[0][1]]
            return
        row, later = rows[i], best[i + 1 :]
        for c in order[i]:
            if c and taken[c]:
                continue
            score = prefix + row[c]
            bound = score
            for b in later:
                bound += b
            if bound < thr:
                break  # the later columns score no higher
            theta[i] = c
            # a tie goes on only while theta can still sort before the k-th held map;
            # with fewer than k held, thr is -inf and no completion is possible
            if bound == thr and (last is None or theta[: i + 1] > last[: i + 1]):
                continue
            taken[c] = True
            extend(i + 1, score)
            taken[c] = False

    extend(0, 0.0)
    del extend  # the closure refers to itself: free the cycle now, not at the next garbage collection
    return [(tuple(-t for t in neg), score) for score, neg in sorted(held, reverse=True)]
