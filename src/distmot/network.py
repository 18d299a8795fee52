"""Sensor-network graph and Metropolis consensus weights.

The network of n sensors is undirected over the node ids 0..n-1. It is kept
as each node's in-neighbours: an ascending tuple of node ids that includes
the node itself, since a node fuses its own density too.
"""

from __future__ import annotations

import numpy as np


def neighbour_lists(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Each node's ascending in-neighbours, itself included, of the connected
    undirected graph on nodes 0..n-1 with the given edges.

    An edge is a pair of distinct integer node ids (not bools); a repeated
    edge counts once. Raises a ValueError naming the edge at fault, or one
    saying that the network is not connected.
    """
    neighbours = [{i} for i in range(n)]
    for k, e in enumerate(edges):
        ok = isinstance(e, (list, tuple)) and len(e) == 2 and all(type(v) is int and 0 <= v < n for v in e)
        if not ok or e[0] == e[1]:
            raise ValueError(f"edges[{k}]: {e!r} is not a pair of distinct node ids in 0..{n - 1}")
        i, j = e
        neighbours[i].add(j)
        neighbours[j].add(i)
    reached, stack = {0}, [0]
    while stack:
        for j in neighbours[stack.pop()] - reached:
            reached.add(j)
            stack.append(j)
    if len(reached) < n:
        raise ValueError("edges: sensor network must be connected")
    return tuple(tuple(sorted(s)) for s in neighbours)


def metropolis_weights(neighbours: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Read-only n x n consensus matrix, doubly stochastic on an undirected graph.

    Off-diagonal entries are 1 / (1 + max(|N(i)|, |N(j)|)) with neighbour
    counts including self; the diagonal absorbs the remainder. Row i is
    positive exactly at node i's in-neighbours.
    """
    n = len(neighbours)
    w = np.zeros((n, n))
    for i, row in enumerate(neighbours):
        for j in row:
            if j != i:
                w[i, j] = 1.0 / (1.0 + max(len(row), len(neighbours[j])))
        w[i, i] = 1.0 - w[i].sum()
    w.setflags(write=False)
    return w
