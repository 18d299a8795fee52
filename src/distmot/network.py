"""Sensor-network graph and Metropolis consensus weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphValidationError(ValueError):
    pass


class UndirectedRequiredError(GraphValidationError):
    pass


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Directed graph over node ids; in-neighbour sets implicitly include self."""

    nodes: tuple
    arcs: frozenset

    def __post_init__(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise GraphValidationError("duplicate node ids")
        for i, j in self.arcs:
            if i not in node_set or j not in node_set:
                raise GraphValidationError(f"edge ({i}, {j}) references an unknown node")
            if i == j:
                raise GraphValidationError(f"edge ({i}, {j}) is an explicit self-loop (self-loops are implicit)")

    @classmethod
    def from_undirected_edges(cls, nodes, edges) -> "NetworkGraph":
        arcs = set()
        node_set = set(nodes)
        for e in edges:
            i, j = e
            if i not in node_set or j not in node_set:
                raise GraphValidationError(f"edge ({i}, {j}) references an unknown node")
            arcs.add((i, j))
            arcs.add((j, i))
        return cls(tuple(nodes), frozenset(arcs))

    def in_neighbours(self, j) -> tuple:
        """Nodes that j receives from, including j itself."""
        out = {i for i, jj in self.arcs if jj == j}
        out.add(j)
        return tuple(sorted(out, key=self.nodes.index))

    def is_undirected(self) -> bool:
        return all((j, i) in self.arcs for i, j in self.arcs)

    def is_strongly_connected(self) -> bool:
        if not self.nodes:
            return False

        def reachable(start, forward):
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for a, b in self.arcs:
                    if forward and a == u and b not in seen:
                        seen.add(b)
                        stack.append(b)
                    elif not forward and b == u and a not in seen:
                        seen.add(a)
                        stack.append(a)
            return seen

        first = self.nodes[0]
        return len(reachable(first, True)) == len(self.nodes) and len(reachable(first, False)) == len(self.nodes)


@dataclass(frozen=True, eq=False)
class ConsensusMatrix:
    """Row-stochastic weight matrix aligned with a node ordering."""

    nodes: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        n = len(self.nodes)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} does not match {n} nodes")
        if (w < -1e-15).any():
            raise ValueError("consensus weights must be non-negative")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("consensus matrix rows must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def weight(self, i, j) -> float:
        return float(self.weights[self.nodes.index(i), self.nodes.index(j)])


def metropolis_weights(g: NetworkGraph) -> ConsensusMatrix:
    """Degree-based weights making the matrix doubly stochastic on undirected graphs.

    Off-diagonal entries are 1 / (1 + max(|N(i)|, |N(j)|)) with neighbour
    counts including self; the diagonal absorbs the remainder.
    """
    if not g.is_undirected():
        bad = next((i, j) for i, j in g.arcs if (j, i) not in g.arcs)
        raise UndirectedRequiredError(f"Metropolis weights need symmetric arcs; ({bad[0]}, {bad[1]}) has no reverse")
    if not g.is_strongly_connected():
        raise GraphValidationError("graph must be connected for consensus")
    n = len(g.nodes)
    idx = {node: i for i, node in enumerate(g.nodes)}
    deg = {node: len(g.in_neighbours(node)) for node in g.nodes}
    w = np.zeros((n, n))
    for node in g.nodes:
        i = idx[node]
        for other in g.in_neighbours(node):
            if other == node:
                continue
            w[i, idx[other]] = 1.0 / (1.0 + max(deg[node], deg[other]))
        w[i, i] = 1.0 - w[i].sum()
    return ConsensusMatrix(tuple(g.nodes), w)
