import numpy as np
import pytest

from distmot.network import (
    ConsensusMatrix,
    GraphValidationError,
    NetworkGraph,
    UndirectedRequiredError,
    metropolis_weights,
)
from reference import consensus_matrix_power_check, is_doubly_stochastic, is_primitive


def seven_node_diameter_three():
    # 7-ring with two chords; longest shortest path is 3 hops
    return NetworkGraph.from_undirected_edges(
        (0, 1, 2, 3, 4, 5, 6),
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (1, 5)],
    )


class TestGraph:
    def test_unknown_node_named_in_error(self):
        with pytest.raises(GraphValidationError, match=r"\(0, 9\)"):
            NetworkGraph.from_undirected_edges((0, 1), [(0, 9)])

    def test_in_neighbours_include_self(self):
        g = NetworkGraph.from_undirected_edges((0, 1, 2), [(0, 1)])
        assert g.in_neighbours(0) == (0, 1)
        assert g.in_neighbours(2) == (2,)

    def test_strong_connectivity(self):
        g = NetworkGraph.from_undirected_edges((0, 1, 2), [(0, 1), (1, 2)])
        assert g.is_strongly_connected()
        h = NetworkGraph.from_undirected_edges((0, 1, 2), [(0, 1)])
        assert not h.is_strongly_connected()

    def test_directed_one_way(self):
        g = NetworkGraph((0, 1), frozenset({(0, 1)}))
        assert not g.is_undirected()
        assert not g.is_strongly_connected()


class TestMetropolis:
    def test_two_node_graph(self):
        g = NetworkGraph.from_undirected_edges((0, 1), [(0, 1)])
        omega = metropolis_weights(g)
        assert np.allclose(omega.weights, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert is_doubly_stochastic(omega)

    def test_complete_three(self):
        g = NetworkGraph.from_undirected_edges((0, 1, 2), [(0, 1), (1, 2), (0, 2)])
        omega = metropolis_weights(g)
        expect = np.full((3, 3), 0.25)
        np.fill_diagonal(expect, 0.5)
        assert np.allclose(omega.weights, expect)
        assert is_doubly_stochastic(omega)

    def test_single_node(self):
        g = NetworkGraph((0,), frozenset())
        omega = metropolis_weights(g)
        assert omega.weights.tolist() == [[1.0]]

    def test_asymmetric_rejected(self):
        g = NetworkGraph((0, 1), frozenset({(0, 1)}))
        with pytest.raises(UndirectedRequiredError):
            metropolis_weights(g)

    def test_disconnected_rejected(self):
        g = NetworkGraph.from_undirected_edges((0, 1, 2), [(0, 1)])
        with pytest.raises(GraphValidationError):
            metropolis_weights(g)

    def test_seven_node_doubly_stochastic_primitive(self):
        omega = metropolis_weights(seven_node_diameter_three())
        assert is_doubly_stochastic(omega)
        assert is_primitive(omega)


class TestPowerCheck:
    def test_complete_graph_contracts(self):
        g = NetworkGraph.from_undirected_edges((0, 1, 2), [(0, 1), (1, 2), (0, 2)])
        omega = metropolis_weights(g)
        assert consensus_matrix_power_check(omega, 1) <= consensus_matrix_power_check(omega, 0)

    def test_seven_node_deviation_decreases(self):
        omega = metropolis_weights(seven_node_diameter_three())
        d1 = consensus_matrix_power_check(omega, 1)
        d3 = consensus_matrix_power_check(omega, 3)
        d10 = consensus_matrix_power_check(omega, 10)
        assert d3 < d1
        assert d10 < 0.05

    def test_reducible_matrix_flagged(self):
        omega = ConsensusMatrix((0, 1), np.eye(2))
        assert not is_primitive(omega)
        # no convergence toward 1/N
        assert consensus_matrix_power_check(omega, 50) == pytest.approx(0.5)
