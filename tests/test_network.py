from importlib import resources

import numpy as np
import pytest
import yaml

from distmot.network import metropolis_weights, neighbour_lists
from distmot.scenario import BUNDLED, load_scenario
from reference import (
    consensus_matrix_power_check,
    is_doubly_stochastic,
    is_primitive,
    metropolis_weights_from_arcs,
)

# 7-ring with two chords; longest shortest path is 3 hops
SEVEN_NODE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (1, 5)]


def seven_node_diameter_three():
    return neighbour_lists(7, SEVEN_NODE_EDGES)


class TestGraph:
    def test_unknown_node_named_in_error(self):
        with pytest.raises(ValueError, match=r"edges\[0\]: \(0, 9\)"):
            neighbour_lists(2, [(0, 9)])

    def test_in_neighbours_include_self(self):
        assert neighbour_lists(3, [(0, 1), (2, 0)]) == ((0, 1, 2), (0, 1), (0, 2))
        assert neighbour_lists(1, []) == ((0,),)
        # a repeated edge counts once
        assert neighbour_lists(2, [(0, 1), (1, 0), (0, 1)]) == ((0, 1), (0, 1))

    def test_strong_connectivity(self):
        assert neighbour_lists(3, [(0, 1), (1, 2)]) == ((0, 1), (0, 1, 2), (1, 2))
        with pytest.raises(ValueError, match="connected"):
            neighbour_lists(3, [(0, 1)])


def undirected_arcs(edges):
    return [(i, j) for i, j in edges] + [(j, i) for i, j in edges]


class TestMetropolis:
    def test_two_node_graph(self):
        omega = metropolis_weights(neighbour_lists(2, [(0, 1)]))
        assert np.allclose(omega, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert is_doubly_stochastic(omega)

    def test_complete_three(self):
        omega = metropolis_weights(neighbour_lists(3, [(0, 1), (1, 2), (0, 2)]))
        expect = np.full((3, 3), 0.25)
        np.fill_diagonal(expect, 0.5)
        assert np.allclose(omega, expect)
        assert is_doubly_stochastic(omega)

    def test_single_node(self):
        omega = metropolis_weights(neighbour_lists(1, []))
        assert omega.tolist() == [[1.0]]

    def test_read_only(self):
        omega = metropolis_weights(neighbour_lists(2, [(0, 1)]))
        with pytest.raises(ValueError):
            omega[0, 0] = 0.5

    @pytest.mark.parametrize("n, edges", [
        (1, []),
        (2, [(0, 1)]),
        (3, [(0, 1), (1, 2)]),
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        (7, SEVEN_NODE_EDGES),
    ])
    def test_bits_match_arc_scan_reference(self, n, edges):
        want = metropolis_weights_from_arcs(tuple(range(n)), undirected_arcs(edges))
        assert metropolis_weights(neighbour_lists(n, edges)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_graph_bits_match_arc_scan_reference(self, name):
        doc = yaml.safe_load(resources.files("distmot.scenarios").joinpath(f"{name}.yaml").read_text())
        s = load_scenario(name)
        want = metropolis_weights_from_arcs(tuple(range(len(s.sensors))), undirected_arcs(doc["graph"]["edges"]))
        assert metropolis_weights(s.graph).tobytes() == want.tobytes()

    def test_seven_node_doubly_stochastic_primitive(self):
        omega = metropolis_weights(seven_node_diameter_three())
        assert is_doubly_stochastic(omega)
        assert is_primitive(omega)


class TestPowerCheck:
    def test_complete_graph_contracts(self):
        omega = metropolis_weights(neighbour_lists(3, [(0, 1), (1, 2), (0, 2)]))
        assert consensus_matrix_power_check(omega, 1) <= consensus_matrix_power_check(omega, 0)

    def test_seven_node_deviation_decreases(self):
        omega = metropolis_weights(seven_node_diameter_three())
        d1 = consensus_matrix_power_check(omega, 1)
        d3 = consensus_matrix_power_check(omega, 3)
        d10 = consensus_matrix_power_check(omega, 10)
        assert d3 < d1
        assert d10 < 0.05

    def test_reducible_matrix_flagged(self):
        omega = np.eye(2)
        assert not is_primitive(omega)
        # no convergence toward 1/N
        assert consensus_matrix_power_check(omega, 50) == pytest.approx(0.5)
