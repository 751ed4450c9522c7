"""Unit tests for the graph locality primitives."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    ball,
    ball_subgraph,
    boundary,
    cycle_graph,
    diameter,
    distance,
    distances_from,
    grid_graph,
    node_ids,
    path_graph,
    power_graph,
    sphere,
    torus_graph,
)


class TestDistances:
    def test_distance_on_path(self):
        graph = path_graph(6)
        assert distance(graph, 0, 5) == 5
        assert distance(graph, 2, 2) == 0

    def test_distances_from_truncated(self):
        graph = path_graph(10)
        dists = distances_from(graph, 0, radius=3)
        assert set(dists) == {0, 1, 2, 3}
        assert dists[3] == 3

    def test_distances_from_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            distances_from(path_graph(3), 0, radius=-1)

    def test_distances_from_missing_source_raises(self):
        with pytest.raises(nx.NodeNotFound):
            distances_from(path_graph(3), 7)
        with pytest.raises(nx.NodeNotFound):
            distances_from(path_graph(3), 7, radius=2)

    @pytest.mark.parametrize(
        "graph",
        [
            nx.gnp_random_graph(30, 0.12, seed=3),
            nx.gnp_random_graph(40, 0.06, seed=11),
            nx.random_regular_graph(3, 24, seed=5),
            cycle_graph(9),
            cycle_graph(16),
            torus_graph(4, 5),
            nx.disjoint_union(cycle_graph(5), path_graph(4)),
        ],
        ids=["gnp30", "gnp40", "regular24", "cycle9", "cycle16", "torus4x5", "disconnected"],
    )
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 5, None])
    def test_distances_from_matches_networkx_in_order(self, graph, radius):
        """Items *and* insertion order equal networkx's BFS: power_graph
        inserts edges in this order, and the seeded decomposition reads it."""
        for source in graph.nodes():
            expected = nx.single_source_shortest_path_length(graph, source, cutoff=radius)
            assert list(distances_from(graph, source, radius).items()) == list(
                expected.items()
            )

    def test_distance_disconnected_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        with pytest.raises(nx.NetworkXNoPath):
            distance(graph, 0, 1)


class TestBalls:
    def test_ball_on_cycle(self):
        graph = cycle_graph(8)
        assert ball(graph, 0, 0) == {0}
        assert ball(graph, 0, 1) == {7, 0, 1}
        assert ball(graph, 0, 4) == set(range(8))

    def test_sphere_on_cycle(self):
        graph = cycle_graph(8)
        assert sphere(graph, 0, 2) == {2, 6}
        assert sphere(graph, 0, 0) == {0}

    def test_ball_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball(cycle_graph(4), 0, -1)
        with pytest.raises(ValueError):
            sphere(cycle_graph(4), 0, -2)

    def test_ball_subgraph_is_a_copy(self):
        graph = cycle_graph(6)
        sub = ball_subgraph(graph, 0, 1)
        sub.add_edge(0, 3)
        assert not graph.has_edge(0, 3)

    def test_ball_subgraph_edges(self):
        graph = grid_graph(3, 3)
        sub = ball_subgraph(graph, (1, 1), 1)
        assert set(sub.nodes()) == {(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)}
        assert sub.number_of_edges() == 4

    @given(radius=st.integers(min_value=0, max_value=6), n=st.integers(min_value=3, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_ball_monotone_in_radius(self, radius, n):
        graph = cycle_graph(n)
        smaller = ball(graph, 0, radius)
        larger = ball(graph, 0, radius + 1)
        assert smaller <= larger


class TestBoundary:
    def test_boundary_of_interval_on_path(self):
        graph = path_graph(7)
        assert boundary(graph, {2, 3, 4}) == {1, 5}

    def test_boundary_of_everything_is_empty(self):
        graph = cycle_graph(5)
        assert boundary(graph, set(range(5))) == set()

    def test_boundary_grid_center(self):
        graph = grid_graph(3, 3)
        assert boundary(graph, {(1, 1)}) == {(0, 1), (2, 1), (1, 0), (1, 2)}


class TestPowerGraph:
    def test_square_of_path(self):
        graph = path_graph(5)
        squared = power_graph(graph, 2)
        assert squared.has_edge(0, 2)
        assert not squared.has_edge(0, 3)

    def test_power_one_is_same_graph(self):
        graph = cycle_graph(6)
        assert set(power_graph(graph, 1).edges()) == set(graph.edges())

    def test_power_at_least_diameter_is_complete(self):
        graph = path_graph(4)
        cubed = power_graph(graph, 3)
        assert cubed.number_of_edges() == 6

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            power_graph(path_graph(3), 0)


class TestDiameterAndIds:
    def test_diameter(self):
        assert diameter(path_graph(6)) == 5
        assert diameter(cycle_graph(8)) == 4
        assert diameter(path_graph(1)) == 0

    def test_node_ids_are_unique_and_deterministic(self):
        graph = grid_graph(3, 2)
        ids_a = node_ids(graph)
        ids_b = node_ids(graph)
        assert ids_a == ids_b
        assert sorted(ids_a.values()) == list(range(6))

    def test_node_ids_mixed_labels(self):
        graph = nx.Graph()
        graph.add_nodes_from(["a", ("b", 1), 3])
        ids = node_ids(graph)
        assert sorted(ids.values()) == [0, 1, 2]
