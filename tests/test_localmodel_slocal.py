"""Unit tests for the SLOCAL-model driver and its locality enforcement."""

import pytest

from repro.graphs import cycle_graph, path_graph
from repro.localmodel import Network, SLocalAlgorithm, run_slocal_algorithm


class GreedyColoringAlgorithm(SLocalAlgorithm):
    """Sequential greedy (Delta+1)-coloring: the canonical SLOCAL(1) example."""

    passes = 1

    def locality(self, network):
        return 1

    def process(self, pass_index, node, access, rng, network):
        taken = set()
        for other in access.visible_nodes:
            if other == node:
                continue
            state = access.read(other)
            if "output" in state and network.graph.has_edge(node, other):
                taken.add(state["output"])
        color = 0
        while color in taken:
            color += 1
        access.write(node, "output", color)


class LocalityViolatingAlgorithm(SLocalAlgorithm):
    """Tries to read a node outside its declared locality."""

    def locality(self, network):
        return 1

    def process(self, pass_index, node, access, rng, network):
        far = max(network.nodes, key=lambda other: network.ids[other])
        if far not in access.visible_nodes:
            access.read(far)
        access.write(node, "output", 0)


class TwoPassCountingAlgorithm(SLocalAlgorithm):
    """First pass marks nodes, second pass counts marked neighbours."""

    passes = 2

    def locality(self, network):
        return 1

    def process(self, pass_index, node, access, rng, network):
        if pass_index == 0:
            access.write(node, "marked", int(rng.integers(0, 2)))
            return
        count = 0
        for other in access.visible_nodes:
            if other != node and access.read(other).get("marked"):
                count += 1
        access.write(node, "output", count)


class TestRunSLocalAlgorithm:
    def test_greedy_coloring_is_proper(self):
        network = Network(cycle_graph(7))
        result = run_slocal_algorithm(GreedyColoringAlgorithm(), network)
        colors = result.outputs
        for u, v in network.graph.edges():
            assert colors[u] != colors[v]
        assert max(colors.values()) <= 2
        assert result.success

    def test_greedy_coloring_any_ordering(self):
        network = Network(cycle_graph(6))
        ordering = [3, 0, 5, 2, 4, 1]
        result = run_slocal_algorithm(GreedyColoringAlgorithm(), network, ordering)
        for u, v in network.graph.edges():
            assert result.outputs[u] != result.outputs[v]
        assert result.ordering == ordering

    def test_invalid_ordering_rejected(self):
        network = Network(path_graph(4))
        with pytest.raises(ValueError):
            run_slocal_algorithm(GreedyColoringAlgorithm(), network, ordering=[0, 1, 2])

    def test_locality_violation_raises(self):
        network = Network(path_graph(6))
        with pytest.raises(PermissionError):
            run_slocal_algorithm(LocalityViolatingAlgorithm(), network)

    def test_multi_pass_algorithm(self):
        network = Network(cycle_graph(5), seed=2)
        result = run_slocal_algorithm(TwoPassCountingAlgorithm(), network)
        marked = {node: result.states[node]["marked"] for node in network.nodes}
        for node in network.nodes:
            expected = sum(marked[neighbor] for neighbor in network.graph.neighbors(node))
            assert result.outputs[node] == expected

    def test_states_are_returned(self):
        network = Network(path_graph(3))
        result = run_slocal_algorithm(GreedyColoringAlgorithm(), network)
        assert set(result.states) == set(network.nodes)
        assert result.locality == 1


class SecondPassDrawer(SLocalAlgorithm):
    """Draws in its second pass only, and records what it drew."""

    passes = 2

    def locality(self, network):
        return 0

    def process(self, pass_index, node, access, rng, network):
        if pass_index == 1:
            access.write(node, "output", (rng.random(), int(rng.integers(0, 100))))


class TestPassGenerators:
    def test_only_drawing_passes_build_a_generator_with_the_same_stream(self, monkeypatch):
        network = Network(cycle_graph(6), seed=4)
        built = []
        rng = Network.rng

        def counted(self, node, salt=0):
            built.append((node, salt))
            return rng(self, node, salt=salt)

        monkeypatch.setattr(Network, "rng", counted)
        result = run_slocal_algorithm(SecondPassDrawer(), network)
        assert built == [(node, 1) for node in network.nodes]
        for node in network.nodes:
            expected = rng(network, node, salt=1)
            assert result.outputs[node] == (expected.random(), int(expected.integers(0, 100)))
