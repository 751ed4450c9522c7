"""Unit tests for the LOCAL-model driver."""

import pytest

from repro.graphs import cycle_graph, path_graph
from repro.localmodel import LocalNodeAlgorithm, Network, run_local_algorithm


class CountBallAlgorithm(LocalNodeAlgorithm):
    """Outputs the size of the node's radius-r ball (a canonical LOCAL task)."""

    def __init__(self, r):
        self.r = r

    def radius(self, network):
        return self.r

    def compute(self, view):
        return len(view.nodes), False


class FailAtHighIdAlgorithm(LocalNodeAlgorithm):
    """Fails at nodes whose ID exceeds a threshold (locally certifiable failure)."""

    def radius(self, network):
        return 1

    def compute(self, view):
        my_id = view.ids[view.center]
        return my_id, my_id >= 3


class RandomBitAlgorithm(LocalNodeAlgorithm):
    """Outputs one private random bit; used to check reproducibility."""

    def radius(self, network):
        return 0

    def compute(self, view):
        return int(view.rng().integers(0, 2)), False


class BallBitAlgorithm(LocalNodeAlgorithm):
    """Outputs (ball size, private bit); fails where the bit is 1 and 3 | ID."""

    def radius(self, network):
        return 1

    def compute(self, view):
        bit = int(view.rng().integers(0, 2))
        return (len(view.nodes), bit), bit == 1 and view.ids[view.center] % 3 == 0


class TestRunLocalAlgorithm:
    def test_ball_sizes_on_cycle(self):
        network = Network(cycle_graph(7))
        result = run_local_algorithm(CountBallAlgorithm(2), network)
        assert result.rounds == 2
        assert all(output == 5 for output in result.outputs.values())
        assert result.success

    def test_ball_sizes_on_path_boundary_effects(self):
        network = Network(path_graph(5))
        result = run_local_algorithm(CountBallAlgorithm(1), network)
        assert result.outputs[0] == 2
        assert result.outputs[2] == 3

    def test_failures_are_reported(self):
        network = Network(path_graph(5))
        result = run_local_algorithm(FailAtHighIdAlgorithm(), network)
        assert not result.success
        assert result.failure_count == 2
        assert set(result.failed_nodes) == {3, 4}

    def test_subset_of_nodes(self):
        network = Network(cycle_graph(6))
        result = run_local_algorithm(CountBallAlgorithm(1), network, nodes=[0, 3])
        assert set(result.outputs) == {0, 3}

    def test_reproducible_given_seed(self):
        first = run_local_algorithm(RandomBitAlgorithm(), Network(cycle_graph(6), seed=5))
        second = run_local_algorithm(RandomBitAlgorithm(), Network(cycle_graph(6), seed=5))
        third = run_local_algorithm(RandomBitAlgorithm(), Network(cycle_graph(6), seed=6))
        assert first.outputs == second.outputs
        assert first.outputs != third.outputs

    def test_golden_result(self):
        # Recorded from the in-process per-node loop; must match exactly.
        result = run_local_algorithm(BallBitAlgorithm(), Network(cycle_graph(7), seed=3))
        assert result.outputs == {
            0: (3, 1), 1: (3, 1), 2: (3, 0), 3: (3, 1), 4: (3, 0), 5: (3, 0), 6: (3, 1)
        }
        assert result.failures == {
            0: True, 1: False, 2: False, 3: True, 4: False, 5: False, 6: True
        }
        assert all(type(failed) is bool for failed in result.failures.values())
        assert result.rounds == 1

    def test_negative_radius_rejected(self):
        class Broken(LocalNodeAlgorithm):
            def radius(self, network):
                return -1

            def compute(self, view):
                return None, False

        with pytest.raises(ValueError):
            run_local_algorithm(Broken(), Network(path_graph(3)))
