"""Unit tests for constraints/factors."""

import random

import networkx as nx
import pytest

from repro.gibbs import Factor
from repro.gibbs.factors import _distances_until
from repro.graphs import cycle_graph, path_graph


class TestFactorBasics:
    def test_evaluate_by_assignment_and_values(self):
        factor = Factor((0, 1), lambda a, b: 0.0 if a == b else 2.0)
        assert factor.evaluate({0: 1, 1: 1}) == 0.0
        assert factor.evaluate({0: 0, 1: 1, 5: 9}) == 2.0
        assert factor.evaluate_values((0, 1)) == 2.0

    def test_scope_validation(self):
        with pytest.raises(ValueError):
            Factor((), lambda: 1.0)
        with pytest.raises(ValueError):
            Factor((0, 0), lambda a, b: 1.0)

    def test_negative_weight_rejected(self):
        factor = Factor((0,), lambda a: -1.0)
        with pytest.raises(ValueError):
            factor.evaluate({0: 1})

    def test_from_table_with_default(self):
        factor = Factor.from_table((0, 1), {(0, 1): 3.0, (1, 0): 3.0}, default=0.5)
        assert factor.evaluate_values((0, 1)) == 3.0
        assert factor.evaluate_values((0, 0)) == 0.5

    def test_is_satisfied(self):
        factor = Factor((0, 1), lambda a, b: float(a != b))
        assert factor.is_satisfied({0: 0, 1: 1})
        assert not factor.is_satisfied({0: 1, 1: 1})

    def test_evaluation_cache_consistency(self):
        calls = []

        def weigher(a):
            calls.append(a)
            return 1.0 + a

        factor = Factor((0,), weigher)
        assert factor.evaluate({0: 2}) == 3.0
        assert factor.evaluate({0: 2}) == 3.0
        assert calls == [2]


class TestHardSoftAndLocality:
    def test_is_hard(self):
        hard = Factor((0, 1), lambda a, b: float(not (a == 1 and b == 1)))
        soft = Factor((0, 1), lambda a, b: 1.0 + a + b)
        assert hard.is_hard((0, 1))
        assert not soft.is_hard((0, 1))

    def test_scope_diameter_unary_is_zero(self):
        factor = Factor((3,), lambda a: 1.0)
        assert factor.scope_diameter(path_graph(5)) == 0

    def test_scope_diameter_edge_is_one(self):
        factor = Factor((0, 1), lambda a, b: 1.0)
        assert factor.scope_diameter(cycle_graph(5)) == 1

    def test_scope_diameter_distant_nodes(self):
        factor = Factor((0, 3), lambda a, b: 1.0)
        assert factor.scope_diameter(path_graph(5)) == 3


class TestScopeDiameterSearch:
    """``scope_diameter`` stops each search early, with unchanged answers."""

    @staticmethod
    def _reference(graph, scope):
        return max(
            (
                nx.shortest_path_length(graph, u, v)
                for i, u in enumerate(scope)
                for v in scope[i + 1:]
            ),
            default=0,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_distances_on_random_graphs(self, seed):
        rng = random.Random(seed)
        graph = nx.gnp_random_graph(30, 0.08, seed=seed)
        component = sorted(max(nx.connected_components(graph), key=len))
        for size in (1, 2, 3, 4):
            if len(component) < size:
                continue
            scope = tuple(rng.sample(component, size))
            factor = Factor(scope, lambda *values: 1.0)
            assert factor.scope_diameter(graph) == self._reference(graph, scope)

    def test_hand_built_scopes_on_a_grid(self):
        graph = nx.grid_2d_graph(5, 5)
        cases = {
            ((2, 2),): 0,
            ((0, 0), (0, 1)): 1,
            ((0, 0), (4, 4), (2, 2)): 8,
            ((1, 1), (1, 3), (3, 1), (3, 3)): 4,
        }
        for scope, expected in cases.items():
            factor = Factor(scope, lambda *values: 1.0)
            assert factor.scope_diameter(graph) == expected == self._reference(graph, scope)

    def test_disconnected_scope_raises_naming_the_pair(self):
        graph = nx.disjoint_union(nx.path_graph(4), nx.path_graph(3))  # 0-3 and 4-6
        factor = Factor((1, 3, 5, 0), lambda *values: 1.0)
        with pytest.raises(nx.NetworkXNoPath, match="scope nodes 1, 5 are disconnected"):
            factor.scope_diameter(graph)

    def test_search_stops_once_the_later_scope_nodes_are_found(self):
        graph = nx.path_graph(1000)
        assert _distances_until(graph, 0, (2,)) == {0: 0, 1: 1, 2: 2}
        assert _distances_until(graph, 5, ()) == {5: 0}
