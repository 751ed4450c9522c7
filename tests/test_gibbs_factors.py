"""Unit tests for constraints/factors."""

import itertools
import random

import networkx as nx
import numpy as np
import pytest

from repro.gibbs import Factor
from repro.gibbs.factors import StrayCodeTable, _distances_until, code_tables
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


def _walk(table, codes):
    for code in codes:
        table = table[code]
    return table


class TestCodeTables:
    """``Factor.code_table`` holds, per code tuple, the float ``evaluate`` returns."""

    ALPHABET = ("a", "b", "c")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Factor((0, 1, 2), lambda x, y, z: 0.0 if x == y == z else 0.1 * len(x + y + z)),
            lambda: Factor.from_table((0, 1), {("a", "b"): 3.0, ("c", "c"): 0.25}, default=0.5),
            lambda: Factor.from_dense(
                (0, 1), np.arange(9, dtype=np.float32).reshape(3, 3) / 7, ("a", "b", "c")
            ),
            lambda: Factor.from_dense((0, 1), np.arange(9).reshape(3, 3), ("a", "b", "c")),
        ],
        ids=["arity-3", "from-table", "from-dense-float32", "from-dense-int"],
    )
    def test_entries_equal_evaluate(self, make):
        factor = make()
        table = factor.code_table(self.ALPHABET)
        arity = len(factor.scope)
        for codes in itertools.product(range(3), repeat=arity):
            weight = _walk(table, codes)
            expected = make().evaluate_values(tuple(self.ALPHABET[c] for c in codes))
            assert type(weight) is float
            assert weight == expected

    def test_shared_per_callable_and_alphabet(self):
        def edge(x, y):
            return float(x != y)

        first, second = Factor((0, 1), edge), Factor((1, 2), edge)
        assert first.code_table((0, 1)) is second.code_table((0, 1))
        assert first.code_table((0, 1, 2)) is not first.code_table((0, 1))
        assert _walk(first.code_table((0, 1, 2)), (2, 1)) == 1.0

    def test_a_from_dense_array_gets_its_own_list(self):
        array = np.array([[0.0, 1.0], [2.0, 0.5]])
        factor = Factor.from_dense((0, 1), array, (0, 1))
        assert factor.code_table((0, 1)) == array.tolist()

    def test_stray_tables_weigh_the_pinned_value_through_the_callable(self):
        factor = Factor((0, 1), lambda x, y: 2.0 if x == 7 else float(y))
        pairs = code_tables([factor], (0, 1), {0: 7})
        table, scope = pairs[0]
        assert isinstance(table, StrayCodeTable) and scope == (0, 1)
        # The stray node's own code is ignored; the callable sees 7.
        assert _walk(table, (0, 1)) == _walk(table, (1, 0)) == 2.0
        plain = code_tables([factor], (0, 1), {5: 7})[0][0]
        assert plain is factor.code_table((0, 1))
        dense = Factor.from_dense((0, 1), np.ones((2, 2)), (0, 1))
        with pytest.raises(KeyError):
            _walk(code_tables([dense], (0, 1), {1: 7})[0][0], (0, 0))
