"""Compiling fresh models: shared dense tables, fusion layouts, factor selection.

Compilation does only the work that depends on a factor's values, once
per callable:

* ``Factor.dense_table`` shares one read-only table per ``(callable,
  alphabet, arity)`` across the process, weakly keyed on the callable;
* the fusion of a compiled engine follows a layout kept in the plan store
  under the raw scopes, and the products it names are bit-identical to
  fusing the factors directly;
* ``GibbsDistribution.factors_within`` reads the per-node factor index, in
  distribution order, before and after ``update_factors``.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro import obs
from repro.engine import compiled as compiled_module
from repro.engine.compiled import CompiledGibbs, dense_table_from_callable
from repro.gibbs import GibbsDistribution
from repro.gibbs import factors as factors_module
from repro.gibbs.factors import Factor
from repro.graphs import cycle_graph, erdos_renyi_graph, torus_graph
from repro.models import coloring_model, hardcore_model, ising_model, list_coloring_model

STORE = compiled_module._PLAN_STORE


@pytest.fixture
def metrics():
    handle = obs.enable(tracing=False)
    try:
        yield handle.metrics
    finally:
        obs.disable()


def _tables(distribution):
    return [factor.dense_table(distribution.alphabet) for factor in distribution.factors]


def _reference(factor, alphabet) -> bytes:
    """The factor's table built on its own, entry by entry."""
    return dense_table_from_callable(factor, alphabet).tobytes()


class _Weights:
    """A callable that cannot be weakly referenced (no ``__weakref__`` slot)."""

    __slots__ = ()

    def __call__(self, *values) -> float:
        return 1.0 + sum(values)


def _assert_threads_read_one_table(read):
    """Six threads call ``read(factor, alphabet)`` on factors of one callable.

    More threads than cores and frequent switches: two threads that both
    miss may both build, but every factor must end up reading the one
    table the store kept.
    """

    def weight(value_u, value_v):
        return 2.0 if value_u == value_v else 0.5

    graph = torus_graph(6, 6)
    alphabet = tuple(range(4))
    groups = [[Factor(edge, weight) for edge in graph.edges()] for _ in range(6)]
    barrier = threading.Barrier(len(groups))
    seen: List[set] = []
    errors = []

    def run(factors):
        try:
            barrier.wait()
            seen.append({id(read(factor, alphabet)) for factor in factors})
        except BaseException as error:  # pragma: no cover - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(group,)) for group in groups]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(seen) == len(groups)
    assert len(set().union(*seen)) == 1


class TestSharedDenseTables:
    def test_factors_sharing_a_callable_share_one_read_only_table(self):
        distribution = hardcore_model(cycle_graph(8), fugacity=1.7)
        pairs = list(zip(distribution.factors, _tables(distribution)))
        vertex = {id(table) for factor, table in pairs if len(factor.scope) == 1}
        edge = {id(table) for factor, table in pairs if len(factor.scope) == 2}
        assert len(vertex) == len(edge) == 1
        for factor, table in pairs:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 5.0
            assert table.tobytes() == _reference(factor, distribution.alphabet)

    def test_fresh_model_builds_one_table_per_callable(self, metrics):
        distribution = hardcore_model(cycle_graph(16), fugacity=1.3)
        distribution.compiled_engine()
        assert metrics.counter("engine.dense_tables.built").snapshot() == 2
        assert metrics.counter("engine.dense_tables.shared").snapshot() == 30

    def test_the_key_holds_the_arity(self):
        def weight(*values):
            return 1.0 + sum(values)

        scopes = [(0,), (0, 1), (0, 1, 2)]
        distribution = GibbsDistribution(
            cycle_graph(3), (0, 1, 2), [Factor(scope, weight) for scope in scopes]
        )
        tables = _tables(distribution)
        assert [table.shape for table in tables] == [(3,), (3, 3), (3, 3, 3)]
        for factor, table in zip(distribution.factors, tables):
            assert table.tobytes() == _reference(factor, distribution.alphabet)

    def test_the_key_holds_the_alphabet(self):
        def weight(value_u, value_v):
            return 1.0 + value_u * 10 + value_v

        graph = cycle_graph(4)
        for alphabet in ((0, 1), (2, 3, 4)):
            factors = [Factor(edge, weight) for edge in graph.edges()]
            distribution = GibbsDistribution(graph, alphabet, factors)
            for factor, table in zip(distribution.factors, _tables(distribution)):
                assert table.tobytes() == _reference(factor, distribution.alphabet)
            assert distribution.partition_function() == pytest.approx(
                distribution.partition_function(engine="dict"), rel=1e-12
            )

    def test_per_node_closures_get_their_own_tables(self, metrics):
        lists = {node: [0, 1, 2] if node % 2 else [1, 2, 3] for node in range(8)}
        distribution = list_coloring_model(cycle_graph(8), lists)
        pairs = list(zip(distribution.factors, _tables(distribution)))
        unary = [table for factor, table in pairs if len(factor.scope) == 1]
        binary = [table for factor, table in pairs if len(factor.scope) == 2]
        assert len({id(table) for table in unary}) == len(unary) == 8
        assert len({id(table) for table in binary}) == 1
        assert metrics.counter("engine.dense_tables.built").snapshot() == 9

    def test_a_callable_without_weak_references_gets_a_table_per_factor(self):
        function = _Weights()
        with pytest.raises(TypeError):
            factors_module._SHARED_TABLES[function] = {}
        graph = cycle_graph(4)
        distribution = GibbsDistribution(
            graph, (0, 1), [Factor(edge, function) for edge in graph.edges()]
        )
        tables = _tables(distribution)
        assert len({id(table) for table in tables}) == len(tables)
        for factor, table in zip(distribution.factors, tables):
            assert table is factor.dense_table(distribution.alphabet)
            assert table.tobytes() == _reference(factor, distribution.alphabet)

    def test_tables_go_away_with_their_callable(self):
        gc.collect()
        before = len(factors_module._SHARED_TABLES)
        distribution = hardcore_model(cycle_graph(6), fugacity=0.9)
        distribution.compiled_engine()
        assert len(factors_module._SHARED_TABLES) == before + 2
        del distribution
        gc.collect()
        assert len(factors_module._SHARED_TABLES) == before

    def test_threads_sharing_a_callable_read_one_table(self):
        _assert_threads_read_one_table(Factor.dense_table)

    def test_threads_sharing_a_callable_read_one_code_table(self):
        _assert_threads_read_one_table(Factor.code_table)

    def test_an_installed_dense_array_wins(self):
        array = np.array([[1.0, 2.0], [3.0, 4.0]])
        factor = Factor.from_dense((0, 1), array, (0, 1))
        assert factor.dense_table((0, 1)) is array
        assert factor.dense_table((1, 0)).tolist() == [[4.0, 3.0], [2.0, 1.0]]


def _direct_fusion(scopes, arrays):
    """Fuse factor arrays directly: the reference the layout must reproduce.

    Multi-node factors with one scope set multiply into the first one's
    table (transposed onto its scope) in factor order; then each unary
    multiplies into the first fused table holding its node, broadcast along
    that node's axis, or opens a table of its own.
    """
    slot_of: Dict[frozenset, int] = {}
    fused_scopes: List[Tuple[int, ...]] = []
    fused: List[np.ndarray] = []
    for scope, array in zip(scopes, arrays):
        if len(scope) == 1:
            continue
        slot = slot_of.get(frozenset(scope))
        if slot is None:
            slot_of[frozenset(scope)] = len(fused)
            fused_scopes.append(scope)
            fused.append(array.copy())
        else:
            host = fused_scopes[slot]
            fused[slot] = fused[slot] * np.transpose(array, [scope.index(v) for v in host])
    for scope, array in zip(scopes, arrays):
        if len(scope) != 1:
            continue
        (variable,) = scope
        slot = next((i for i, host in enumerate(fused_scopes) if variable in host), None)
        if slot is None:
            fused_scopes.append(scope)
            fused.append(array.copy())
            continue
        shape = [1] * len(fused_scopes[slot])
        shape[fused_scopes[slot].index(variable)] = len(array)
        fused[slot] = fused[slot] * array.reshape(shape)
    return tuple(fused_scopes), fused


def _random_factor_graph(rng: random.Random, n: int):
    """Random scopes over ``n`` variables: 3-ary scopes, reversed duplicate
    scope sets, unaries without a host and two unaries on one node."""
    scopes: List[Tuple[int, ...]] = []
    for _ in range(rng.randint(2, 2 * n)):
        arity = rng.choice((2, 2, 3))
        scopes.append(tuple(rng.sample(range(n - 2), arity)))
    scopes.append(tuple(reversed(scopes[0])))
    scopes.append(tuple(reversed(scopes[-2])))
    hosted = rng.randrange(n - 2)
    scopes += [(hosted,), (n - 1,), (hosted,), (n - 1,), (n - 2,)]
    rng.shuffle(scopes)
    return scopes


def _random_arrays(rng: np.random.Generator, scopes, q: int):
    return [rng.random((q,) * len(scope)) + 0.1 for scope in scopes]


class TestFusionLayouts:
    @pytest.mark.parametrize("seed", range(12))
    def test_layout_fusion_equals_direct_fusion(self, seed):
        rng = random.Random(seed)
        n, q = rng.randint(5, 9), rng.choice((2, 3))
        scopes = _random_factor_graph(rng, n)
        generator = np.random.default_rng(seed)
        STORE.clear()
        # The first engine plans the layout, the second reuses it on new weights.
        for _ in range(2):
            arrays = _random_arrays(generator, scopes, q)
            engine = CompiledGibbs(range(n), range(q), scopes, arrays)
            fused_scopes, fused = _direct_fusion(scopes, arrays)
            assert engine.fused_scopes == fused_scopes
            assert [a.tobytes() for a in engine.fused_arrays] == [a.tobytes() for a in fused]
            assert [a.shape for a in engine.fused_arrays] == [a.shape for a in fused]

    def test_layouts_are_keyed_by_the_raw_scopes(self):
        # Both scope lists fuse to ((0, 1),), but only the first transposes
        # its second factor: a layout shared between them would be wrong.
        generator = np.random.default_rng(3)
        STORE.clear()
        for scopes in ([(0, 1), (1, 0)], [(0, 1), (0, 1)], [(1, 0), (0, 1)]):
            arrays = _random_arrays(generator, scopes, 3)
            engine = CompiledGibbs(range(2), range(3), scopes, arrays)
            fused_scopes, fused = _direct_fusion(scopes, arrays)
            assert engine.fused_scopes == fused_scopes
            assert [a.tobytes() for a in engine.fused_arrays] == [a.tobytes() for a in fused]

    def test_models_fuse_like_the_direct_fusion(self):
        models = [
            hardcore_model(erdos_renyi_graph(14, 0.3, seed=4), fugacity=1.6),
            coloring_model(torus_graph(4, 4), 5),
            ising_model(cycle_graph(9), 0.4, 0.2),
        ]
        for distribution in models:
            engine = distribution.compiled_engine()
            cache = distribution.ball_cache()
            balls = [cache.compiled_ball(node, 1) for node in distribution.nodes[:4]]
            for compiled in [engine] + balls:
                fused_scopes, fused = _direct_fusion(compiled.scopes, compiled.arrays)
                assert compiled.fused_scopes == fused_scopes
                assert [a.tobytes() for a in compiled.fused_arrays] == [a.tobytes() for a in fused]

    def test_one_layout_per_raw_structure(self):
        STORE.clear()
        engines = [
            hardcore_model(cycle_graph(10), fugacity=weight).compiled_engine()
            for weight in (0.5, 1.5, 2.5)
        ]
        assert len(STORE._layouts) == 1
        assert len({id(engine.fused_scopes) for engine in engines}) == 1

    def test_one_layout_serves_every_alphabet_size(self):
        # The layout reads no q: unaries broadcast along their node's axis
        # whatever its length, so 2- and 4-symbol engines share it.
        scopes = [(0,), (0, 1), (2,), (1, 0), (1, 2), (1,)]
        generator = np.random.default_rng(5)
        STORE.clear()
        for q in (2, 4, 3):
            arrays = _random_arrays(generator, scopes, q)
            engine = CompiledGibbs(range(3), range(q), scopes, arrays)
            fused_scopes, fused = _direct_fusion(scopes, arrays)
            assert engine.fused_scopes == fused_scopes
            assert [a.tobytes() for a in engine.fused_arrays] == [a.tobytes() for a in fused]
        assert len(STORE._layouts) == 1


def _full_scan(distribution, nodes):
    return [factor for factor in distribution.factors if factor.scope_set <= set(nodes)]


class TestFactorsWithin:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_full_scan_in_order(self, seed):
        rng = random.Random(seed)
        distribution = list_coloring_model(
            erdos_renyi_graph(20, 0.2, seed=seed),
            {node: rng.sample(range(5), 3) for node in range(20)},
        )
        for _ in range(20):
            nodes = rng.sample(distribution.nodes, rng.randint(0, 20))
            assert distribution.factors_within(nodes) == _full_scan(distribution, nodes)
            with_absent = set(nodes) | {"absent"}
            assert distribution.factors_within(with_absent) == _full_scan(distribution, nodes)

    def test_equals_the_full_scan_after_update_factors(self):
        graph = cycle_graph(12)
        distribution = hardcore_model(graph, fugacity=0.8)
        nodes = {0, 1, 2, 3, 7}
        distribution.ball_cache().compiled_ball(0, 2)
        replacement = hardcore_model(graph, fugacity=2.4).factors
        distribution.update_factors(replacement)
        within = distribution.factors_within(nodes)
        assert within == _full_scan(distribution, nodes)
        assert all(any(factor is new for new in replacement) for factor in within)
        assert distribution.factors_at(3) == [f for f in replacement if 3 in f.scope_set]
        fresh = hardcore_model(graph, fugacity=2.4)
        assert distribution.ball_marginal(0, 2, {}, 1) == fresh.ball_marginal(0, 2, {}, 1)
