"""The process-wide elimination-plan store and the ball cache's drop count.

Elimination orders, contraction schedules and restriction plans depend
only on structure -- ``(len(nodes), q, fused_scopes)``, the pinned domain
and the kept axes --
and fusion layouts only on ``(len(nodes), scopes)``, so
:mod:`repro.engine.compiled` keeps one store of them for the whole
process, shared by every engine of the same shape.  This suite pins down
what that sharing must never change: results are bit-identical to a cold
store, weights never leak between distributions, the store stays within
its one bound, concurrent engines agree with the serial run, and a
``reweighted`` twin or a ``spec.to_instance()`` rebuild plans nothing anew.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro import obs
from repro.engine import cache as cache_module
from repro.engine import compiled as compiled_module
from repro.gibbs import GibbsDistribution, SamplingInstance
from repro.gibbs.factors import Factor
from repro.graphs import cycle_graph, path_graph
from repro.inference.ssm_inference import padded_ball_marginal
from repro.models import coloring_model, hardcore_model
from repro.runtime.shards import InstanceSpec

STORE = compiled_module._PLAN_STORE

MODELS = {
    "hardcore": (lambda weight: hardcore_model(cycle_graph(12), fugacity=weight), (0.7, 2.5)),
    "coloring": (lambda weight: _weighted_colouring(weight), (1.0, 3.0)),
}


def _weighted_colouring(weight):
    """A 3-colouring of a 9-cycle with colour 0 weighted by ``weight``."""
    base = coloring_model(cycle_graph(9), 3)
    unary = [
        Factor((node,), lambda value, w=weight: w if value == 0 else 1.0)
        for node in base.graph.nodes()
    ]
    return GibbsDistribution(base.graph, base.alphabet, list(base.factors) + unary)


def _queries(distribution):
    """Every plan-backed query kind, under two pinnings of one domain."""
    compiled = distribution.compiled_engine()
    nodes = compiled.nodes
    results = []
    for pinning in ({nodes[0]: compiled.alphabet[0]}, {nodes[0]: compiled.alphabet[1]}):
        free = [node for node in nodes if node not in pinning]
        results.append(compiled.partition_function(pinning))
        results.append([compiled.marginal(node, pinning) for node in free])
        results.append(compiled.joint_marginal_weights(free[:2], pinning)[1].tobytes())
    instance = SamplingInstance(distribution, {nodes[0]: compiled.alphabet[0]})
    results.append([padded_ball_marginal(instance, node, 1) for node in instance.free_nodes])
    return results


def _counted(store):
    return len(store._layouts) + sum(
        1 + len(p.orders) + len(p.schedules) + len(p.restrictions)
        for p in store._plans.values()
    )


@pytest.fixture
def metrics():
    handle = obs.enable(tracing=False)
    try:
        yield handle.metrics
    finally:
        obs.disable()


def _misses(metrics):
    return metrics.counter("engine.schedule_cache.misses").snapshot()


class TestSharedPlans:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_same_structure_new_weights_equals_a_cold_store(self, model):
        build, (first, second) = MODELS[model]
        STORE.clear()
        _queries(build(first))
        warm = _queries(build(second))
        STORE.clear()
        cold = _queries(build(second))
        assert warm == cold
        assert warm != _queries(build(first)), "weights leaked between distributions"

    def test_other_structure_of_equal_size_gets_its_own_plans(self):
        STORE.clear()
        _queries(hardcore_model(cycle_graph(9), fugacity=1.4))
        shared = _queries(hardcore_model(path_graph(9), fugacity=1.4))
        STORE.clear()
        assert _queries(hardcore_model(path_graph(9), fugacity=1.4)) == shared

    def test_store_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(compiled_module, "_PLAN_CACHE_LIMIT", 16)
        STORE.clear()
        first = hardcore_model(path_graph(3), fugacity=1.3).compiled_engine()
        expected = first.marginal(1, {0: 0})
        for n in range(4, 24):
            compiled = hardcore_model(path_graph(n), fugacity=1.3).compiled_engine()
            reference = compiled.marginal(n // 2, {}) if n % 2 else None
            for node in range(1, n):
                compiled.marginal(node, {0: 0})
                assert STORE.size <= 16
                assert _counted(STORE) == STORE.size
            if reference is not None:
                STORE.clear()
                assert compiled.marginal(n // 2, {}) == reference
        # An engine whose plans a reset dropped registers again and stays
        # correct and counted.
        assert first.marginal(1, {0: 0}) == expected
        assert first.marginal(2, {0: 0}) == hardcore_model(
            path_graph(3), fugacity=1.3
        ).marginal(2, {0: 0}, engine="dict")
        assert _counted(STORE) == STORE.size <= 16

    def test_threads_on_same_structure_equal_serial(self, monkeypatch):
        weights = (0.6, 1.0, 1.9, 2.7)
        serial = {}
        for weight in weights:
            STORE.clear()
            serial[weight] = _queries(hardcore_model(cycle_graph(12), fugacity=weight))
        # More threads than cores, frequent switches and a small cap, so the
        # store resets while the threads insert: a lost update would break
        # the entry count.
        monkeypatch.setattr(compiled_module, "_PLAN_CACHE_LIMIT", 24)
        STORE.clear()
        barrier = threading.Barrier(len(weights))
        threaded = {}
        errors = []

        def run(weight):
            try:
                distribution = hardcore_model(cycle_graph(12), fugacity=weight)
                barrier.wait()
                threaded[weight] = [_queries(distribution) for _ in range(3)]
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(weight,)) for weight in weights]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for weight in weights:
            assert threaded[weight] == [serial[weight]] * 3
        assert _counted(STORE) == STORE.size <= 24

    def test_reweighted_twin_plans_nothing(self, metrics):
        distribution = hardcore_model(cycle_graph(10), fugacity=0.8)
        _queries(distribution)
        before = _misses(metrics)
        distribution.update_factors(hardcore_model(cycle_graph(10), fugacity=2.2).factors)
        reweighted = _queries(distribution)
        assert _misses(metrics) == before
        assert metrics.counter("engine.schedule_cache.hits").snapshot() > 0
        STORE.clear()
        assert _queries(hardcore_model(cycle_graph(10), fugacity=2.2)) == reweighted

    def test_spec_rebuild_plans_nothing(self, metrics):
        instance = SamplingInstance(
            coloring_model(cycle_graph(9), 3), {0: 1, 4: 2}
        )
        original = [padded_ball_marginal(instance, node, 2) for node in instance.free_nodes]
        before = _misses(metrics)
        rebuilt = InstanceSpec.from_instance(instance).to_instance()
        assert rebuilt.distribution.compiled_engine() is not (
            instance.distribution.compiled_engine()
        )
        assert [
            padded_ball_marginal(rebuilt, node, 2) for node in rebuilt.free_nodes
        ] == original
        assert _misses(metrics) == before


class TestBallCacheDrops:
    def test_every_cap_reset_counts_what_it_drops(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_BALL_CACHE_LIMIT", 2)
        monkeypatch.setattr(cache_module, "_EXTRAS_LIMIT", 3)
        distribution = hardcore_model(cycle_graph(10), fugacity=1.1)
        cache = distribution.ball_cache()
        for key in range(4):
            cache.cached_extra(("tag", key), lambda key=key: key)
        assert cache.stats()["drops"] == 3  # the extras reset
        cache.compiled_ball(0, 1)
        cache.compiled_ball(1, 1)
        cache.compiled_ball(2, 1)
        # The ball reset also clears the one remaining extra.
        assert cache.stats()["drops"] == 3 + 2 + 1
        assert cache.stats()["size"] == 1 and not cache.extras
        cache.cached_extra(("tag", 9), lambda: 9)
        cache.compiled_ball(3, 1)
        cache.compiled_ball(4, 1)
        assert cache.stats()["drops"] == 6 + 2 + 1
        assert cache.stats()["size"] == 1


class TestForkedStore:
    def test_child_forked_while_the_lock_is_held_still_plans(self):
        # A pool worker forked while another parent thread inserts must not
        # inherit a held lock: the child gets a fresh one.
        with STORE._lock:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                try:
                    compiled = hardcore_model(path_graph(31), fugacity=0.9).compiled_engine()
                    compiled.marginal(15, {0: 1})
                    os._exit(0 if _counted(STORE) == STORE.size else 1)
                finally:
                    os._exit(2)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child blocked on the inherited plan-store lock")
        assert os.waitstatus_to_exitcode(status) == 0


class TestRestrictionPlans:
    """One restriction plan per pinned domain slices exactly the pinned axes."""

    def test_slices_equal_direct_indexing_and_are_views(self):
        STORE.clear()
        compiled = _weighted_colouring(1.7).compiled_engine()
        pin_codes = {0: 2, 4: 1, 5: 0}
        pinned = frozenset(pin_codes)
        restricted = compiled._restricted_arrays(pin_codes, pinned)
        assert len(restricted) == len(compiled.fused_arrays)
        touched = 0
        for scope, array, sliced in zip(compiled.fused_scopes, compiled.fused_arrays, restricted):
            index = tuple(pin_codes.get(v, slice(None)) for v in scope)
            if pinned.isdisjoint(scope):
                assert sliced is array
                continue
            touched += 1
            assert sliced.base is array or sliced.base is array.base
            assert sliced.tobytes() == array[index].tobytes()
            assert sliced.shape == array[index].shape
        assert touched == len(compiled._plans.restrictions[pinned])
        assert compiled._restricted_arrays({}, frozenset()) is compiled.fused_arrays

    def test_one_plan_per_domain_shared_by_engines_of_a_structure(self):
        STORE.clear()
        first = hardcore_model(cycle_graph(8), fugacity=0.6).compiled_engine()
        second = hardcore_model(cycle_graph(8), fugacity=1.9).compiled_engine()
        assert first._plans is second._plans
        for value in (0, 1):
            first.marginal(3, {0: value, 5: 1 - value})
            second.marginal(3, {0: value, 5: 1 - value})
        assert list(first._plans.restrictions) == [frozenset({0, 5})]
        size = STORE.size
        STORE.clear()
        assert not first._plans.restrictions
        assert size > STORE.size == 0
