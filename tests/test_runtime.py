"""Runtime subsystem tests: determinism, pickling, process-pool smoke.

The contract of :mod:`repro.runtime` is threefold:

* the batched chain runner is *bit-identical* per chain to the serial
  samplers under the per-chain seed convention;
* compiled instances and balls round-trip through ``pickle`` (the transport
  of the process backend);
* the process backend produces exactly the serial results, and its
  workers return marginals only: the parent's ball cache stays cold.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.engine.compiled import CompiledGibbs
from repro.gibbs import SamplingInstance
from repro.graphs import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
    torus_graph,
)
from repro.inference.ssm_inference import TruncatedBallInference, padded_ball_marginal
from repro.models import (
    coloring_model,
    hardcore_model,
    ising_model,
    matching_model,
    two_spin_model,
)
from repro.runtime import (
    ChainBatch,
    InstanceSpec,
    Runtime,
    chain_seed_sequences,
    resolve_runtime,
    stream_ball_marginal_tasks,
    stream_padded_ball_marginals,
)
from repro.runtime.chains import ChainUniforms
from repro.runtime.shards import (
    SPEC_CACHE_LIMIT,
    TASK_REGISTRY,
    ForkedWorkers,
    _chunk_target,
    _chunk_tasks,
    cache_spec,
    spec_for,
)
from repro.sampling import registered_kernels
from repro.sampling.glauber import glauber_sample, luby_glauber_sample
from repro.sampling.kernels import RNG_CHUNK


def _instances():
    return [
        ("hardcore-cycle", SamplingInstance(hardcore_model(cycle_graph(8), 1.3), {0: 1})),
        ("coloring-cycle", SamplingInstance(coloring_model(cycle_graph(6), 3), {0: 2})),
        (
            "two-spin-path",
            SamplingInstance(two_spin_model(path_graph(7), beta=0.5, gamma=1.6, field=1.1)),
        ),
        ("matching-grid", SamplingInstance(matching_model(grid_graph(3, 3), 1.4))),
    ]


#: The repository root (subprocess tests run with ``PYTHONPATH=src`` here).
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTANCES = _instances()
INSTANCE_IDS = [label for label, _ in INSTANCES]

#: The batched backend: one code-matrix block per call, in-process.
BATCHED = Runtime("batched")


@pytest.mark.parametrize(("label", "instance"), INSTANCES, ids=INSTANCE_IDS)
class TestBatchedChainDeterminism:
    """Chain c of a batch equals the serial chain run with seed seeds[c]."""

    def test_glauber_bit_identical(self, label, instance):
        seeds = chain_seed_sequences(7, 5)
        serial = [glauber_sample(instance, 137, seed=seed) for seed in seeds]
        batched = BATCHED.run_chains("glauber", instance, 137, seeds=seeds)
        assert batched == serial

    def test_luby_glauber_bit_identical(self, label, instance):
        seeds = chain_seed_sequences(11, 5)
        serial = [luby_glauber_sample(instance, 23, seed=seed) for seed in seeds]
        batched = BATCHED.run_chains("luby-glauber", instance, 23, seeds=seeds)
        assert batched == serial

    def test_integer_seeds_match_serial(self, label, instance):
        # E12 seeds its serial chains with plain integers; explicit seeds
        # reproduce that exactly.
        serial = [luby_glauber_sample(instance, 12, seed=seed) for seed in range(4)]
        batched = BATCHED.run_chains("luby-glauber", instance, 12, seeds=range(4))
        assert batched == serial


class TestBatchedChainEdges:
    def test_rng_chunk_boundary_is_respected(self):
        instance = SamplingInstance(hardcore_model(path_graph(5), 1.0))
        seeds = chain_seed_sequences(0, 3)
        steps = RNG_CHUNK + 37
        serial = [glauber_sample(instance, steps, seed=seed) for seed in seeds]
        assert BATCHED.run_chains("glauber", instance, steps, seeds=seeds) == serial

    def test_fused_pack_crosses_the_rng_chunk_like_serial(self):
        # Pinned nodes leave gaps in each group's free columns, and the two
        # groups differ in size and free count: the shared chunk loop must
        # replay every chain's serial draws through its own free lookup.
        from repro.runtime import PackedBatch
        from repro.sampling.glauber import GLAUBER_KERNEL

        instances = [
            SamplingInstance(hardcore_model(path_graph(5), 1.0), {2: 0}),
            SamplingInstance(hardcore_model(cycle_graph(6), 1.3), {1: 1}),
        ]
        seeds = [chain_seed_sequences(root, 3) for root in (4, 5)]
        requests = list(zip(instances, seeds))
        assert GLAUBER_KERNEL.fuses(PackedBatch(requests))
        steps = RNG_CHUNK + 37
        packed = BATCHED.run_packed("glauber", requests, steps)
        for group, (instance, group_seeds) in enumerate(requests):
            serial = [glauber_sample(instance, steps, seed=seed) for seed in group_seeds]
            assert packed[group] == serial, f"group {group}"

    def test_spawned_seed_convention(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))

        def advanced(**seeding):
            batch = ChainBatch(instance, **seeding)
            batch.advance("glauber", 50)
            return batch.configurations()

        from_root = advanced(n_chains=4, seed=9)
        explicit = advanced(seeds=chain_seed_sequences(9, 4))
        assert from_root == explicit

    def test_zero_steps_returns_initial(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        initial = glauber_sample(instance, 0, seed=0)
        batch = Runtime("batched", n_chains=3).run_chains(
            "glauber", instance, 0, seed=1, initial=initial
        )
        assert batch == [initial] * 3

    def test_chain_count_validation(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        with pytest.raises(ValueError):
            ChainBatch(instance, seeds=[])
        with pytest.raises(ValueError):
            ChainBatch(instance, n_chains=2, seeds=[1, 2, 3])
        with pytest.raises(ValueError):
            ChainBatch(instance)

    def test_fully_pinned_instance_is_constant(self):
        distribution = hardcore_model(path_graph(3), 1.0)
        instance = SamplingInstance(distribution, {0: 0, 1: 1, 2: 0})
        batch = ChainBatch(instance, n_chains=2, seed=0)
        batch.advance("glauber", 10)
        assert batch.configurations() == [{0: 0, 1: 1, 2: 0}] * 2

    def test_chain_kinds_cannot_be_mixed_on_one_batch(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        batch = ChainBatch(instance, n_chains=2, seed=0)
        batch.advance("luby-glauber", 3)
        with pytest.raises(RuntimeError):
            batch.advance("glauber", 3)
        other = ChainBatch(instance, n_chains=2, seed=0)
        other.advance("glauber", 3)
        with pytest.raises(RuntimeError):
            other.advance("luby-glauber", 3)

    def test_luby_trace_shape(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0))
        batch = ChainBatch(instance, n_chains=6, seed=2)
        traces = batch.advance(
            "luby-glauber", 15, statistic=lambda codes: codes.mean(axis=1)
        )
        assert traces.shape == (6, 15)
        assert np.all(traces >= 0.0) and np.all(traces <= 1.0)


def _take_mix(uniforms, rng, consumed, takes):
    """Seeded equal and ragged takes; appends each row's values to ``consumed``."""
    chains = len(consumed)
    for _ in range(takes):
        rounds = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            count = int(rng.integers(0, 30))
            block = uniforms.take(count, rounds)
            assert block.shape == (chains, count)
            for row in range(chains):
                consumed[row].extend(block[row].tolist())
        else:
            counts = rng.integers(0, 25, size=chains)
            counts[rng.random(chains) < 0.3] = 0  # rows that take nothing
            flat = uniforms.take_ragged(counts, rounds)
            assert flat.shape == (int(counts.sum()),)
            for row, part in enumerate(np.split(flat, np.cumsum(counts)[:-1])):
                consumed[row].extend(part.tolist())
        assert np.all(uniforms.cursor <= uniforms.end)
        assert np.all(uniforms.end <= uniforms.values.shape[1])


class TestChainUniforms:
    """The one-buffer uniform stream: every row stays a prefix of its own
    generator's ``random`` stream, whatever the mix of takes and refills."""

    @staticmethod
    def _assert_prefixes(consumed, seeds):
        for row, seed in enumerate(seeds):
            expected = np.random.default_rng(seed).random(len(consumed[row]))
            assert np.array_equal(np.array(consumed[row]), expected), f"row {row}"

    @pytest.mark.parametrize("chains", [1, 2, 7])
    @pytest.mark.parametrize("trial", range(3))
    def test_mixed_takes_are_prefixes_of_each_generator(self, chains, trial):
        rng = np.random.default_rng(4200 + 10 * chains + trial)
        seeds = [int(seed) for seed in rng.integers(0, 2**31, size=chains)]
        uniforms = ChainUniforms([np.random.default_rng(seed) for seed in seeds])
        consumed = [[] for _ in range(chains)]
        _take_mix(uniforms, rng, consumed, 15)
        # A take wider than the whole buffer grows it.
        wide = uniforms.values.shape[1] + 9
        block = uniforms.take(wide)
        assert uniforms.values.shape[1] >= wide
        for row in range(chains):
            consumed[row].extend(block[row].tolist())
        _take_mix(uniforms, rng, consumed, 5)
        self._assert_prefixes(consumed, seeds)

    def test_only_short_rows_refill_and_draw_what_rounds_need(self):
        seeds = [3, 4, 5]
        uniforms = ChainUniforms([np.random.default_rng(seed) for seed in seeds])
        uniforms.take(10, rounds=4)
        assert uniforms.end.tolist() == [40, 40, 40]
        uniforms.take_ragged(np.array([30, 0, 25]))
        assert (uniforms.end - uniforms.cursor).tolist() == [0, 30, 5]
        uniforms.take_ragged(np.array([0, 12, 6]), rounds=2)
        # Row 2 was short: it keeps its 5 unread doubles and draws 2 * 6
        # more; the other rows were not touched.
        assert uniforms.end.tolist() == [40, 40, 17]
        assert uniforms.cursor.tolist() == [40, 22, 6]

    def test_refills_are_capped_at_one_rng_chunk(self):
        uniforms = ChainUniforms([np.random.default_rng(seed) for seed in (1, 2)])
        uniforms.take(10, rounds=10**9)
        assert uniforms.end.tolist() == [RNG_CHUNK] * 2
        # Unless one take needs more: it gets exactly what it needs.
        uniforms.take(2 * RNG_CHUNK, rounds=3)
        assert uniforms.end.tolist() == [RNG_CHUNK - 10 + 2 * RNG_CHUNK] * 2
        assert uniforms.values.shape[1] == 3 * RNG_CHUNK - 10

    def test_retargeted_twin_continues_the_same_buffer(self):
        graph = cycle_graph(8)
        cold = SamplingInstance(hardcore_model(graph, 1.2), {0: 1})
        hot = SamplingInstance(hardcore_model(graph, 2.0), {0: 1})
        seeds = chain_seed_sequences(17, 3)
        batch = ChainBatch(cold, seeds=seeds)
        rng = np.random.default_rng(5)
        consumed = [[] for _ in seeds]
        _take_mix(batch.uniforms(), rng, consumed, 6)
        twin = batch.retarget(hot)
        assert twin.uniforms() is batch.uniforms()
        _take_mix(twin.uniforms(), rng, consumed, 6)
        self._assert_prefixes(consumed, seeds)

    def test_retarget_seeds_no_generator(self, monkeypatch):
        from repro.runtime import chains

        graph = cycle_graph(8)
        cold = SamplingInstance(hardcore_model(graph, 1.2), {0: 1})
        hot = SamplingInstance(hardcore_model(graph, 2.0), {0: 1})
        batch = ChainBatch(cold, seeds=chain_seed_sequences(17, 3))
        batch.advance("glauber", 10)
        calls = []
        original = chains.chain_generators
        monkeypatch.setattr(
            chains, "chain_generators", lambda seeds: calls.append(seeds) or original(seeds)
        )
        twin = batch.retarget(hot)
        assert calls == []
        # The twin adopts the generators and starts from a copy of the codes.
        assert twin.rngs is batch.rngs and twin.compiled is not batch.compiled
        assert np.array_equal(twin.codes, batch.codes) and twin.codes is not batch.codes


class TestPickling:
    """CompiledGibbs (and the spec built on it) round-trip through pickle."""

    def test_compiled_gibbs_roundtrip(self):
        distribution = coloring_model(cycle_graph(6), 3)
        compiled = distribution.compiled_engine()
        _ = compiled.conditionals  # populate derived state before pickling
        _ = compiled.batched_tables
        compiled.marginal(1, {0: 2})  # populate the memo caches too
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._batched_tables is None
        assert clone.nodes == compiled.nodes
        assert clone.alphabet == compiled.alphabet
        assert clone.scopes == compiled.scopes
        assert clone.partition_function({}) == compiled.partition_function({})
        assert clone.marginal(1, {0: 2}) == compiled.marginal(1, {0: 2})
        # Derived caches are rebuilt, not shipped.
        assert clone._marginal_memo is not compiled._marginal_memo
        for variable in range(len(clone.nodes)):
            assert (
                clone.conditionals.tables[variable]
                == compiled.conditionals.tables[variable]
            )
        assert clone.batched_tables.rows.tobytes() == compiled.batched_tables.rows.tobytes()

    def test_compiled_ball_roundtrip(self):
        distribution = hardcore_model(random_tree(14, seed=4), 1.2)
        ball = distribution.ball_cache().compiled_ball(0, 2)
        clone = pickle.loads(pickle.dumps(ball))
        assert clone.nodes == ball.nodes
        assert clone.marginal(0, {}) == ball.marginal(0, {})

    def test_instance_spec_roundtrip(self):
        instance = SamplingInstance(hardcore_model(random_tree(14, seed=4), 1.2), {0: 0})
        spec = pickle.loads(pickle.dumps(InstanceSpec.from_instance(instance)))
        node = instance.free_nodes[3]
        assert padded_ball_marginal(spec.to_instance(), node, 2) == (
            padded_ball_marginal(instance, node, 2)
        )


class TestSpecEquivalence:
    """The worker-side spec replays the serial per-node computation exactly."""

    def test_padded_ball_marginals_match_serial(self):
        for distribution, pinning in [
            (hardcore_model(random_tree(18, seed=2), 1.1), {0: 0}),
            (coloring_model(cycle_graph(9), 3), {0: 1}),
        ]:
            instance = SamplingInstance(distribution, pinning)
            spec = InstanceSpec.from_instance(instance)
            for radius in (0, 1, 2):
                for node in instance.free_nodes:
                    assert padded_ball_marginal(
                        spec.to_instance(), node, radius
                    ) == padded_ball_marginal(instance, node, radius)

    def test_compile_ball_matches_cache(self):
        distribution = hardcore_model(random_tree(12, seed=6), 1.5)
        instance = SamplingInstance(distribution)
        spec = InstanceSpec.from_instance(instance)
        cached = distribution.ball_cache().compiled_ball(3, 2)
        built = spec.to_instance().distribution.ball_cache().compiled_ball(3, 2)
        assert built.nodes == cached.nodes
        assert built.scopes == cached.scopes
        assert all(
            np.array_equal(a, b) for a, b in zip(built.arrays, cached.arrays)
        )


class TestSpecIdentity:
    """``spec_for``: one spec id per instance and compiled engine."""

    def test_one_id_per_instance_and_a_new_one_after_update_factors(self):
        distribution = hardcore_model(cycle_graph(8), 1.0)
        instance = SamplingInstance(distribution, {0: 0})
        spec_id, spec = spec_for(instance)
        assert spec_for(instance) == (spec_id, spec)
        other_id, _ = spec_for(SamplingInstance(distribution, {0: 0}))
        assert other_id != spec_id  # identity is per instance, never hashed
        distribution.update_factors(hardcore_model(cycle_graph(8), 5.0).factors)
        new_id, new_spec = spec_for(instance)
        assert new_id not in (spec_id, other_id)
        arrays = distribution.compiled_engine().arrays
        assert all(np.array_equal(a, b) for a, b in zip(new_spec.arrays, arrays))
        assert spec_for(instance) == (new_id, new_spec)

    def test_cache_spec_evicts_oldest_first(self):
        from collections import OrderedDict

        cache = OrderedDict()
        for spec_id in range(SPEC_CACHE_LIMIT):
            cache_spec(cache, spec_id, f"spec-{spec_id}")
        assert list(cache) == list(range(SPEC_CACHE_LIMIT))
        cache_spec(cache, 99, "spec-99")
        assert list(cache) == list(range(1, SPEC_CACHE_LIMIT)) + [99]

    def test_cache_spec_moves_a_reinserted_id_to_the_newest_place(self):
        from collections import OrderedDict

        cache = OrderedDict()
        for spec_id in range(SPEC_CACHE_LIMIT):
            cache_spec(cache, spec_id, f"spec-{spec_id}")
        # A spec shipped again replaces its entry and becomes the newest:
        # worker and mirror agree.
        cache_spec(cache, 0, "again")
        assert list(cache) == list(range(1, SPEC_CACHE_LIMIT)) + [0]
        assert cache[0] == "again"
        cache_spec(cache, 99, "spec-99")
        assert list(cache) == list(range(2, SPEC_CACHE_LIMIT)) + [0, 99]



def _reweighted_instance():
    distribution = hardcore_model(cycle_graph(9), 1.0)
    instance = SamplingInstance(distribution, {0: 1})
    spec_for(instance)  # the pre-reweight spec, superseded below
    distribution.update_factors(hardcore_model(cycle_graph(9), 3.5).factors)
    return instance


#: Instances whose spec crosses to a worker by pickle: the four families
#: above, a hub blanket over ``BLANKET_MAX_ROWS`` (no blanket tables), a
#: fully pinned instance and a distribution reweighted in place.
WIRE_INSTANCES = dict(_instances()) | {
    "coloring-star": SamplingInstance(coloring_model(star_graph(8), 3)),
    "fully-pinned": SamplingInstance(
        hardcore_model(path_graph(4), 1.0), {0: 0, 1: 1, 2: 0, 3: 1}
    ),
    "reweighted": _reweighted_instance(),
}


@pytest.mark.parametrize("label", sorted(WIRE_INSTANCES))
class TestSpecPickleWire:
    """Pickle is the one spec wire: a worker's spec is the unpickled copy
    of :func:`spec_for`'s, and it replays the parent's results exactly."""

    @staticmethod
    def _shipped(label):
        instance = WIRE_INSTANCES[label]
        _, spec = spec_for(instance)
        return instance, spec, pickle.loads(pickle.dumps(spec))

    def test_unpickled_spec_keeps_every_array_and_field(self, label):
        instance, spec, clone = self._shipped(label)
        for slot in ("nodes", "alphabet", "scopes", "adjacency", "pinning", "locality"):
            assert getattr(clone, slot) == getattr(spec, slot), slot
        assert len(clone.arrays) == len(spec.arrays)
        for shipped, original in zip(clone.arrays, spec.arrays):
            assert shipped.dtype == original.dtype
            assert shipped.shape == original.shape
            assert shipped.tobytes() == original.tobytes()
        arrays = instance.distribution.compiled_engine().arrays
        assert all(np.array_equal(a, b) for a, b in zip(clone.arrays, arrays))

    def test_unpickled_spec_replays_marginals_and_chain_blocks(self, label):
        from repro.runtime.shards import _chain_block_task

        instance, spec, clone = self._shipped(label)
        rebuilt = clone.to_instance()
        for node in instance.free_nodes:
            assert padded_ball_marginal(rebuilt, node, 1) == (
                padded_ball_marginal(instance, node, 1)
            )
        seeds = chain_seed_sequences(3, 3)
        payload = {"kernel": "glauber", "count": 20, "seeds": seeds, "initial": None}
        codes = _chain_block_task(payload, spec=clone)
        assert codes.tobytes() == _chain_block_task(payload, spec=spec).tobytes()


def _assert_parent_cold(distribution):
    """The parent's ball cache after a stream: nothing compiled, nothing kept."""
    cache = distribution.ball_cache()
    assert cache.stats()["compiles"] == 0 and cache.stats()["size"] == 0
    assert not cache.extras


class TestColdParentCache:
    """A streamed run equals the serial loop and leaves the parent cache cold."""

    MODELS = {
        "hardcore-tree": lambda: SamplingInstance(
            hardcore_model(random_tree(13, seed=7), 1.1), {0: 0, 5: 1}
        ),
        "coloring-cycle": lambda: SamplingInstance(
            coloring_model(cycle_graph(9), 3), {0: 1, 4: 2}
        ),
        "ising": lambda: SamplingInstance(
            ising_model(random_tree(10, seed=11), 0.4, 0.2)
        ),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_stream_matches_serial_and_leaves_the_parent_cold(self, model, n_workers):
        serial_instance = self.MODELS[model]()
        tasks = [
            (node, radius)
            for radius in (0, 1, 2)
            for node in serial_instance.free_nodes
        ]
        serial = {task: padded_ball_marginal(serial_instance, *task) for task in tasks}

        instance = self.MODELS[model]()
        pool = ForkedWorkers(n_workers)
        try:
            streamed = dict(stream_ball_marginal_tasks(instance, tasks, transport=pool))
        finally:
            pool.shutdown()
        assert streamed == serial
        _assert_parent_cold(instance.distribution)
        rebuilt = InstanceSpec.from_instance(instance).to_instance()
        assert rebuilt.distribution.locality() == instance.distribution.locality()


class TestRuntimeFacade:
    def test_resolve_defaults_to_serial(self):
        assert resolve_runtime(None).is_serial
        assert resolve_runtime("batched").is_batched
        runtime = Runtime("process", n_workers=2)
        assert resolve_runtime(runtime) is runtime

    def test_invalid_backends_rejected(self):
        with pytest.raises(ValueError):
            resolve_runtime("quantum")
        with pytest.raises(ValueError):
            Runtime(n_chains=0)
        with pytest.raises(ValueError):
            resolve_runtime(3.14)

    def test_serial_and_batched_runtimes_agree(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0))
        serial = Runtime("serial", n_chains=3).run_chains("glauber", instance, 60, seed=5)
        batched = Runtime("batched", n_chains=3).run_chains(
            "glauber", instance, 60, seed=5
        )
        assert serial == batched

    def test_sampler_runtime_parameter(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0))
        single = glauber_sample(instance, 40, seed=3)
        batch = glauber_sample(
            instance, 40, seed=3, runtime=Runtime("batched", n_chains=2)
        )
        assert isinstance(batch, list) and len(batch) == 2
        assert batch[0] == glauber_sample(
            instance, 40, seed=chain_seed_sequences(3, 2)[0]
        )
        # runtime=None keeps the historical single-configuration contract.
        assert isinstance(single, dict)
        parallel = luby_glauber_sample(instance, 10, seed=3, runtime="batched")
        assert isinstance(parallel, list) and len(parallel) == 1

    def test_no_closure_fan_out(self):
        # Independent LOCAL rows and runs are plain loops: no facade map, no
        # fork-per-call pool, and no runtime= knob on drivers that only fed it.
        import inspect

        from repro.experiments import (
            e04_jvv,
            e06_hardcore_rounds,
            e07_matching_rounds,
            e08_phase_transition,
        )
        from repro.localmodel import run_local_algorithm
        from repro.runtime import shards

        assert not hasattr(Runtime, "map")
        assert not hasattr(shards, "process_map")
        for driver in (
            e04_jvv.run_exactness,
            e04_jvv.run_failure_scaling,
            e06_hardcore_rounds.run,
            e07_matching_rounds.run,
            e08_phase_transition.run,
            run_local_algorithm,
        ):
            assert "runtime" not in inspect.signature(driver).parameters, driver
        assert "runtime" in inspect.signature(e04_jvv.run_rejection_kernel).parameters

    def test_package_creates_no_multiprocessing_pool(self):
        # The process backend runs forked cluster workers; nothing in the
        # package may bring back a fork-per-call pool or its plumbing, nor
        # import multiprocessing at all.
        import pathlib
        import re

        import repro

        banned = re.compile(
            r"get_context|\.Pool\(|process_map|_FORK_TASK|ProcessPool|ForkPool"
            r"|^\s*(?:import|from)\s+multiprocessing"
        )
        root = pathlib.Path(repro.__file__).parent
        hits = [
            f"{path.relative_to(root)}:{number}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)
        ]
        assert hits == []



class TestDeprecatedTransportShim:
    """``transport=`` is validated as before and selects nothing; what is
    left of :mod:`repro.runtime.shm` is a scan of ``/dev/shm``."""

    @pytest.mark.parametrize(
        ("backend", "transport"),
        [
            ("serial", "pickle"),
            ("batched", "pickle"),
            ("process", "pickle"),
            ("process", "shm"),
        ],
    )
    def test_an_accepted_transport_builds_the_default_runtime(self, backend, transport):
        runtime = Runtime(backend, n_chains=3, n_workers=2, transport=transport)
        default = Runtime(backend, n_chains=3, n_workers=2)
        try:
            assert not hasattr(runtime, "transport")
            assert runtime.snapshot() == default.snapshot()
            assert "transport" not in runtime.snapshot()
        finally:
            runtime.shutdown()
            default.shutdown()

    @pytest.mark.parametrize(
        ("backend", "transport", "message"),
        [
            ("process", "tcp", "unknown transport"),
            ("process", "SHM", "unknown transport"),
            ("serial", "shm", "process backend only"),
            ("batched", "shm", "process backend only"),
            ("cluster", "shm", "process backend only"),
        ],
    )
    def test_a_rejected_transport_raises(self, backend, transport, message):
        with pytest.raises(ValueError, match=message):
            Runtime(backend, transport=transport)

    @staticmethod
    def _scan(monkeypatch, entries):
        from repro.runtime import shm

        def listdir(path):
            assert path == "/dev/shm"
            if entries is None:
                raise PermissionError(path)
            return list(entries)

        monkeypatch.setattr(shm.os, "listdir", listdir)
        return shm

    def test_the_scan_keeps_only_prefixed_entries_sorted(self, monkeypatch):
        shm = self._scan(
            monkeypatch,
            ["repro-shm-9-b", "sem.other", "repro-shm-7-a", "psm_repro-shm-1-x"],
        )
        assert shm.leaked_dev_shm_segments() == ["repro-shm-7-a", "repro-shm-9-b"]

    def test_live_names_are_the_scanned_entries_of_this_pid(self, monkeypatch):
        pid = os.getpid()
        own = [f"repro-shm-{pid}-a", f"repro-shm-{pid}-b"]
        shm = self._scan(
            monkeypatch,
            own + [f"repro-shm-{pid}0-c", f"repro-shm-{pid + 1}-d", f"other-{pid}-e"],
        )
        assert shm.live_segment_names() == own
        assert set(own) < set(shm.leaked_dev_shm_segments())

    def test_an_unreadable_dev_shm_scans_empty(self, monkeypatch):
        shm = self._scan(monkeypatch, None)
        assert shm.leaked_dev_shm_segments() == []
        assert shm.live_segment_names() == []

    def test_the_module_is_the_scan_and_nothing_else(self):
        from repro.runtime import shm

        assert shm.__all__ == [
            "SEGMENT_PREFIX",
            "leaked_dev_shm_segments",
            "live_segment_names",
        ]
        public = {name for name in vars(shm) if not name.startswith("_")}
        assert public - {"annotations", "os", "List"} == set(shm.__all__)


class TestE12Diagnostics:
    def test_batched_e12_matches_serial_and_reports_mixing(self):
        from repro.experiments import e12_baselines

        serial = e12_baselines.run(cycle_size=5, samples=30, glauber_rounds=(6,))
        batched = e12_baselines.run(
            cycle_size=5, samples=30, glauber_rounds=(6,), runtime="batched"
        )
        assert batched[0]["tv_to_target"] == serial[0]["tv_to_target"]
        assert "split_r_hat" in batched[0] and "ess" in batched[0]
        assert isinstance(batched[0]["mixed"], bool)


class TestStreamingMerge:
    """Out-of-order shard payloads merge into the serial marginals."""

    def _chunk_payloads(self, spec, radius):
        nodes = spec.to_instance().free_nodes
        tasks = [(center, radius) for center in nodes]
        chunks = _chunk_tasks(tasks, 8, chunk_size=2)
        return chunks, [
            TASK_REGISTRY["ball_marginals"]({"tasks": chunk}, spec) for chunk in chunks
        ]

    def test_out_of_order_chunks_merge_to_serial(self):
        distribution = coloring_model(cycle_graph(9), 3)
        instance = SamplingInstance(distribution, {0: 1})
        _, payloads = self._chunk_payloads(InstanceSpec.from_instance(instance), 2)
        merged = {}
        # Merge shards in reversed completion order -- the merge must be
        # order-independent because worker results are equal by construction.
        for marginals in reversed(payloads):
            for (center, _), marginal in marginals.items():
                merged[center] = marginal
        _assert_parent_cold(distribution)
        serial = {
            node: padded_ball_marginal(instance, node, 2)
            for node in instance.free_nodes
        }
        assert merged == serial

    def test_chunks_return_marginals_and_keep_balls_in_the_worker(self):
        distribution = hardcore_model(cycle_graph(10), 1.2)
        instance = SamplingInstance(distribution, {0: 0})
        spec = InstanceSpec.from_instance(instance)
        chunks, payloads = self._chunk_payloads(spec, 2)
        for chunk, marginals in zip(chunks, payloads):
            # Marginals only: one plain dict per chunk, keyed by its tasks.
            assert type(marginals) is dict and list(marginals) == chunk
            assert all(set(m) == set(distribution.alphabet) for m in marginals.values())
        # The padded balls stay warm in the worker's reconstruction.
        worker_cache = spec.to_instance().distribution.ball_cache()
        locality = distribution.locality()
        padded = {(node, 2 + locality) for node in instance.free_nodes}
        assert padded <= set(worker_cache._compiled)
        compiles = worker_cache.stats()["compiles"]
        self._chunk_payloads(spec, 2)
        assert worker_cache.stats()["compiles"] == compiles
        _assert_parent_cold(distribution)

    def test_mixed_radius_stream_is_keyed_by_center_and_radius(self):
        distribution = ising_model(cycle_graph(8), 0.4, 0.1)
        instance = SamplingInstance(distribution, {3: 1})
        tasks = [(node, radius) for radius in (1, 2) for node in instance.free_nodes]
        pool = ForkedWorkers(1)
        try:
            streamed = dict(
                stream_ball_marginal_tasks(instance, tasks, chunk_size=3, transport=pool)
            )
        finally:
            pool.shutdown()
        _assert_parent_cold(distribution)
        # One marginal per (center, radius): radii of one center never collide.
        assert set(streamed) == set(tasks)
        assert streamed == {key: padded_ball_marginal(instance, *key) for key in tasks}

    def test_no_adoption_surface_remains(self):
        # Streams return marginals only, so nothing parent-side adopts,
        # exports or caps ball artefacts any more.
        import repro.runtime
        import repro.runtime.shards
        from repro.engine.cache import BallCache

        for name in ("adopt", "export"):
            assert not hasattr(BallCache, name)
        for name in ("export_marginal_memo", "absorb_marginal_memo"):
            assert not hasattr(CompiledGibbs, name)
        assert not hasattr(repro.runtime, "MEMO_DELTA_CAP")
        assert not hasattr(repro.runtime.shards, "MEMO_DELTA_CAP")
        cache = hardcore_model(cycle_graph(6), 1.0).ball_cache()
        assert "adoptions" not in cache.stats()

    def test_stream_single_worker_runs_in_process(self):
        distribution = hardcore_model(random_tree(12, seed=3), 1.1)
        instance = SamplingInstance(distribution, {0: 0})
        pool = ForkedWorkers(1)
        try:
            streamed = dict(
                stream_padded_ball_marginals(
                    instance, instance.free_nodes, 2, transport=pool
                )
            )
            # A one-worker set runs the stream here and never forks.
            assert pool.pids == ()
        finally:
            pool.shutdown()
        _assert_parent_cold(distribution)
        serial = {
            node: padded_ball_marginal(instance, node, 2)
            for node in instance.free_nodes
        }
        assert streamed == serial

    def test_stream_empty_tasks(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        pool = ForkedWorkers(2)
        try:
            assert list(stream_ball_marginal_tasks(instance, [], transport=pool)) == []
        finally:
            pool.shutdown()

    def test_failed_task_raises_in_process_path(self):
        # The in-process fallback honours the same clean-error contract as
        # the worker-pool path: a RuntimeError naming the chunk.
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        pool = ForkedWorkers(1)
        try:
            with pytest.raises(RuntimeError, match="ball shard failed"):
                list(
                    stream_ball_marginal_tasks(
                        instance, [("no-such-node", 1)], transport=pool
                    )
                )
        finally:
            pool.shutdown()

    def test_chunking_defaults(self):
        tasks = list(range(17))
        chunks = _chunk_tasks(tasks, _chunk_target(ForkedWorkers(2)))
        assert [task for chunk in chunks for task in chunk] == tasks
        assert max(len(chunk) for chunk in chunks) <= 3
        assert _chunk_tasks([], 2) == []
        with pytest.raises(ValueError):
            _chunk_tasks(tasks, 2, chunk_size=0)

    def test_chunk_targets_per_transport(self):
        class Fleet:
            def __init__(self, live_worker_count):
                self.live_worker_count = live_worker_count

        # One rule for every transport: min(4w, max(2w, 8)) chunks, which
        # is the old pool's 4w up to two workers.  Forked workers count by
        # their width before they fork.
        for fleet in (ForkedWorkers, Fleet):
            assert [_chunk_target(fleet(w)) for w in (1, 2, 4, 8)] == [4, 8, 8, 16]


class TestRuntimeStreamingFacade:
    """submit and the ball stream conform on the serial backend."""

    def test_serial_submit_returns_resolved_future(self):
        runtime = Runtime()
        future = runtime.submit(lambda a, b: a + b, 2, b=3)
        assert future.done() and future.result() == 5

    def test_serial_submit_captures_exceptions(self):
        future = Runtime().submit(lambda: 1 / 0)
        assert isinstance(future.exception(), ZeroDivisionError)

    def test_shutdown_takes_no_wait_argument(self):
        import inspect

        assert list(inspect.signature(Runtime.shutdown).parameters) == ["self"]
        runtime = Runtime("process", n_workers=2)
        with pytest.raises(TypeError):
            runtime.shutdown(wait=False)
        runtime.shutdown()

    def test_stream_ball_marginals_serial_backend(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0), {0: 0})
        streamed = dict(Runtime().stream_ball_marginals(instance, instance.free_nodes, 1))
        assert streamed == Runtime().ball_marginals(instance, instance.free_nodes, 1)


@pytest.mark.slow
class TestProcessPool:
    """Two-worker process-pool smoke tests (the sharding transport)."""

    @pytest.fixture
    def pool(self):
        pool = ForkedWorkers(2)
        yield pool
        pool.shutdown()

    def test_stream_padded_ball_marginals_matches_serial(self, pool):
        distribution = coloring_model(cycle_graph(10), 3)
        instance = SamplingInstance(distribution, {0: 1})
        sharded = dict(
            stream_padded_ball_marginals(instance, instance.free_nodes, 2, transport=pool)
        )
        # The workers kept their compilations; the parent received marginals.
        _assert_parent_cold(distribution)
        serial = {
            node: padded_ball_marginal(instance, node, 2)
            for node in instance.free_nodes
        }
        assert sharded == serial

    def test_truncated_ball_inference_process_runtime(self):
        distribution = hardcore_model(random_tree(15, seed=8), 1.3)
        instance = SamplingInstance(distribution, {0: 0})
        serial_engine = TruncatedBallInference(radius=2)
        process_engine = TruncatedBallInference(
            radius=2, runtime=Runtime("process", n_workers=2)
        )
        assert process_engine.marginals(instance, 0.05) == serial_engine.marginals(
            instance, 0.05
        )

    def test_dict_engine_request_is_honoured_under_process_runtime(self):
        # The shard transport is compiled-only; an explicit engine="dict"
        # must keep the serial reference loop rather than being silently
        # rerouted to the compiled engine.
        distribution = hardcore_model(cycle_graph(7), 1.1)
        instance = SamplingInstance(distribution, {0: 0})
        reference = TruncatedBallInference(radius=1, engine="dict")
        process_reference = TruncatedBallInference(
            radius=1, engine="dict", runtime=Runtime("process", n_workers=2)
        )
        assert process_reference.marginals(instance, 0.05) == reference.marginals(
            instance, 0.05
        )

    def test_process_runtime_chain_sampling_matches_serial(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0))
        serial = Runtime("serial", n_chains=3).run_chains(
            "luby-glauber", instance, 10, seed=4
        )
        process = Runtime("process", n_chains=3, n_workers=2).run_chains(
            "luby-glauber", instance, 10, seed=4
        )
        assert process == serial

    def test_sharding_leaves_the_parent_cache_cold(self, pool):
        # Workers compile padded and context balls (radius + locality and
        # radius + 2*locality) and the greedy extensions; none of them comes
        # back to the parent.
        distribution = hardcore_model(cycle_graph(10), 1.0)
        instance = SamplingInstance(distribution)
        streamed = dict(
            stream_padded_ball_marginals(instance, instance.free_nodes, 2, transport=pool)
        )
        _assert_parent_cold(distribution)
        local = SamplingInstance(hardcore_model(cycle_graph(10), 1.0))
        assert streamed == {
            node: padded_ball_marginal(local, node, 2) for node in local.free_nodes
        }

    def test_stream_yields_incrementally_and_matches_serial(self, pool):
        local = SamplingInstance(coloring_model(cycle_graph(10), 3), {0: 1})
        serial = {node: padded_ball_marginal(local, node, 2) for node in local.free_nodes}
        distribution = coloring_model(cycle_graph(10), 3)
        instance = SamplingInstance(distribution, {0: 1})
        streamed = {}
        stream = stream_padded_ball_marginals(
            instance, instance.free_nodes, 2, chunk_size=2, transport=pool
        )
        first = next(stream)
        # The first shard arrives before the stream is drained, and the
        # parent has compiled nothing for it.
        _assert_parent_cold(distribution)
        streamed[first[0]] = first[1]
        streamed.update(stream)
        assert len(streamed) == len(serial) > 1
        assert streamed == serial

    def test_streamed_marginals_leave_the_parent_cold(self, pool):
        distribution = hardcore_model(random_tree(14, seed=5), 1.2)
        instance = SamplingInstance(distribution, {0: 0})
        streamed = dict(
            stream_padded_ball_marginals(
                instance, instance.free_nodes, 2, transport=pool
            )
        )
        _assert_parent_cold(distribution)
        local = SamplingInstance(hardcore_model(random_tree(14, seed=5), 1.2), {0: 0})
        assert streamed == {
            node: padded_ball_marginal(local, node, 2) for node in local.free_nodes
        }

    def test_failed_shard_surfaces_clean_error(self, pool):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0))
        tasks = [(node, 1) for node in (0, 1)] + [("no-such-node", 1), (2, 1)]
        with pytest.raises(RuntimeError, match="ball shard failed"):
            list(
                stream_ball_marginal_tasks(
                    instance, tasks, chunk_size=1, transport=pool
                )
            )

    def test_abandoning_the_stream_cancels_cleanly(self, pool):
        distribution = coloring_model(cycle_graph(12), 3)
        instance = SamplingInstance(distribution, {0: 1})
        stream = stream_padded_ball_marginals(
            instance, instance.free_nodes, 2, chunk_size=1, transport=pool
        )
        next(stream)
        stream.close()  # must not hang on the pending futures

    def test_submit_process_backend(self):
        import math

        with Runtime("process", n_workers=2) as runtime:
            assert runtime.submit(math.sqrt, 16.0).result() == 4.0
            failing = runtime.submit(math.sqrt, -1.0)
            assert failing.exception() is not None

    def test_submit_resolves_in_process_without_spawning(self):
        import multiprocessing

        before = {child.pid for child in multiprocessing.active_children()}
        with Runtime("process", n_workers=2) as runtime:
            future = runtime.submit(os.getpid)
            assert future.done()  # resolved on return, no pool behind it
            assert future.result() == os.getpid()
            after = {child.pid for child in multiprocessing.active_children()}
            assert after <= before

    def test_locality_required_overlapped_matches_serial(self):
        from repro.spatialmixing import locality_required

        distribution = hardcore_model(cycle_graph(12), fugacity=6.0)
        instance = SamplingInstance(distribution, {0: 1})
        serial = locality_required(instance, 6, error=0.05, max_radius=6)
        overlapped = locality_required(
            instance,
            6,
            error=0.05,
            max_radius=6,
            runtime=Runtime("process", n_workers=2),
        )
        assert overlapped == serial

    def test_marginals_stream_process_runtime(self):
        distribution = hardcore_model(random_tree(15, seed=8), 1.3)
        instance = SamplingInstance(distribution, {0: 0})
        engine = TruncatedBallInference(
            radius=2, runtime=Runtime("process", n_workers=2)
        )
        streamed = dict(engine.marginals_stream(instance, 0.05))
        assert streamed == TruncatedBallInference(radius=2).marginals(instance, 0.05)


def _worker_pids(runtime):
    """Pids of the process runtime's current forked workers."""
    return set(runtime._forked.pids)


@pytest.mark.slow
class TestPersistentForkPool:
    """One set of forked workers per process Runtime, reused by every call
    until shutdown; each worker connection receives a spec once."""

    @staticmethod
    def _instance(index):
        # A fresh distribution per call, so every call ships a fresh spec.
        return SamplingInstance(hardcore_model(cycle_graph(10), 1.0 + 0.05 * index), {0: 1})

    def test_ball_stream_then_chain_run_reuse_the_worker_pids(self):
        instance = self._instance(0)
        serial = Runtime().ball_marginals(instance, instance.free_nodes, 1)
        batched = Runtime("batched", n_chains=4).run_chains("glauber", instance, 30, seed=2)
        instance.distribution.ball_cache().clear()
        with Runtime("process", n_chains=4, n_workers=2, inline_threshold=0) as runtime:
            assert runtime._forked.pids == ()  # construction forks nothing
            streamed = runtime.stream_ball_marginals(instance, instance.free_nodes, 1)
            assert dict(streamed) == serial
            pids = _worker_pids(runtime)
            assert len(pids) == 2
            assert runtime.run_chains("glauber", instance, 30, seed=2) == batched
            assert _worker_pids(runtime) == pids

    def test_deprecated_shm_transport_is_inert(self):
        # transport="shm" is still accepted and validated, selects nothing,
        # and the /dev/shm leak check it pairs with stays empty.
        from repro.runtime import shm

        instance = self._instance(5)
        serial = Runtime().ball_marginals(instance, instance.free_nodes, 1)
        batched = Runtime("batched", n_chains=4).run_chains("glauber", instance, 30, seed=6)
        instance.distribution.ball_cache().clear()
        with Runtime(
            "process", n_chains=4, n_workers=2, transport="shm", inline_threshold=0
        ) as runtime:
            assert runtime.run_chains("glauber", instance, 30, seed=6) == batched
            assert dict(runtime.stream_ball_marginals(instance, instance.free_nodes, 1)) == serial
        assert shm.leaked_dev_shm_segments() == []
        assert shm.live_segment_names() == []
        with pytest.raises(ValueError, match="unknown transport"):
            Runtime("process", transport="tcp")
        with pytest.raises(ValueError, match="process backend only"):
            Runtime("batched", transport="shm")

    def test_fresh_specs_stay_bit_identical_and_bounded(self):
        batched = Runtime("batched", n_chains=4)
        with Runtime("process", n_chains=4, n_workers=2, inline_threshold=0) as runtime:
            for index in range(10):
                instance = self._instance(index)
                serial = Runtime().ball_marginals(instance, instance.free_nodes, 1)
                chains = batched.run_chains("glauber", instance, 25, seed=index)
                instance.distribution.ball_cache().clear()
                assert runtime.ball_marginals(instance, instance.free_nodes, 1) == serial
                assert runtime.run_chains("glauber", instance, 25, seed=index) == chains
            workers = runtime.snapshot()["cluster"]["workers"]
        assert [worker["specs_cached"] for worker in workers] == [SPEC_CACHE_LIMIT] * 2

    def test_run_chains_after_update_factors_equals_batched(self):
        distribution = hardcore_model(cycle_graph(30), 1.0)
        instance = SamplingInstance(distribution)
        batched = Runtime("batched", n_chains=16)
        with Runtime("process", n_chains=16, n_workers=2, inline_threshold=0) as runtime:
            before = runtime.run_chains("glauber", instance, 200, seed=3)
            assert before == batched.run_chains("glauber", instance, 200, seed=3)
            # Reweight in place: the next call must sample the new weights.
            distribution.update_factors(hardcore_model(cycle_graph(30), 40.0).factors)
            after = runtime.run_chains("glauber", instance, 200, seed=3)
        assert after == batched.run_chains("glauber", instance, 200, seed=3)
        assert after != before

    #: Each front end that ships the instance's spec, with its reference.
    CALLS = {
        "run_chains": (
            lambda runtime, instance: runtime.run_chains("glauber", instance, 25, seed=1),
            lambda instance: Runtime("batched", n_chains=4).run_chains(
                "glauber", instance, 25, seed=1
            ),
        ),
        "ball_marginals": (
            lambda runtime, instance: runtime.ball_marginals(
                instance, instance.free_nodes, 1
            ),
            lambda instance: Runtime().ball_marginals(instance, instance.free_nodes, 1),
        ),
        "stream_ball_marginals": (
            lambda runtime, instance: dict(
                runtime.stream_ball_marginals(instance, instance.free_nodes, 1)
            ),
            lambda instance: Runtime().ball_marginals(instance, instance.free_nodes, 1),
        ),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_repeated_calls_send_one_spec_frame_per_worker(self, call):
        from repro import obs

        run, reference = self.CALLS[call]
        instance = self._instance(6)
        expected = reference(instance)
        instance.distribution.ball_cache().clear()
        with Runtime(
            "process", n_chains=4, n_workers=2, inline_threshold=0, obs=True
        ) as runtime:
            for _ in range(6):
                assert run(runtime, instance) == expected
            frames = obs.active().metrics.counter("cluster.frames_sent.SPEC").value
        assert frames == 2

    def test_a_mirror_that_lost_the_id_reships_to_that_worker_only(self):
        from repro import obs

        instance = self._instance(8)
        batched = Runtime("batched", n_chains=4).run_chains("glauber", instance, 25, seed=1)
        with Runtime(
            "process", n_chains=4, n_workers=2, inline_threshold=0, obs=True
        ) as runtime:
            assert runtime.run_chains("glauber", instance, 25, seed=1) == batched
            coordinator = runtime._forked.coordinator()
            spec_id = spec_for(instance)[0]
            assert all(spec_id in worker.specs for worker in coordinator.workers)
            # A mirror without the id (as after a worker-side eviction)
            # re-ships the spec to that worker alone on the next call.
            del coordinator.workers[1].specs[spec_id]
            assert runtime.run_chains("glauber", instance, 25, seed=1) == batched
            assert all(spec_id in worker.specs for worker in coordinator.workers)
            frames = obs.active().metrics.counter("cluster.frames_sent.SPEC").value
        assert frames == 3

    def test_ball_marginals_after_update_factors_equal_serial(self):
        distribution = hardcore_model(cycle_graph(14), 1.0)
        instance = SamplingInstance(distribution, {0: 1})
        with Runtime("process", n_workers=2, inline_threshold=0) as runtime:
            before = runtime.ball_marginals(instance, instance.free_nodes, 2)
            distribution.update_factors(hardcore_model(cycle_graph(14), 7.0).factors)
            after = runtime.ball_marginals(instance, instance.free_nodes, 2)
        assert after != before
        # The workers marginalise the new weights: the serial loop on a
        # fresh copy of the reweighted model agrees exactly.
        fresh = SamplingInstance(hardcore_model(cycle_graph(14), 7.0), {0: 1})
        assert after == Runtime().ball_marginals(fresh, fresh.free_nodes, 2)

    def test_update_factors_ships_the_new_spec_once(self):
        from repro import obs

        distribution = hardcore_model(cycle_graph(12), 1.0)
        instance = SamplingInstance(distribution, {0: 1})
        batched = Runtime("batched", n_chains=4)
        with Runtime(
            "process", n_chains=4, n_workers=2, inline_threshold=0, obs=True
        ) as runtime:
            for _ in range(2):
                before = runtime.run_chains("glauber", instance, 25, seed=1)
            assert before == batched.run_chains("glauber", instance, 25, seed=1)
            distribution.update_factors(hardcore_model(cycle_graph(12), 6.0).factors)
            for _ in range(2):
                after = runtime.run_chains("glauber", instance, 25, seed=1)
            assert after == batched.run_chains("glauber", instance, 25, seed=1)
            frames = obs.active().metrics.counter("cluster.frames_sent.SPEC").value
        # The reweight is a new spec id: shipped once more to each worker,
        # then held.
        assert frames == 4

    def test_shutdown_ends_and_reaps_every_worker(self):
        import time

        instance = self._instance(7)
        runtime = Runtime("process", n_workers=2)
        runtime.ball_marginals(instance, instance.free_nodes, 1)
        pids = _worker_pids(runtime)
        runtime.shutdown()
        assert runtime._forked.pids == ()

        def exists(pid):
            try:
                os.kill(pid, 0)  # a zombie still exists
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 10
        while any(map(exists, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(exists, pids))

    def test_workers_hold_no_parent_end_of_any_socket_pair(self):
        instance = self._instance(8)
        with Runtime("process", n_workers=2) as first, Runtime(
            "process", n_workers=2
        ) as second:
            for runtime in (first, second):
                runtime.ball_marginals(instance, instance.free_nodes, 1)
            ends = {
                f"socket:[{os.fstat(worker.sock.fileno()).st_ino}]"
                for runtime in (first, second)
                for worker in runtime._forked.coordinator().workers
            }
            pids = _worker_pids(first) | _worker_pids(second)
            if not os.path.isdir(f"/proc/{min(pids)}/fd"):
                pytest.skip("no /proc to read worker descriptors from")
            for pid in pids:
                held = {
                    os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")
                }
                # Each worker closed every parent end it inherited: its own,
                # its sibling's and the other runtime's.
                assert not held & ends, pid

    def test_snapshot_publishes_the_workers_once_forked(self):
        instance = self._instance(4)
        with Runtime("process", n_workers=2) as runtime:
            snapshot = runtime.snapshot()
            # Reading the snapshot forks nothing.
            assert "cluster" not in snapshot and runtime._forked.pids == ()
            dict(runtime.stream_ball_marginals(instance, instance.free_nodes, 1))
            cluster = runtime.snapshot()["cluster"]
            assert cluster["live_workers"] == 2
            assert cluster["requeued"] == 0
            assert [worker["specs_cached"] for worker in cluster["workers"]] == [1, 1]
        assert "cluster" not in runtime.snapshot()

    def test_worker_set_snapshot_follows_its_coordinator(self):
        from repro.runtime.shards import ForkedWorkers

        workers = ForkedWorkers(2)
        try:
            assert workers.snapshot() is None and workers.pids == ()
            first = workers.coordinator()
            assert workers.snapshot()["live_workers"] == 2
            pids = workers.pids
            workers.shutdown()
            assert workers.snapshot() is None and workers.pids == ()
            # The next call forks a fresh set, which the snapshot then reads.
            assert workers.coordinator() is not first
            assert workers.snapshot()["live_workers"] == 2
            assert len(workers.pids) == 2 and workers.pids != pids
        finally:
            workers.shutdown()

    @staticmethod
    def _killing_stream():
        """A slow radius-3 ball stream, its serial marginals and its tasks."""
        instance = SamplingInstance(coloring_model(torus_graph(6, 6), 4), {(0, 0): 1})
        tasks = [(node, 3) for node in instance.free_nodes] * 3
        serial = {task: padded_ball_marginal(instance, *task) for task in tasks[:35]}
        instance.distribution.ball_cache().clear()
        return instance, tasks, serial

    def test_killed_worker_is_requeued_and_the_stream_equals_serial(self):
        import signal

        instance, tasks, serial = self._killing_stream()
        with Runtime("process", n_workers=2) as runtime:
            stream = runtime.stream_ball_marginal_tasks(instance, tasks, chunk_size=1)
            landed = [next(stream)]
            pids = _worker_pids(runtime)
            os.kill(min(pids), signal.SIGKILL)
            landed.extend(stream)
            coordinator = runtime._forked.coordinator()
            assert coordinator.requeued > 0
            assert coordinator.live_worker_count == 1
            assert _worker_pids(runtime) == pids  # one survivor: no fork
        assert len(landed) == len(tasks)
        assert all(serial[key] == marginal for key, marginal in landed)

    def test_every_worker_killed_fails_the_call_and_the_next_call_forks_again(self):
        import signal

        instance, tasks, _ = self._killing_stream()
        with Runtime("process", n_workers=2) as runtime:
            stream = runtime.stream_ball_marginal_tasks(instance, tasks, chunk_size=1)
            next(stream)
            pids = _worker_pids(runtime)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="ball shard failed on chunk"):
                list(stream)
            small = self._instance(1)
            serial = Runtime().ball_marginals(small, small.free_nodes, 1)
            small.distribution.ball_cache().clear()
            assert runtime.ball_marginals(small, small.free_nodes, 1) == serial
            assert len(_worker_pids(runtime)) == 2
            assert not _worker_pids(runtime) & pids

    def test_concurrent_first_calls_fork_one_pool(self):
        import sys
        import threading

        from repro import obs

        instances = [self._instance(10 + index) for index in range(8)]
        serial = [Runtime().ball_marginals(i, i.free_nodes, 1) for i in instances]
        for instance in instances:
            instance.distribution.ball_cache().clear()
        results = [None] * len(instances)
        runtime = Runtime("process", n_workers=3, obs=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def call(index):
                instance = instances[index]
                results[index] = runtime.ball_marginals(instance, instance.free_nodes, 1)

            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(instances))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            spawns = [event for event in obs.events() if event["name"] == "runtime.pool.spawn"]
        finally:
            sys.setswitchinterval(interval)
            runtime.shutdown()
        assert results == serial
        assert len(spawns) == 1

    def test_shutdown_inside_an_event_loop_returns_and_the_runtime_forks_again(self):
        import asyncio
        import threading

        instance = self._instance(2)
        serial = Runtime().ball_marginals(instance, instance.free_nodes, 1)
        instance.distribution.ball_cache().clear()
        runtime = Runtime("process", n_workers=2)
        assert runtime.ball_marginals(instance, instance.free_nodes, 1) == serial
        pids = _worker_pids(runtime)

        async def drain():
            runtime.shutdown()
            runtime.shutdown()  # idempotent

        thread = threading.Thread(target=lambda: asyncio.run(drain()), daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "shutdown hung inside the event loop"
        assert runtime._forked.pids == ()
        instance.distribution.ball_cache().clear()
        with runtime:
            assert runtime.ball_marginals(instance, instance.free_nodes, 1) == serial
            assert not _worker_pids(runtime) & pids

    def test_pool_spawn_instant_fires_once_per_fork(self):
        from repro import obs

        instance = self._instance(3)
        with Runtime(
            "process", n_chains=4, n_workers=2, inline_threshold=0, obs=True
        ) as runtime:
            runtime.ball_marginals(instance, instance.free_nodes, 1)
            runtime.run_chains("glauber", instance, 20, seed=1)
            runtime._forked.shutdown()
            runtime.run_chains("glauber", instance, 20, seed=1)
            spawns = [
                event["attrs"]
                for event in obs.events()
                if event["name"] == "runtime.pool.spawn"
            ]
        assert [attrs["workers"] for attrs in spawns] == [2, 2]
        assert all(attrs["ms"] > 0 for attrs in spawns)

    def test_an_untraced_call_after_a_traced_one_records_nothing_in_the_workers(
        self, monkeypatch
    ):
        from repro import obs
        from repro.runtime import shards

        # Registered before the pool forks, so the workers know the kind.
        monkeypatch.setitem(
            shards.TASK_REGISTRY, "test-obs-state", lambda args, spec: obs.active() is None
        )
        instance = self._instance(5)
        runtime = Runtime("process", n_chains=4, n_workers=2, inline_threshold=0)
        obs.enable()  # on while the pool forks: workers inherit the handle
        try:
            runtime.run_chains("glauber", instance, 20, seed=1)
            traced = {event["proc"] for event in obs.events()}
        finally:
            obs.disable()
        with runtime:
            runtime.run_chains("glauber", instance, 20, seed=1)
            session = shards._session(runtime._forked, instance, 4)
            work = [((), {}) for _ in range(4)]
            inert = list(shards._scatter(session, "test-obs-state", work))
        assert "pool-worker" in traced
        assert inert == [True] * 4


class TestAdaptiveDispatchGuard:
    """Small process-backend chain workloads run in-process (satellite)."""

    def test_small_workload_inlines_and_stays_bit_identical(self, monkeypatch):
        from repro.runtime import executor

        dispatched = []
        monkeypatch.setattr(
            executor, "run_chain_blocks", lambda *args, **kwargs: dispatched.append(args)
        )
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.2), {0: 1})
        runtime = Runtime("process", n_chains=3, n_workers=2)
        states = runtime.run_chains("glauber", instance, 40, seed=6)
        assert states == Runtime("serial", n_chains=3).run_chains(
            "glauber", instance, 40, seed=6
        )
        # The guard never spun the pool up (3 * 40 updates << threshold).
        assert dispatched == []

    def test_threshold_zero_disables_the_guard(self):
        runtime = Runtime("process", n_workers=2, inline_threshold=0)
        assert runtime.inline_threshold == 0
        with pytest.raises(ValueError):
            Runtime("process", inline_threshold=-1)

    def test_inline_dispatch_emits_the_obs_instant(self):
        from repro import obs

        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.2), {0: 1})
        obs.enable()
        try:
            Runtime("process", n_chains=2, n_workers=2).run_chains(
                "glauber", instance, 10, seed=1
            )
            instants = [
                event
                for event in obs.events()
                if event.get("name") == "runtime.dispatch.inline"
            ]
            assert instants and instants[-1]["attrs"]["chains"] == 2
        finally:
            obs.disable()

    def test_jvv_chain_stats_takes_the_run_chains_dispatch(self):
        # jvv_chain_stats rides the process runtime's workers and inline
        # guard exactly like run_chains: the workers above the threshold
        # (one SPEC frame each), the in-process block (with its instant)
        # below it.
        from repro import obs
        from repro.sampling.jvv import jvv_chain_stats

        instance = SamplingInstance(hardcore_model(cycle_graph(9), 1.2), {0: 1})
        batched = jvv_chain_stats(
            instance, 30, seed=2, runtime=Runtime("batched", n_chains=4)
        )
        obs.enable()
        try:
            shared = jvv_chain_stats(
                instance,
                30,
                seed=2,
                runtime=Runtime("process", n_chains=4, n_workers=2, inline_threshold=0),
            )
            frames = obs.active().metrics.counter("cluster.frames_sent.SPEC").value
            inline = jvv_chain_stats(
                instance, 30, seed=2, runtime=Runtime("process", n_chains=4, n_workers=2)
            )
            instants = [
                event
                for event in obs.events()
                if event.get("name") == "runtime.dispatch.inline"
            ]
        finally:
            obs.disable()
        assert frames == 2
        assert instants and instants[-1]["attrs"]["kernel"] == "jvv"
        assert shared == batched
        assert inline == batched


class TestRuntimeShutdownSafety:
    """Shutdown is idempotent, thread-safe, and event-loop safe.

    The serving layer's drain path calls ``Runtime.shutdown()`` from an
    asyncio event-loop thread; blocking the loop there would stall every
    in-flight response.  The resources at stake are a cluster runtime's
    coordinator connections and the process backend's forked workers.
    """

    def test_shutdown_from_an_event_loop_is_non_blocking_and_reusable(
        self, inprocess_workers
    ):
        import asyncio

        runtime = Runtime("cluster", addresses=[w.address for w in inprocess_workers])
        assert runtime.cluster_client().submit_task("ping", 2.0).result(timeout=30) == 2.0

        async def drain():
            runtime.shutdown()

        asyncio.run(drain())
        assert runtime._cluster is None
        # A later operation transparently reconnects.
        with runtime:
            assert (
                runtime.cluster_client().submit_task("ping", 3.0).result(timeout=30)
                == 3.0
            )

    def test_shutdown_racing_an_in_flight_stream_does_not_hang(self):
        import asyncio
        import threading

        instance = SamplingInstance(coloring_model(cycle_graph(12), 3), {0: 1})
        serial = Runtime().ball_marginals(instance, instance.free_nodes, 2)
        instance.distribution.ball_cache().clear()
        runtime = Runtime("process", n_workers=2)
        stream = runtime.stream_ball_marginals(instance, instance.free_nodes, 2)
        next(stream)  # the stream is live: its workers are mid-flight

        async def drain():
            runtime.shutdown()

        worker = threading.Thread(target=lambda: asyncio.run(drain()), daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "shutdown hung inside the event loop"
        stream.close()  # the abandoned stream's pending chunks are dropped
        with runtime:
            results = dict(runtime.stream_ball_marginals(instance, instance.free_nodes, 2))
            assert results == serial

    def test_concurrent_shutdowns_release_each_resource_exactly_once(
        self, inprocess_workers
    ):
        import threading

        runtime = Runtime("cluster", addresses=[w.address for w in inprocess_workers])
        assert runtime.cluster_client().submit_task("ping", 4.0).result(timeout=30) == 4.0
        errors = []

        def call():
            try:
                runtime.shutdown()
            except Exception as error:  # pragma: no cover - the failure we test for
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert runtime._cluster is None

    def test_snapshot_sections_register_and_unregister(self):
        runtime = Runtime("batched", n_chains=2)
        runtime.register_snapshot_section("serve", lambda: {"outstanding": 0})
        assert runtime.snapshot()["serve"] == {"outstanding": 0}
        runtime.register_snapshot_section("broken", lambda: 1 / 0)
        snapshot = runtime.snapshot()
        assert "ZeroDivisionError" in snapshot["broken"]["error"]
        runtime.unregister_snapshot_section("serve")
        runtime.unregister_snapshot_section("broken")
        assert "serve" not in runtime.snapshot()


class TestKernelRunChains:
    """The unified kernel execution path (ISSUE 5 acceptance contract).

    The full kernel x backend bit-identity matrix lives in the parametrized
    conformance harness (``tests/test_conformance.py``); this class keeps
    the path's API semantics (kernel resolution, engine degradation,
    deprecated wrappers, chain-block task bodies).
    """

    def _instance(self):
        return SamplingInstance(hardcore_model(cycle_graph(8), 1.2), {0: 1})

    def test_run_chains_accepts_kernel_instances_and_rejects_unknown_names(self):
        from repro.sampling import get_kernel

        instance = self._instance()
        runtime = Runtime("batched", n_chains=2)
        kernel = get_kernel("glauber")
        assert runtime.run_chains(kernel, instance, 9, seed=1) == runtime.run_chains(
            "glauber", instance, 9, seed=1
        )
        with pytest.raises(ValueError, match="unknown chain kernel"):
            runtime.run_chains("no-such-kernel", instance, 1)

    def test_chain_batch_advance_claims_one_kernel(self):
        instance = self._instance()
        batch = ChainBatch(instance, n_chains=2, seed=0)
        batch.advance("jvv", 4)
        with pytest.raises(RuntimeError, match="fresh batch"):
            batch.advance("sequential", 4)

    def test_generic_statistic_traces(self):
        instance = self._instance()
        batch = ChainBatch(instance, n_chains=3, seed=1)
        traces = batch.advance(
            "sequential", 8, statistic=lambda codes: codes.mean(axis=1)
        )
        assert traces.shape == (3, 8)

    def test_chain_block_task_registered(self):
        from repro.runtime import TASK_REGISTRY

        assert {"ball_marginals", "chain_block"} <= set(TASK_REGISTRY)

    def test_chain_block_body_matches_serial(self):
        from repro.runtime.chains import decode_configurations
        from repro.runtime.shards import _chain_block_task
        from repro.sampling import get_kernel

        instance = self._instance()
        seeds = chain_seed_sequences(6, 3)
        spec = InstanceSpec.from_instance(instance)
        payload = {"kernel": "jvv", "count": 13, "seeds": seeds, "initial": None}
        kernel = get_kernel("jvv")
        codes = _chain_block_task(payload, spec=spec)
        assert codes.dtype == np.int64
        assert codes.shape == (len(seeds), len(spec.nodes))
        assert decode_configurations(codes, spec.nodes, spec.alphabet) == [
            kernel.serial_run(instance, 13, seed=seed) for seed in seeds
        ]


#: Every registered chain kernel, by name.
KERNEL_NAMES = sorted(registered_kernels())


class TestRunChainsState:
    """Resumable chain state: split runs == one run... per layout, and for
    LubyGlauber also == one unsplit run."""

    def _instance(self):
        return SamplingInstance(hardcore_model(cycle_graph(8), 1.2), {0: 1})

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_return_state_run_matches_plain_run(self, backend, kernel):
        instance = self._instance()
        runtime = Runtime(backend, n_chains=3)
        plain = runtime.run_chains(kernel, instance, 25, seed=7)
        states, state = runtime.run_chains(
            kernel, instance, 25, seed=7, return_state=True
        )
        assert states == plain
        assert state.n_chains == 3
        assert state.units == 25
        assert state.kernel_name == kernel

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_split_resume_identical_across_layouts(self, kernel):
        instance = self._instance()
        serial = Runtime("serial", n_chains=4)
        batched = Runtime("batched", n_chains=4)
        first_s, state_s = serial.run_chains(
            kernel, instance, 20, seed=3, return_state=True
        )
        first_b, state_b = batched.run_chains(
            kernel, instance, 20, seed=3, return_state=True
        )
        assert first_s == first_b
        assert state_s.layout == "serial"
        assert state_b.layout == "batched"
        second_s = serial.run_chains(kernel, instance, 20, state=state_s)
        second_b = batched.run_chains(kernel, instance, 20, state=state_b)
        assert second_s == second_b
        assert state_s.units == state_b.units == 40

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_luby_segments_equal_one_whole_run(self, backend):
        # LubyGlauber draws only doubles, through the uniforms buffer whose
        # unread values ride along in the state: no chunk boundary moves.
        runtime = Runtime(backend, n_chains=4)
        for instance in (
            self._instance(),
            SamplingInstance(coloring_model(torus_graph(4, 4), 3)),
        ):
            whole = runtime.run_chains("luby-glauber", instance, 60, seed=11)
            states, state = runtime.run_chains(
                "luby-glauber", instance, 7, seed=11, return_state=True
            )
            for count in (20, 1, 32):
                states = runtime.run_chains("luby-glauber", instance, count, state=state)
            assert states == whole
            assert state.units == 60

    def test_state_retargets_onto_reweighted_model(self):
        graph = cycle_graph(8)
        runtime = Runtime("batched", n_chains=2)
        cold = SamplingInstance(hardcore_model(graph, 1.2), {0: 1})
        hot = SamplingInstance(hardcore_model(graph, 2.0), {0: 1})
        _, state = runtime.run_chains("glauber", cold, 10, seed=0, return_state=True)
        resumed = runtime.run_chains("glauber", hot, 10, state=state)
        assert len(resumed) == 2
        for configuration in resumed:
            assert configuration[0] == 1
        # The retargeted batch reads the twin engine's own cached tables.
        (batch,) = state.batches
        assert batch.tables is hot.distribution.compiled_engine().batched_tables
        assert batch.tables is not cold.distribution.compiled_engine().batched_tables

    def test_state_rejects_kernel_change_and_seed_overrides(self):
        instance = self._instance()
        runtime = Runtime("batched", n_chains=2)
        _, state = runtime.run_chains("glauber", instance, 5, seed=1, return_state=True)
        with pytest.raises(ValueError, match="kernel"):
            runtime.run_chains("sequential", instance, 5, state=state)
        with pytest.raises(ValueError, match="state"):
            runtime.run_chains(
                "glauber",
                instance,
                5,
                seeds=chain_seed_sequences(9, 2),
                state=state,
            )
        with pytest.raises(ValueError, match="state"):
            runtime.run_chains("glauber", instance, 5, init="greedy", state=state)

    def test_stateful_paths_need_local_compiled_backend(self):
        instance = self._instance()
        with pytest.raises(ValueError, match="serial or batched"):
            Runtime("process", n_chains=2).run_chains(
                "glauber", instance, 5, return_state=True
            )


class TestGreedyInit:
    """``init="greedy"`` warm starts (ISSUE 9 satellite)."""

    def _instance(self):
        return SamplingInstance(hardcore_model(cycle_graph(8), 1.2), {0: 1})

    def test_greedy_init_equals_explicit_warm_start(self):
        from repro.sampling.glauber import warm_start_configuration

        instance = self._instance()
        warm = warm_start_configuration(instance)
        for backend in ("serial", "batched"):
            runtime = Runtime(backend, n_chains=3)
            assert runtime.run_chains(
                "glauber", instance, 15, seed=2, init="greedy"
            ) == runtime.run_chains("glauber", instance, 15, seed=2, initial=warm)

    def test_warm_start_is_deterministic_feasible_and_rng_free(self):
        from repro.sampling.glauber import warm_start_configuration

        instance = self._instance()
        warm = warm_start_configuration(instance)
        assert warm == warm_start_configuration(instance)
        assert warm[0] == 1  # respects the pinning
        compiled = instance.distribution.compiled_engine()
        assert compiled.configuration_weight(warm) > 0

    def test_greedy_init_rejects_explicit_initial(self):
        instance = self._instance()
        runtime = Runtime("batched", n_chains=2)
        with pytest.raises(ValueError, match="init"):
            runtime.run_chains(
                "glauber", instance, 5, init="greedy", initial={0: 1}
            )
        with pytest.raises(ValueError, match="init"):
            runtime.run_chains("glauber", instance, 5, init="no-such-init")


# ----------------------------------------------------------------------
# scan kernels: the dependency-wave schedule
# ----------------------------------------------------------------------
def _scope_adjacency(compiled):
    """Per node id, the other node ids it shares a factor scope with."""
    adjacent = [set() for _ in compiled.nodes]
    for scope in compiled.scopes:
        for node in scope:
            adjacent[node].update(other for other in scope if other != node)
    return adjacent


def _assert_valid_schedule(variables, waves, adjacent):
    """Every step once; waves conflict-free; dependencies in earlier waves."""
    steps = np.concatenate(waves).tolist()
    assert sorted(steps) == list(range(len(variables)))
    wave_of = np.empty(len(variables), dtype=np.int64)
    for index, wave in enumerate(waves):
        wave_of[wave] = index
        nodes = [variables[step] for step in wave]
        assert len(set(nodes)) == len(nodes), "a wave resamples one node twice"
        members = set(nodes)
        for node in nodes:
            assert not adjacent[node] & members, "a wave holds two adjacent nodes"
    latest = {}  # node -> the largest wave of its steps so far
    for step, node in enumerate(variables):
        for other in adjacent[node] | {node}:
            if other in latest:
                assert latest[other] < wave_of[step], (
                    f"step {step} runs no later than an earlier step it depends on"
                )
        latest[node] = max(latest.get(node, -1), int(wave_of[step]))


def _schedule_instances():
    """Seeded random graphs with pinned nodes, plus one factorless node."""
    from repro.graphs import erdos_renyi_graph, random_regular_graph

    rng = np.random.default_rng(1414)
    instances = []
    for trial in range(3):
        graph = erdos_renyi_graph(14, 0.25, seed=trial)
        pinned = rng.choice(14, size=3, replace=False)
        instances.append(
            SamplingInstance(
                hardcore_model(graph, float(rng.uniform(0.5, 2.0))),
                {int(node): 0 for node in pinned},
            )
        )
    graph = random_regular_graph(3, 12, seed=5)
    graph.add_node(12)  # in no factor of the colouring: a factorless free node
    instances.append(SamplingInstance(coloring_model(graph, 5), {0: 1, 7: 2}))
    return instances


class TestScanWaveSchedule:
    """Scan kernels advance in dependency waves, bit-identical to one step
    at a time (the schedule is recorded from real kernel runs)."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        from repro.sampling import kernels

        calls = []
        schedule = kernels.scan_waves

        def recording(scopes, variables):
            waves = schedule(scopes, variables)
            calls.append((list(variables), waves))
            return waves

        monkeypatch.setattr(kernels, "scan_waves", recording)
        return calls

    @staticmethod
    def _one_step_waves(monkeypatch):
        """Replace the schedule by one wave per step: the step-by-step scan."""
        from repro.sampling import kernels

        monkeypatch.setattr(
            kernels,
            "scan_waves",
            lambda scopes, variables: [np.array([step]) for step in range(len(variables))],
        )

    @pytest.mark.parametrize("kernel", ["jvv", "sequential"])
    def test_recorded_schedules_are_valid(self, recorded, kernel):
        instances = _schedule_instances()
        for instance in instances:
            tables = instance.distribution.compiled_engine().batched_tables
            assert tables.rows is not None and not tables.may_stick
            free = len(instance.free_nodes)
            adjacent = _scope_adjacency(instance.distribution.compiled_engine())
            recorded.clear()
            # Nodes repeat: the scan wraps the free order three times.
            ChainBatch(instance, n_chains=3, seed=4).advance(kernel, 3 * free + 5)
            # A ChainState split into segments: the position carries over.
            runtime = Runtime("batched", n_chains=3)
            _, state = runtime.run_chains(kernel, instance, 7, seed=5, return_state=True)
            for segment in (11, free + 2, 19):
                runtime.run_chains(kernel, instance, segment, state=state)
            assert len(recorded) == 5
            for variables, waves in recorded:
                _assert_valid_schedule(variables, waves, adjacent)
            assert any(len(waves) < len(variables) for _, waves in recorded)
        assert instances[-1].distribution.compiled_engine().batched_tables.factorless[12]
        # Past RNG_CHUNK the scan position wraps mid-chunk.
        recorded.clear()
        instance = instances[0]
        ChainBatch(instance, n_chains=2, seed=6).advance(kernel, RNG_CHUNK + 37)
        assert [len(variables) for variables, _ in recorded] == [RNG_CHUNK, 37]
        adjacent = _scope_adjacency(instance.distribution.compiled_engine())
        for variables, waves in recorded:
            _assert_valid_schedule(variables, waves, adjacent)

    @pytest.mark.parametrize("kernel", ["jvv", "sequential"])
    def test_waves_equal_the_step_by_step_scan(self, monkeypatch, kernel):
        from repro.sampling import get_kernel

        instances = _schedule_instances()
        resolved = get_kernel(kernel)

        def run(instance):
            batch = ChainBatch(instance, n_chains=16, seed=8)
            batch.advance(kernel, RNG_CHUNK + 37)
            runtime = Runtime("batched", n_chains=16)
            _, state = runtime.run_chains(kernel, instance, 9, seed=9, return_state=True)
            for segment in (13, 40):
                runtime.run_chains(kernel, instance, segment, state=state)
            failures = [
                resolved.failure_counts(member).tolist()
                for member in (batch, *state.batches)
            ]
            return batch.codes.copy(), state.codes, failures

        waved = [run(instance) for instance in instances]
        self._one_step_waves(monkeypatch)
        stepped = [run(instance) for instance in instances]
        for (codes, resumed, failures), (ref_codes, ref_resumed, ref_failures) in zip(
            waved, stepped
        ):
            np.testing.assert_array_equal(codes, ref_codes)
            np.testing.assert_array_equal(resumed, ref_resumed)
            assert failures == ref_failures

    @pytest.mark.parametrize("kernel", ["jvv", "sequential"])
    def test_batched_equals_serial_on_every_table_form(self, kernel):
        from repro.graphs import star_graph, torus_graph
        from repro.sampling import get_kernel

        instances = {
            "blanket": SamplingInstance(hardcore_model(cycle_graph(9), 1.3), {0: 1}),
            "gather": SamplingInstance(coloring_model(star_graph(9), 3), {1: 0}),
            # A 3-colouring of a degree-4 graph: some blanket rows total 0.
            "may_stick": SamplingInstance(coloring_model(torus_graph(4, 4), 3)),
        }
        resolved = get_kernel(kernel)
        seeds = chain_seed_sequences(12, 5)
        for mode, instance in instances.items():
            tables = instance.distribution.compiled_engine().batched_tables
            assert (tables.rows is not None) == (mode != "gather")
            assert tables.may_stick == (mode != "blanket")
            count = 3 * len(instance.free_nodes) + 4
            reference = [resolved.serial_scan(instance, count, seed=seed) for seed in seeds]
            batch = ChainBatch(instance, seeds=seeds)
            batch.advance(resolved, count)
            assert batch.configurations() == [state for state, _ in reference], mode
            assert resolved.failure_counts(batch).tolist() == [
                failures for _, failures in reference
            ], mode

    @pytest.mark.parametrize("kernel", ["jvv", "sequential"])
    def test_statistic_traces_step_by_step(self, kernel):
        from repro.learning import encode_configurations
        from repro.sampling import get_kernel

        instance = _schedule_instances()[0]
        compiled = instance.distribution.compiled_engine()
        resolved = get_kernel(kernel)
        seeds = chain_seed_sequences(21, 3)
        count = 2 * len(instance.free_nodes) + 3
        # Integer weights keep the statistic exact whatever the matrix shape.
        weights = np.arange(1, len(compiled.nodes) + 1)

        def statistic(codes):
            return codes @ weights

        batch = ChainBatch(instance, seeds=seeds)
        trace = batch.advance(resolved, count, statistic=statistic)
        # Proposal points are a prefix-consistent stream, so the serial scan
        # run for t steps passes through the state after step t of a longer run.
        expected = [
            statistic(
                encode_configurations(
                    compiled,
                    [
                        resolved.serial_run(instance, steps, seed=seed)
                        for steps in range(1, count + 1)
                    ],
                )
            )
            for seed in seeds
        ]
        assert trace.tobytes() == np.array(expected, dtype=float).tobytes()
        waved = ChainBatch(instance, seeds=seeds)
        waved.advance(resolved, count)
        np.testing.assert_array_equal(waved.codes, batch.codes)
