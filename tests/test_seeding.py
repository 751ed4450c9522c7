"""Chain seeding: every chain's generator derived in one vectorised pass.

A :class:`~repro.runtime.chains.ChainBatch` seeds chain ``c``'s PCG64
from words that :func:`~repro.runtime.chains.generator_states` derives for
all chains at once, running numpy's ``SeedSequence`` hash over columns.
The contract is bit-identity with numpy itself: every generator's state
and every draw equals ``default_rng(seeds[c])`` where ``seeds`` is
``SeedSequence(root).spawn(n)`` (or the explicit seeds).  An int root
spawns lazily (:class:`~repro.runtime.chains.SpawnedSeeds`); its children
keep one identity per index, which the serving layer's request
attribution relies on.
"""

from __future__ import annotations

import asyncio
import copy
import pickle

import numpy as np
import pytest

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import hardcore_model
from repro.runtime import ChainBatch, Runtime, chain_seed_sequences
from repro.runtime.chains import (
    SpawnedSeeds,
    _DerivedSeed,
    decode_configurations,
    generator_states,
)

ROOTS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]
COUNTS = [1, 2, 200, 4097]
#: Sequence-valued ``SeedSequence`` entropy, which chain_seed_sequences
#: also accepts as a root.
ENTROPIES = [[1, 2, 3], (5, 2**40), [2**130, 0]]


def _instance():
    return SamplingInstance(hardcore_model(cycle_graph(4), 1.0))


def _numpy_states(seeds):
    return np.stack(
        [
            (
                seed
                if isinstance(seed, np.random.SeedSequence)
                else np.random.SeedSequence(seed)
            ).generate_state(4, np.uint64)
            for seed in seeds
        ]
    )


def _assert_generators_match_numpy(batch, reference_seeds):
    """Each chain's PCG64 state and first draws equal ``default_rng``'s."""
    expected = [np.random.default_rng(seed) for seed in reference_seeds]
    assert len(batch.rngs) == len(expected)
    assert [rng.bit_generator.state for rng in batch.rngs] == [
        rng.bit_generator.state for rng in expected
    ]
    for draw in (lambda rng: rng.random(3), lambda rng: rng.integers(0, 2**40, 2)):
        assert np.array_equal(
            np.stack([draw(rng) for rng in batch.rngs]),
            np.stack([draw(rng) for rng in expected]),
        )


class TestIntRoots:
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("root", ROOTS)
    def test_states_and_draws_equal_numpy_spawn(self, root, count):
        reference = np.random.SeedSequence(root).spawn(count)
        seeds = chain_seed_sequences(root, count)
        assert isinstance(seeds, SpawnedSeeds) and len(seeds) == count
        assert np.array_equal(generator_states(seeds), _numpy_states(reference))
        batch = ChainBatch(_instance(), n_chains=count, seed=root)
        _assert_generators_match_numpy(batch, reference)

    @pytest.mark.parametrize("root", ROOTS)
    def test_built_children_equal_numpy_children(self, root):
        reference = np.random.SeedSequence(root).spawn(5)
        for built, expected in zip(chain_seed_sequences(root, 5), reference):
            assert built.spawn_key == expected.spawn_key
            assert built.pool_size == expected.pool_size
            assert np.array_equal(built.pool, expected.pool)

    def test_a_numpy_integer_root_equals_the_int_root(self):
        assert np.array_equal(
            generator_states(chain_seed_sequences(np.int64(12), 7)),
            generator_states(chain_seed_sequences(12, 7)),
        )

    def test_a_negative_root_is_refused_like_numpy(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match="non-negative"):
            chain_seed_sequences(-1, 3)

    def test_at_least_one_chain(self):
        with pytest.raises(ValueError, match="at least 1"):
            chain_seed_sequences(3, 0)


class TestSeedSequenceRoots:
    @pytest.mark.parametrize("entropy", ENTROPIES)
    def test_sequence_entropy_roots(self, entropy):
        seeds = chain_seed_sequences(entropy, 6)
        reference = np.random.SeedSequence(entropy).spawn(6)
        assert [seed.spawn_key for seed in seeds] == [seed.spawn_key for seed in reference]
        _assert_generators_match_numpy(
            ChainBatch(_instance(), n_chains=6, seed=entropy), reference
        )

    def test_nested_spawn_keys(self):
        """A root that was itself spawned: its children carry two-level keys."""
        root = np.random.SeedSequence(7).spawn(3)[2]
        twin = np.random.SeedSequence(7).spawn(3)[2]
        batch = ChainBatch(_instance(), n_chains=5, seed=root)
        reference = twin.spawn(5)
        assert [seed.spawn_key for seed in batch.seeds] == [(2, c) for c in range(5)]
        _assert_generators_match_numpy(batch, reference)

    def test_a_root_used_twice_continues_its_spawn_count(self):
        root = np.random.SeedSequence(11)
        first = ChainBatch(_instance(), n_chains=3, seed=root)
        second = chain_seed_sequences(root, 4)
        assert root.n_children_spawned == 7
        assert [seed.spawn_key for seed in second] == [(3,), (4,), (5,), (6,)]
        reference = np.random.SeedSequence(11).spawn(7)
        _assert_generators_match_numpy(first, reference[:3])
        _assert_generators_match_numpy(
            ChainBatch(_instance(), seeds=second), reference[3:]
        )


class TestExplicitSeeds:
    def test_pools_of_explicit_seed_sequences_and_int_seeds(self):
        """The ``.pool`` path with mixed pool sizes and spawn keys, beside
        int seeds of one, two and five entropy words."""
        seeds = [
            np.random.SeedSequence(3, pool_size=8),
            np.random.SeedSequence([1, 2], spawn_key=(4, 5)),
            np.random.SeedSequence(2**130),
            0,
            2**40,
            2**130,
            np.uint64(9),
            *np.random.SeedSequence(5).spawn(3),
            17,
        ]
        assert np.array_equal(generator_states(seeds), _numpy_states(seeds))
        _assert_generators_match_numpy(ChainBatch(_instance(), seeds=seeds), seeds)

    def test_int_seeds_equal_default_rng(self):
        seeds = list(range(40))
        _assert_generators_match_numpy(ChainBatch(_instance(), seeds=seeds), seeds)

    def test_sequence_entropy_seeds_equal_default_rng(self):
        seeds = [(1, 2), [2**40, 3], 4]
        _assert_generators_match_numpy(ChainBatch(_instance(), seeds=seeds), seeds)

    @pytest.mark.parametrize("bad, error", [(-1, ValueError), (1.5, TypeError)])
    def test_what_numpy_refuses_is_refused(self, bad, error):
        with pytest.raises(error):
            np.random.default_rng(bad)
        with pytest.raises(error):
            ChainBatch(_instance(), seeds=[0, bad])


class TestLazySeedIdentity:
    def test_every_access_returns_the_same_object(self):
        seeds = chain_seed_sequences(9, 6)
        listed = list(seeds)
        assert all(listed[c] is seeds[c] for c in range(6))
        assert all(a is b for a, b in zip(seeds, listed))
        assert seeds[-1] is seeds[5]
        assert all(a is b for a, b in zip(seeds[1:4], listed[1:4]))
        with pytest.raises(IndexError):
            seeds[6]

    def test_derived_states_do_not_build_the_children(self):
        seeds = chain_seed_sequences(4, 50)
        generator_states(seeds)
        ChainBatch(_instance(), seeds=seeds)
        assert seeds._built == [None] * 50

    def test_spawned_seeds_pickle(self):
        seeds = chain_seed_sequences(21, 4)
        seeds[1]
        clone = pickle.loads(pickle.dumps(seeds))
        assert np.array_equal(generator_states(clone), generator_states(seeds))
        assert np.array_equal(clone[1].pool, seeds[1].pool)

    def test_a_pending_request_keeps_the_objects_the_call_returned(self, monkeypatch):
        """The serving coalescer hands run_chains the very seed objects its
        ``chain_seed_sequences`` call returned -- the identity a tracer keys
        request attribution on."""
        from repro.serve import coalesce

        returned = []

        def recording(seed, n_chains):
            seeds = chain_seed_sequences(seed, n_chains)
            returned.append(seeds)
            return seeds

        monkeypatch.setattr(coalesce, "chain_seed_sequences", recording)
        pending = coalesce._Pending("r", "hc", None, None, recording(3, 4), None)
        assert all(a is b for a, b in zip(pending.seeds, returned[0]))

        received = []

        class RecordingRuntime:
            def __init__(self):
                self.inner = Runtime("batched")

            def run_chains(self, kernel, instance, count, **kwargs):
                received.append(kwargs["seeds"])
                return self.inner.run_chains(kernel, instance, count, **kwargs)

        instance = _instance()

        async def main():
            coalescer = coalesce.RequestCoalescer("hc", RecordingRuntime())
            try:
                return await coalescer.sample(
                    "hc", instance, "glauber", 5, seed=8, n_chains=3
                )
            finally:
                await coalescer.drain()

        states, _, _ = asyncio.run(main())
        assert len(received) == 1 and len(received[0]) == 3
        assert all(a is b for a, b in zip(received[0], returned[-1]))
        assert states == Runtime("batched").run_chains(
            "glauber", instance, 5, seeds=chain_seed_sequences(8, 3)
        )


class TestDerivedSeed:
    def test_only_pcg64_words_are_served(self):
        words = np.arange(4, dtype=np.uint64)
        seed = _DerivedSeed(words)
        assert seed.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError):
            seed.generate_state(8, np.uint64)
        with pytest.raises(ValueError):
            seed.generate_state(4, np.uint32)

    def test_generators_pickle_and_continue(self):
        batch = ChainBatch(_instance(), n_chains=3, seed=5)
        clones = pickle.loads(pickle.dumps(batch.rngs))
        assert [rng.random() for rng in clones] == [rng.random() for rng in batch.rngs]

    def test_a_copied_chain_state_resumes_identically(self):
        instance = _instance()
        runtime = Runtime("batched", n_chains=4)
        _, state = runtime.run_chains(
            "luby-glauber", instance, 3, seed=6, return_state=True
        )
        twin = copy.deepcopy(state)
        assert runtime.run_chains("luby-glauber", instance, 4, state=twin) == (
            runtime.run_chains("luby-glauber", instance, 4, state=state)
        )


class TestBackendsFromAnIntRoot:
    def test_batched_process_and_cluster_agree(self, inprocess_workers):
        from repro.sampling.jvv import jvv_chain_stats

        instance = SamplingInstance(hardcore_model(cycle_graph(10), 1.0), {0: 1})
        addresses = [worker.address for worker in inprocess_workers]
        serial = Runtime("serial", n_chains=7)
        results = {}
        with Runtime("batched", n_chains=7) as batched, Runtime(
            "process", n_chains=7, n_workers=2, inline_threshold=0
        ) as process, Runtime("cluster", n_chains=7, addresses=addresses) as cluster:
            for name, runtime in (
                ("serial", serial),
                ("batched", batched),
                ("process", process),
                ("cluster", cluster),
            ):
                results[name] = (
                    runtime.run_chains("glauber", instance, 40, seed=2**64 + 5),
                    runtime.run_chains("luby-glauber", instance, 6, seed=3),
                    jvv_chain_stats(instance, 20, seed=2**32, runtime=runtime),
                )
        assert results["batched"] == results["serial"]
        assert results["process"] == results["serial"]
        assert results["cluster"] == results["serial"]


class TestDecode:
    @pytest.mark.parametrize(
        "alphabet", [(0, 1, 2), ("a", "b", "c"), (2, 1, 0), (False, True, 2)]
    )
    def test_decode_equals_the_per_cell_lookup(self, alphabet):
        nodes = [(0, 0), (0, 1), 5, "x"]
        codes = np.random.default_rng(3).integers(0, 3, size=(6, len(nodes)))
        decoded = decode_configurations(codes, nodes, alphabet)
        expected = [
            {node: alphabet[code] for node, code in zip(nodes, row)}
            for row in codes.tolist()
        ]
        assert decoded == expected
        assert [[type(value) for value in row.values()] for row in decoded] == [
            [type(value) for value in row.values()] for row in expected
        ]
