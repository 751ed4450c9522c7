"""Tests for the distributed JVV sampler (Theorem 4.2)."""

import math

import pytest

from repro.analysis import empirical_distribution, total_variation
from repro.analysis.distances import configuration_key
from repro.gibbs import Factor, GibbsDistribution, SamplingInstance
from repro.graphs import cycle_graph, path_graph
from repro.inference import ExactInference, InferenceAlgorithm, correlation_decay_for
from repro.models import coloring_model, hardcore_model
from repro.sampling import enumerate_target_distribution, sample_exact_local, sample_exact_slocal

#: ``sample_exact_local`` on the E6 instance (hardcore on the 16-cycle at
#: fugacity 0.5, node 0 pinned occupied, correlation-decay oracle at decay
#: rate 0.5), per seed: (occupied nodes, failed nodes, rounds).
E6_GOLDEN = {
    0: ((0, 5, 9), (), 9348),
    1: ((0, 12), (), 18696),
    2: ((0, 4, 9, 11, 13), (11,), 9348),
    3: ((0, 6), (), 14022),
}


def e6_instance():
    return SamplingInstance(hardcore_model(cycle_graph(16), fugacity=0.5), {0: 1})


class CountingOracle(InferenceAlgorithm):
    """Delegates to ``engine`` and records every ``(node, conditioning)`` asked."""

    def __init__(self, engine):
        self.engine = engine
        self.queries = []

    def locality(self, instance, error):
        return self.engine.locality(instance, error)

    def marginal(self, instance, node, error):
        self.queries.append((node, frozenset(instance.pinning.as_dict().items())))
        return self.engine.marginal(instance, node, error)


class TestJVVMechanics:
    def test_outputs_are_feasible_and_respect_pinning(self):
        distribution = hardcore_model(cycle_graph(7), fugacity=1.0)
        instance = SamplingInstance(distribution, {0: 1})
        engine = ExactInference()
        for seed in range(8):
            result = sample_exact_slocal(instance, engine, seed=seed)
            assert distribution.weight(result.configuration) > 0
            assert result.configuration[0] == 1

    def test_acceptance_probability_with_exact_oracle(self):
        # With a zero-error oracle every node's acceptance probability is
        # exactly exp(-3/n^2) (the slack factor of equation (9)).
        from repro.localmodel import Network, run_slocal_algorithm
        from repro.sampling.jvv import LocalJVVSampler

        distribution = hardcore_model(cycle_graph(6), fugacity=1.2)
        instance = SamplingInstance(distribution)
        algorithm = LocalJVVSampler(instance, ExactInference())
        network = Network(instance.graph, seed=1)
        result = run_slocal_algorithm(algorithm, network)
        expected = math.exp(-3.0 / 6 ** 2)
        for node in network.nodes:
            assert result.states[node]["acceptance"] == pytest.approx(expected, rel=1e-6)

    def test_failure_probability_decreases_with_size(self):
        # Total success probability is about exp(-3/n), so failures per run
        # shrink as n grows; compare empirical failure frequencies.
        engine = ExactInference()

        def failure_rate(n, runs=60):
            distribution = hardcore_model(cycle_graph(n), fugacity=1.0)
            instance = SamplingInstance(distribution)
            failures = 0
            for seed in range(runs):
                if not sample_exact_slocal(instance, engine, seed=seed).success:
                    failures += 1
            return failures / runs

        small, large = failure_rate(4), failure_rate(10)
        assert large <= small + 0.15

    def test_rounds_scale_with_inference_locality(self):
        distribution = hardcore_model(cycle_graph(10), fugacity=0.8)
        instance = SamplingInstance(distribution)
        engine = correlation_decay_for(distribution, decay_rate=0.5, max_depth=3)
        result = sample_exact_slocal(instance, engine, seed=0)
        assert result.rounds == 3 * engine.locality(instance, 1.0 / 10 ** 3) + 1

    def test_local_simulation_adds_overhead_and_keeps_feasibility(self):
        distribution = hardcore_model(cycle_graph(8), fugacity=1.0)
        instance = SamplingInstance(distribution)
        engine = correlation_decay_for(distribution, max_depth=2)
        slocal = sample_exact_slocal(instance, engine, seed=2)
        local = sample_exact_local(instance, engine, seed=2)
        assert local.rounds > slocal.rounds
        assert distribution.weight(local.configuration) > 0


class TestJVVOracleMemo:
    """The sampler asks its deterministic oracle once per (node, conditioning);
    every output, flag, round count and acceptance is the unmemoised one."""

    @pytest.mark.parametrize("seed", sorted(E6_GOLDEN))
    def test_e6_exact_local_matches_golden(self, seed):
        instance = e6_instance()
        oracle = correlation_decay_for(instance.distribution, decay_rate=0.5)
        result = sample_exact_local(instance, oracle, seed=seed)
        occupied, failed, rounds = E6_GOLDEN[seed]
        assert result.configuration == {node: int(node in occupied) for node in range(16)}
        assert result.failures == {node: node in failed for node in range(16)}
        assert result.rounds == rounds

    @pytest.mark.parametrize(
        "build,engine,expected",
        [
            # Exact oracle: every ratio cancels to the slack e^{-3/36}.
            (
                lambda: hardcore_model(cycle_graph(6), fugacity=1.2),
                lambda distribution: ExactInference(),
                [0.9200444146293233] * 6,
            ),
            # Truncated correlation decay: the ratios do not cancel, and
            # node 0 differs from the others in the last bit.
            (
                lambda: hardcore_model(cycle_graph(8), fugacity=0.9),
                lambda distribution: correlation_decay_for(distribution, max_depth=4),
                [0.9542066659691882] + [0.9542066659691884] * 5
                + [0.9429402425766744, 0.9542066659691884],
            ),
        ],
        ids=["exact-6-cycle", "correlation-decay-8-cycle"],
    )
    def test_reversed_order_acceptance_matches_golden(self, build, engine, expected):
        from repro.localmodel import Network, run_slocal_algorithm
        from repro.sampling.jvv import LocalJVVSampler

        distribution = build()
        instance = SamplingInstance(distribution)
        algorithm = LocalJVVSampler(instance, engine(distribution))
        network = Network(instance.graph, seed=1)
        result = run_slocal_algorithm(algorithm, network, list(reversed(network.nodes)))
        assert [result.states[node]["acceptance"] for node in network.nodes] == expected

    def test_each_query_reaches_the_oracle_once_per_run(self):
        instance = e6_instance()
        oracle = CountingOracle(correlation_decay_for(instance.distribution, decay_rate=0.5))
        sample_exact_local(instance, oracle, seed=0)
        assert len(oracle.queries) == len(set(oracle.queries))
        # Pass 3 asks about prefixes passes 1 and 2 never conditioned on.
        assert len(oracle.queries) > 2 * len(instance.free_nodes)

    def test_a_second_sampler_asks_the_oracle_again(self):
        instance = e6_instance()
        oracle = CountingOracle(correlation_decay_for(instance.distribution, decay_rate=0.5))
        first = sample_exact_local(instance, oracle, seed=1)
        first_queries = list(oracle.queries)
        assert first_queries
        second = sample_exact_local(instance, oracle, seed=1)
        assert oracle.queries[len(first_queries):] == first_queries
        assert second.configuration == first.configuration


@pytest.mark.slow
class TestJVVExactness:
    @pytest.mark.parametrize(
        "factory,pinning",
        [
            (lambda: hardcore_model(cycle_graph(5), fugacity=1.0), {}),
            (lambda: hardcore_model(path_graph(5), fugacity=1.6), {0: 1}),
            (lambda: coloring_model(path_graph(4), num_colors=3), {0: 2}),
        ],
    )
    def test_conditional_output_distribution_matches_target(self, factory, pinning):
        """Conditioned on success the output follows mu^tau exactly.

        Statistical check: with several hundred accepted runs the empirical
        distribution must be within sampling noise of the enumerated target.
        """
        distribution = factory()
        instance = SamplingInstance(distribution, pinning)
        engine = ExactInference()
        truth = enumerate_target_distribution(instance)
        accepted = []
        seed = 0
        while len(accepted) < 260 and seed < 1200:
            result = sample_exact_slocal(instance, engine, seed=seed)
            if result.success:
                accepted.append(configuration_key(result.configuration))
            seed += 1
        assert len(accepted) >= 260
        empirical = empirical_distribution(accepted)
        noise = 3.0 * math.sqrt(len(truth) / (4.0 * len(accepted)))
        assert total_variation(empirical, truth) < noise

    def test_approximate_engine_still_produces_feasible_samples(self):
        distribution = hardcore_model(cycle_graph(8), fugacity=0.9)
        instance = SamplingInstance(distribution)
        engine = correlation_decay_for(distribution, max_depth=4)
        successes = 0
        for seed in range(20):
            result = sample_exact_slocal(instance, engine, seed=seed)
            if result.success:
                successes += 1
            assert distribution.weight(result.configuration) > 0
        assert successes > 0


class TestJVVKernel:
    """The rejection pass as a chain kernel (repro.sampling.kernels)."""

    def _instances(self):
        return [
            SamplingInstance(hardcore_model(cycle_graph(9), fugacity=1.3), {0: 1}),
            SamplingInstance(coloring_model(path_graph(6), num_colors=3), {0: 2}),
        ]

    def test_batched_failure_counts_match_the_serial_pass(self):
        """Per-chain failure counts of a batched JVV run equal the serial
        rejection pass seeded with seeds[c].  (The *states* sweep lives in
        the cross-backend conformance harness, tests/test_conformance.py;
        the failure-count statistic is JVV-specific and stays here.)"""
        from repro.runtime import ChainBatch, chain_seed_sequences
        from repro.sampling.jvv import JVV_KERNEL, jvv_rejection_sample

        for instance in self._instances():
            seeds = chain_seed_sequences(5, 6)
            steps = 3 * len(instance.free_nodes) + 2
            serial = [
                jvv_rejection_sample(instance, steps, seed=seed, return_failures=True)
                for seed in seeds
            ]
            batch = ChainBatch(instance, seeds=seeds)
            batch.advance(JVV_KERNEL, steps)
            assert batch.configurations() == [state for state, _ in serial]
            assert JVV_KERNEL.failure_counts(batch).tolist() == [
                failures for _, failures in serial
            ]

    def test_acceptance_matches_local_jvv_sampler_pass(self):
        """The kernel's gate is exactly the pass-3 acceptance of
        LocalJVVSampler with an exact oracle (equation (9) collapsed to
        the slack constant e^{-3/n^2})."""
        from repro.localmodel import Network, run_slocal_algorithm
        from repro.sampling.jvv import JVV_KERNEL, LocalJVVSampler

        distribution = hardcore_model(cycle_graph(7), fugacity=1.1)
        instance = SamplingInstance(distribution)
        algorithm = LocalJVVSampler(instance, ExactInference())
        network = Network(instance.graph, seed=3)
        result = run_slocal_algorithm(algorithm, network)
        kernel_gate = JVV_KERNEL.acceptance_probability(instance)
        for node in network.nodes:
            assert result.states[node]["acceptance"] == pytest.approx(
                kernel_gate, rel=1e-12
            )

    def test_failure_law_tracks_the_prediction(self):
        """The rejected-chain fraction of one full scan follows 1 - e^{-3/n}."""
        from repro.runtime import ChainBatch, chain_seed_sequences
        from repro.sampling.jvv import JVV_KERNEL

        distribution = hardcore_model(cycle_graph(20), fugacity=1.0)
        instance = SamplingInstance(distribution)
        steps = len(instance.free_nodes)
        batch = ChainBatch(instance, seeds=chain_seed_sequences(1, 200))
        batch.advance(JVV_KERNEL, steps)
        failed = (JVV_KERNEL.failure_counts(batch) > 0).mean()
        predicted = 1.0 - math.exp(-3.0 * steps / instance.size ** 2)
        assert abs(failed - predicted) < 0.12

    def test_e04_rejection_kernel_follows_the_failure_law(self):
        """E4's rejection-kernel rows on the batched runtime: each step
        rejects independently with probability ``1 - e^{-3/n^2}``, so the
        failed-chain count of a row is Binomial(chains, 1 - e^{-3 steps/n^2})
        and its fraction lies within 4 standard deviations of the law."""
        from repro.experiments.e04_jvv import run_rejection_kernel
        from repro.runtime import Runtime

        chains = 2000
        rows = run_rejection_kernel(
            sizes=(8, 16, 32), chains=chains, scans=2, runtime=Runtime("batched")
        )
        for row in rows:
            law = 1.0 - math.exp(-3.0 * row["steps"] / row["n"] ** 2)
            assert row["predicted_rate"] == pytest.approx(law, rel=1e-12)
            bound = 4.0 * math.sqrt(law * (1.0 - law) / chains)
            assert abs(row["failure_rate"] - law) <= bound, row

    def test_chain_stats_uniform_across_runtimes(self):
        """States AND failure counts are bit-identical whichever runtime
        computes them (batched masks vs the serial reference)."""
        from repro.runtime import Runtime
        from repro.sampling.jvv import jvv_chain_stats

        instance = SamplingInstance(hardcore_model(cycle_graph(7), fugacity=1.2))
        serial = jvv_chain_stats(instance, 10, n_chains=5, seed=1)
        batched = jvv_chain_stats(
            instance, 10, n_chains=5, seed=1, runtime=Runtime("batched")
        )
        assert serial == batched

    def test_runtime_knob_routes_through_run_chains(self):
        from repro.runtime import Runtime, chain_seed_sequences
        from repro.sampling.jvv import jvv_rejection_sample

        instance = SamplingInstance(hardcore_model(cycle_graph(8), fugacity=1.0))
        seeds = chain_seed_sequences(2, 4)
        serial = [jvv_rejection_sample(instance, 12, seed=seed) for seed in seeds]
        with Runtime("batched", n_chains=4) as runtime:
            assert runtime.run_chains("jvv", instance, 12, seed=2) == serial

    def test_rejections_leave_the_proposal_applied(self):
        """The sigma-sequence advances regardless of the flags (pass-3
        semantics): an always-reject gate and an always-accept gate consume
        identical RNG streams, so they must produce IDENTICAL states --
        only the failure counts differ (all steps vs none)."""
        from repro.runtime import ChainBatch, chain_seed_sequences
        from repro.sampling.jvv import JVVKernel

        class AlwaysReject(JVVKernel):
            name = "jvv-always-reject"

            def acceptance_probability(self, instance):
                return 0.0

        class AlwaysAccept(JVVKernel):
            name = "jvv-always-accept"

            def acceptance_probability(self, instance):
                return 1.0

        instance = SamplingInstance(hardcore_model(cycle_graph(6), fugacity=1.4))
        steps = 30
        reject_state, reject_failures = AlwaysReject().serial_scan(
            instance, steps, seed=9
        )
        accept_state, accept_failures = AlwaysAccept().serial_scan(
            instance, steps, seed=9
        )
        assert reject_state == accept_state  # proposals applied either way
        assert reject_failures == steps and accept_failures == 0
        assert instance.distribution.weight(reject_state) > 0
        # Same contract on the batched path, via the acceptance masks.
        seeds = chain_seed_sequences(9, 3)
        rejecting = ChainBatch(instance, seeds=seeds)
        accepting = ChainBatch(instance, seeds=seeds)
        reject_kernel, accept_kernel = AlwaysReject(), AlwaysAccept()
        rejecting.advance(reject_kernel, steps)
        accepting.advance(accept_kernel, steps)
        assert rejecting.configurations() == accepting.configurations()
        assert reject_kernel.failure_counts(rejecting).tolist() == [steps] * 3
        assert accept_kernel.failure_counts(accepting).tolist() == [0] * 3


def _stray_hardcore(n):
    """Hardcore on a cycle whose callables read the symbol 7 as occupied."""

    def occupied(value):
        return value == 1 or value == 7

    graph = cycle_graph(n)
    factors = [Factor((v,), lambda a: 1.5 if occupied(a) else 1.0) for v in graph.nodes()]
    factors += [
        Factor((u, v), lambda a, b: 0.0 if occupied(a) and occupied(b) else 1.0)
        for u, v in graph.edges()
    ]
    return GibbsDistribution(graph, (0, 1), factors, name="stray-hardcore")


class InAlphabetExact(InferenceAlgorithm):
    """Exact marginals given the pins inside the alphabet (it ignores the rest)."""

    def locality(self, instance, error):
        return 2

    def marginal(self, instance, node, error):
        distribution = instance.distribution
        pinning = {n: v for n, v in instance.pinning.items() if v in distribution.alphabet}
        return distribution.marginal(node, pinning)


#: ``run_slocal_algorithm`` of the local-JVV sampler on ``_stray_hardcore(8)``
#: with node 0 pinned to 7, per network seed: (outputs, failed nodes, the
#: acceptance state of each node, ``None`` where the update search failed).
_A = 0.9542066659691884
STRAY_GOLDEN = {
    0: ([7, 0, 0, 0, 1, 0, 0, 0], [], [_A] * 8),
    4: ([7, 1, 0, 1, 0, 1, 0, 1], [1, 2, 3, 7], [_A, None, None, None, _A, _A, _A, None]),
    5: ([7, 0, 0, 0, 1, 0, 0, 1], [7], [_A] * 7 + [None]),
}


class TestJVVCodeTables:
    """Pass 3 weighs factors by symbol code with the floats Factor.evaluate gives."""

    @pytest.mark.parametrize("seed", sorted(STRAY_GOLDEN))
    def test_a_pin_outside_the_alphabet_is_weighed_by_its_callable(self, seed):
        from repro.localmodel import Network, run_slocal_algorithm
        from repro.sampling.jvv import LocalJVVSampler

        instance = SamplingInstance(_stray_hardcore(8), {0: 7})
        network = Network(instance.graph, seed=seed)
        result = run_slocal_algorithm(LocalJVVSampler(instance, InAlphabetExact()), network)
        outputs, failed, acceptance = STRAY_GOLDEN[seed]
        assert [result.outputs[node] for node in range(8)] == outputs
        assert [node for node in range(8) if result.failures[node]] == failed
        assert [result.states[node].get("acceptance") for node in range(8)] == acceptance

    def test_update_factors_changes_the_zero_pattern(self):
        distribution = hardcore_model(cycle_graph(6), fugacity=1.2)
        instance = SamplingInstance(distribution)
        before = sample_exact_slocal(instance, ExactInference(), seed=3)
        assert distribution.weight(before.configuration) > 0

        # Every edge must now hold an occupied end instead of at most one.
        cover = [
            Factor(factor.scope, lambda a, b: 0.0 if a == 0 and b == 0 else 1.0)
            if len(factor.scope) == 2 else factor
            for factor in distribution.factors
        ]
        distribution.update_factors(cover)
        slack = math.exp(-3.0 / 6 ** 2)
        for seed in range(4):
            result = sample_exact_slocal(instance, ExactInference(), seed=seed)
            assert distribution.weight(result.configuration) > 0
            assert result.success
        from repro.localmodel import Network, run_slocal_algorithm
        from repro.sampling.jvv import LocalJVVSampler

        run = run_slocal_algorithm(
            LocalJVVSampler(instance, ExactInference()), Network(instance.graph, seed=1)
        )
        for node in range(6):
            assert run.states[node]["acceptance"] == pytest.approx(slack, rel=1e-9)
