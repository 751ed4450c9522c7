"""Tests for the inference => sampling reduction (Theorem 3.2)."""

import pytest

from repro.analysis import empirical_distribution, total_variation
from repro.analysis.distances import configuration_key
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, path_graph
from repro.inference import BoundaryPaddedInference, ExactInference, correlation_decay_for
from repro.models import coloring_model, hardcore_model
from repro.sampling import (
    enumerate_target_distribution,
    sample_approximate_local,
    sample_approximate_slocal,
)


class TestSequentialSamplerCorrectness:
    def test_outputs_are_feasible_and_respect_pinning(self):
        distribution = hardcore_model(cycle_graph(8), fugacity=1.0)
        instance = SamplingInstance(distribution, {0: 1, 4: 0})
        engine = correlation_decay_for(distribution)
        for seed in range(10):
            result = sample_approximate_slocal(instance, engine, 0.1, seed=seed)
            configuration = result.configuration
            assert configuration[0] == 1 and configuration[4] == 0
            assert distribution.weight(configuration) > 0
            assert result.success

    def test_exact_inference_gives_exact_sampler_distribution(self):
        # With a zero-error inference oracle the sequential sampler is an
        # exact sampler; check the empirical distribution on a small instance.
        distribution = hardcore_model(path_graph(4), fugacity=1.0)
        instance = SamplingInstance(distribution)
        engine = ExactInference()
        truth = enumerate_target_distribution(instance)
        samples = [
            configuration_key(sample_approximate_slocal(instance, engine, 0.01, seed=s).configuration)
            for s in range(800)
        ]
        empirical = empirical_distribution(samples)
        # 8 outcomes, 800 samples: statistical noise is ~0.05; allow 0.1.
        assert total_variation(empirical, truth) < 0.1

    def test_tv_error_within_requested_bound_per_node(self):
        # Marginal check (cheaper than the full joint): the per-node sampled
        # frequencies must track the true marginals within delta plus noise.
        distribution = coloring_model(cycle_graph(5), num_colors=3)
        instance = SamplingInstance(distribution, {0: 2})
        engine = BoundaryPaddedInference(decay_rate=0.5)
        delta = 0.05
        counts = {node: {} for node in instance.free_nodes}
        runs = 400
        for seed in range(runs):
            configuration = sample_approximate_slocal(instance, engine, delta, seed=seed).configuration
            for node in instance.free_nodes:
                counts[node][configuration[node]] = counts[node].get(configuration[node], 0) + 1
        for node in instance.free_nodes:
            empirical = {value: count / runs for value, count in counts[node].items()}
            truth = instance.target_marginal(node)
            assert total_variation(empirical, truth) < delta + 0.08

    def test_any_ordering_allowed(self):
        distribution = hardcore_model(cycle_graph(6), fugacity=1.0)
        instance = SamplingInstance(distribution)
        engine = ExactInference()
        ordering = [3, 1, 5, 0, 2, 4]
        result = sample_approximate_slocal(instance, engine, 0.1, seed=1, ordering=ordering)
        assert list(result.ordering) == ordering
        assert distribution.weight(result.configuration) > 0

    def test_error_validation(self):
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        instance = SamplingInstance(distribution)
        from repro.sampling.sequential import SequentialSamplingAlgorithm

        with pytest.raises(ValueError):
            SequentialSamplingAlgorithm(instance, ExactInference(), 0.0)


class TestLocalSimulation:
    def test_local_run_reports_polylog_overhead(self):
        distribution = hardcore_model(cycle_graph(10), fugacity=0.8)
        instance = SamplingInstance(distribution)
        engine = correlation_decay_for(distribution, decay_rate=0.5)
        slocal = sample_approximate_slocal(instance, engine, 0.1, seed=0)
        local = sample_approximate_local(instance, engine, 0.1, seed=0)
        assert local.rounds > slocal.rounds
        assert local.details["mode"] == "local"
        assert "num_colors" in local.details

    def test_local_run_output_is_feasible(self):
        distribution = hardcore_model(cycle_graph(9), fugacity=1.0)
        instance = SamplingInstance(distribution, {0: 1})
        engine = correlation_decay_for(distribution)
        result = sample_approximate_local(instance, engine, 0.1, seed=5)
        assert distribution.weight(result.configuration) > 0
        assert result.configuration[0] == 1


class TestSequentialKernel:
    """The sequential scan as a chain kernel (repro.sampling.kernels)."""

    # The batched==serial states sweep for this kernel lives in the
    # cross-backend conformance harness (tests/test_conformance.py).

    def test_one_scan_is_feasible_and_respects_pinning(self):
        from repro.sampling.sequential import sequential_scan_sample

        distribution = hardcore_model(cycle_graph(8), fugacity=1.0)
        instance = SamplingInstance(distribution, {0: 1, 4: 0})
        state = sequential_scan_sample(instance, len(instance.free_nodes), seed=3)
        assert state[0] == 1 and state[4] == 0
        assert distribution.weight(state) > 0
