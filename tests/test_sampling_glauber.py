"""Tests for the Glauber-dynamics baselines."""

import math

import pytest

from repro.analysis import empirical_distribution, total_variation
from repro.analysis.distances import configuration_key
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, grid_graph, path_graph, star_graph
from repro.models import coloring_model, hardcore_model
from repro.sampling import (
    enumerate_target_distribution,
    glauber_sample,
    greedy_feasible_configuration,
    luby_glauber_sample,
)
from repro.sampling.glauber import (
    greedy_start_codes,
    local_conditional,
    warm_start_configuration,
)


class TestGreedyConfiguration:
    def test_feasible_and_respects_pinning(self):
        distribution = coloring_model(cycle_graph(6), num_colors=3)
        instance = SamplingInstance(distribution, {0: 1, 3: 2})
        configuration = greedy_feasible_configuration(instance)
        assert distribution.weight(configuration) > 0
        assert configuration[0] == 1 and configuration[3] == 2

    def test_raises_when_not_locally_admissible(self):
        # 2-coloring a triangle is infeasible; the greedy construction must
        # detect the dead end rather than return an invalid configuration.
        distribution = coloring_model(cycle_graph(3), num_colors=2)
        instance = SamplingInstance(distribution)
        with pytest.raises(RuntimeError):
            greedy_feasible_configuration(instance)


class TestGreedyStartMemo:
    """The compiled greedy start is built once per instance and engine."""

    def test_repeated_calls_return_equal_but_distinct_dicts(self):
        instance = SamplingInstance(coloring_model(cycle_graph(6), num_colors=3), {0: 1})
        first = greedy_feasible_configuration(instance)
        second = greedy_feasible_configuration(instance)
        assert first == second and first is not second
        first[2] = 2 if first[2] != 2 else 0
        assert greedy_feasible_configuration(instance) == second
        codes = greedy_start_codes(instance)
        assert greedy_start_codes(instance) is codes
        assert not codes.flags.writeable

    def test_conditioned_instance_gets_its_own_start(self):
        instance = SamplingInstance(coloring_model(path_graph(5), num_colors=3))
        assert greedy_feasible_configuration(instance) == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        conditioned = instance.conditioned({1: 0})
        assert greedy_feasible_configuration(conditioned) == {
            0: 1, 1: 0, 2: 1, 3: 0, 4: 1
        }
        assert greedy_feasible_configuration(instance)[1] == 1

    def test_reweighted_distribution_gets_a_fresh_start(self):
        distribution = hardcore_model(path_graph(4), fugacity=1.0)
        instance = SamplingInstance(distribution)
        before = greedy_start_codes(instance)
        distribution.update_factors(hardcore_model(path_graph(4), fugacity=3.0).factors)
        after = greedy_start_codes(instance)
        assert after is not before
        assert instance._greedy_start[0] is distribution.compiled_engine()

    def test_stuck_construction_raises_on_every_call(self):
        instance = SamplingInstance(coloring_model(cycle_graph(3), num_colors=2))
        messages = set()
        for _ in range(3):
            with pytest.raises(RuntimeError) as error:
                greedy_feasible_configuration(instance)
            messages.add(str(error.value))
        assert len(messages) == 1
        assert instance._greedy_start is None


GREEDY_INSTANCES = {
    "hardcore": lambda: SamplingInstance(hardcore_model(cycle_graph(7), fugacity=1.3)),
    "3-colouring": lambda: SamplingInstance(coloring_model(grid_graph(3, 3), num_colors=3)),
    "pinned": lambda: SamplingInstance(
        coloring_model(cycle_graph(6), num_colors=3), {0: 1, 3: 2}
    ),
}


@pytest.mark.parametrize("label", sorted(GREEDY_INSTANCES))
class TestStartProperties:
    """The greedy and warm starts, checked against ``Factor.evaluate``."""

    def test_greedy_start_takes_the_first_feasible_value(self, label):
        instance = GREEDY_INSTANCES[label]()
        distribution = instance.distribution
        alphabet = list(distribution.alphabet)
        start = greedy_feasible_configuration(instance)
        assert {node: start[node] for node in instance.pinning} == instance.pinning.as_dict()
        assert distribution.weight(start) > 0.0
        assigned = set(instance.pinning)
        for node in distribution.nodes:
            if node in instance.pinning:
                continue
            assigned.add(node)
            inside = [f for f in distribution.factors if f.scope_set <= assigned]

            def feasible(value):
                trial = dict(start)
                trial[node] = value
                return all(factor.evaluate(trial) > 0.0 for factor in inside)

            chosen = alphabet.index(start[node])
            assert feasible(alphabet[chosen])
            assert not any(feasible(value) for value in alphabet[:chosen])

    def test_warm_start_is_greedy_then_a_first_argmax_fixed_point(self, label):
        instance = GREEDY_INSTANCES[label]()
        alphabet = instance.distribution.alphabet
        assert warm_start_configuration(instance, sweeps=0) == (
            greedy_feasible_configuration(instance)
        )
        warm = warm_start_configuration(instance, sweeps=100)
        for node in instance.free_nodes:
            conditional = local_conditional(instance, warm, node, engine="dict")
            assert warm[node] == max(alphabet, key=conditional.__getitem__)


class TestLocalConditional:
    def test_hardcore_conditional(self):
        distribution = hardcore_model(star_graph(3), fugacity=2.0)
        instance = SamplingInstance(distribution)
        configuration = {0: 0, 1: 0, 2: 0, 3: 0}
        conditional = local_conditional(instance, configuration, 0)
        assert conditional[1] == pytest.approx(2.0 / 3.0)
        configuration[1] = 1
        blocked = local_conditional(instance, configuration, 0)
        assert blocked[1] == pytest.approx(0.0)

    def test_matches_exact_conditional(self):
        distribution = hardcore_model(cycle_graph(5), fugacity=1.3)
        instance = SamplingInstance(distribution)
        configuration = greedy_feasible_configuration(instance)
        node = 2
        rest = {u: v for u, v in configuration.items() if u != node}
        expected = instance.distribution.marginal(node, rest)
        computed = local_conditional(instance, configuration, node)
        for value in distribution.alphabet:
            assert computed[value] == pytest.approx(expected[value])


class TestGlauberChains:
    def test_states_stay_feasible(self):
        distribution = hardcore_model(cycle_graph(7), fugacity=1.0)
        instance = SamplingInstance(distribution, {0: 1})
        state = glauber_sample(instance, steps=200, seed=1)
        assert distribution.weight(state) > 0
        assert state[0] == 1
        parallel = luby_glauber_sample(instance, rounds=50, seed=1)
        assert distribution.weight(parallel) > 0
        assert parallel[0] == 1

    def test_zero_steps_returns_initial(self):
        distribution = hardcore_model(path_graph(4), fugacity=1.0)
        instance = SamplingInstance(distribution)
        initial = greedy_feasible_configuration(instance)
        assert glauber_sample(instance, steps=0, seed=0, initial=initial) == initial

    def test_negative_steps_rejected(self):
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        instance = SamplingInstance(distribution)
        with pytest.raises(ValueError):
            glauber_sample(instance, steps=-1)
        with pytest.raises(ValueError):
            luby_glauber_sample(instance, rounds=-1)

    def test_glauber_converges_to_target(self):
        # Long single-site chains on a tiny instance approach the target
        # distribution (the chain is ergodic for this locally admissible model).
        distribution = hardcore_model(path_graph(4), fugacity=1.0)
        instance = SamplingInstance(distribution)
        truth = enumerate_target_distribution(instance)
        samples = [
            configuration_key(glauber_sample(instance, steps=60, seed=seed))
            for seed in range(500)
        ]
        empirical = empirical_distribution(samples)
        noise = 3.0 * math.sqrt(len(truth) / (4.0 * 500)) + 0.03
        assert total_variation(empirical, truth) < noise

    def test_luby_glauber_converges_to_target(self):
        distribution = hardcore_model(cycle_graph(5), fugacity=1.0)
        instance = SamplingInstance(distribution)
        truth = enumerate_target_distribution(instance)
        samples = [
            configuration_key(luby_glauber_sample(instance, rounds=40, seed=seed))
            for seed in range(500)
        ]
        empirical = empirical_distribution(samples)
        noise = 3.0 * math.sqrt(len(truth) / (4.0 * 500)) + 0.03
        assert total_variation(empirical, truth) < noise

    def test_fully_pinned_instance_is_constant(self):
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        pinning = {0: 1, 1: 0, 2: 1}
        instance = SamplingInstance(distribution, pinning)
        assert glauber_sample(instance, steps=10, seed=0) == pinning
        assert luby_glauber_sample(instance, rounds=10, seed=0) == pinning
