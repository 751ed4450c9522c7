"""Tests for the SSM-based (Theorem 5.1 converse) inference algorithms."""

import random

import numpy as np
import pytest

from repro.analysis import total_variation
from repro.gibbs import Factor, GibbsDistribution, SamplingInstance
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.graphs.generators import random_regular_graph, torus_graph
from repro.inference import BoundaryPaddedInference, TruncatedBallInference
from repro.inference.ssm_inference import _greedy_boundary_extension, padded_ball_marginal
from repro.models import coloring_model, hardcore_model


class TestPaddedBallMarginal:
    def test_full_radius_equals_exact(self, pinned_hardcore_instance):
        instance = pinned_hardcore_instance
        for node in instance.free_nodes:
            estimate = padded_ball_marginal(instance, node, instance.size)
            truth = instance.target_marginal(node)
            for value, probability in truth.items():
                assert estimate[value] == pytest.approx(probability)

    def test_error_decreases_with_radius(self):
        distribution = hardcore_model(cycle_graph(12), fugacity=1.0)
        instance = SamplingInstance(distribution, {0: 1})
        node = 6
        truth = instance.target_marginal(node)
        errors = []
        for radius in (0, 2, 4, 6):
            estimate = padded_ball_marginal(instance, node, radius)
            errors.append(total_variation(estimate, truth))
        assert errors[-1] <= errors[0] + 1e-12
        assert errors[-1] < 0.02

    def test_pinned_node_is_point_mass(self, pinned_hardcore_instance):
        estimate = padded_ball_marginal(pinned_hardcore_instance, 0, 1)
        assert estimate[1] == pytest.approx(1.0)

    def test_padding_is_feasible_for_colorings(self, coloring_instance):
        # The greedy boundary extension must find proper extensions even with
        # hard constraints (q = Delta + 1 colorings are locally admissible).
        for node in coloring_instance.free_nodes:
            estimate = padded_ball_marginal(coloring_instance, node, 1)
            assert sum(estimate.values()) == pytest.approx(1.0)


class TestTruncatedBallInference:
    def test_radius_zero_uses_only_the_vertex_factor(self):
        distribution = hardcore_model(cycle_graph(8), fugacity=1.0)
        instance = SamplingInstance(distribution)
        engine = TruncatedBallInference(radius=0)
        estimate = engine.marginal(instance, 0, 0.1)
        # With an empty boundary shell of radius l=1 around the single node
        # the computation sees node 0 plus its padded neighbours pinned
        # empty, so the estimate is lambda/(1+lambda).
        assert estimate[1] == pytest.approx(0.5, abs=0.2)

    def test_locality_accounts_for_factor_diameter(self):
        distribution = hardcore_model(cycle_graph(8), fugacity=1.0)
        instance = SamplingInstance(distribution)
        engine = TruncatedBallInference(radius=3)
        assert engine.locality(instance, 0.1) == 3 + 2

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            TruncatedBallInference(radius=-1)

    def test_accuracy_improves_with_radius_on_grid(self):
        distribution = hardcore_model(grid_graph(4, 4), fugacity=0.6)
        instance = SamplingInstance(distribution, {(0, 0): 1})
        node = (2, 2)
        truth = instance.target_marginal(node)
        coarse = total_variation(TruncatedBallInference(1).marginal(instance, node, 0.1), truth)
        fine = total_variation(TruncatedBallInference(3).marginal(instance, node, 0.1), truth)
        assert fine <= coarse + 1e-9


class TestBoundaryPaddedInference:
    def test_meets_requested_error_hardcore(self):
        distribution = hardcore_model(cycle_graph(10), fugacity=0.9)
        instance = SamplingInstance(distribution, {0: 1})
        engine = BoundaryPaddedInference(decay_rate=0.5)
        for error in (0.2, 0.02):
            for node in (3, 5, 7):
                estimate = engine.marginal(instance, node, error)
                truth = instance.target_marginal(node)
                assert total_variation(estimate, truth) <= error

    def test_locality_respects_max_radius(self):
        distribution = hardcore_model(cycle_graph(10), fugacity=0.9)
        instance = SamplingInstance(distribution)
        capped = BoundaryPaddedInference(decay_rate=0.9, max_radius=3)
        assert capped.locality(instance, 1e-6) <= 3 + 2

    def test_rate_read_from_metadata(self):
        from repro.models import matching_model

        distribution = matching_model(path_graph(6), edge_weight=1.0)
        instance = SamplingInstance(distribution)
        engine = BoundaryPaddedInference()
        assert engine._rate(instance) == pytest.approx(
            distribution.metadata["ssm_decay_rate"]
        )

    def test_invalid_decay_rate(self):
        with pytest.raises(ValueError):
            BoundaryPaddedInference(decay_rate=1.2)


# -- the greedy boundary extension on code tables ---------------------------


def _reference_extension(instance, shell_nodes, context_nodes):
    """The extension weighed through ``Factor.evaluate`` on value dicts."""
    distribution = instance.distribution
    context = set(context_nodes)
    assignment = {node: value for node, value in instance.pinning.items() if node in context}
    assigned = set(assignment)
    for node in sorted(shell_nodes, key=repr):
        if node in assigned:
            continue
        assigned.add(node)
        relevant = [
            factor
            for factor in distribution.factors_at(node)
            if factor.scope_set <= context and factor.scope_set <= assigned
        ]
        for value in distribution.alphabet:
            assignment[node] = value
            if all(factor.evaluate(assignment) != 0.0 for factor in relevant):
                break
            del assignment[node]
        else:
            raise RuntimeError("could not extend the pinning onto the boundary shell")
    return {node: assignment[node] for node in shell_nodes if node in assignment}


def _outcome(function, *args):
    try:
        return ("value", function(*args))
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return (type(error), str(error).split(";")[0])


def _not_all_equal_model(n):
    """A 3-symbol model with one arity-3 factor per window of a cycle."""
    graph = cycle_graph(n)

    def not_all_equal(a, b, c):
        return 0.0 if a == b == c else 1.0 + 0.25 * a

    def field(a):
        return 1.5 if a == 2 else 1.0

    factors = [Factor((i,), field) for i in range(n)]
    factors += [Factor((i, (i + 1) % n, (i + 2) % n), not_all_equal) for i in range(n)]
    return GibbsDistribution(graph, (0, 1, 2), factors, name="not-all-equal")


def _dense_model(n):
    """A cycle whose edge factors are one ``Factor.from_dense`` table."""
    table = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    graph = cycle_graph(n)
    factors = [Factor.from_dense((u, v), table, (0, 1, 2)) for u, v in graph.edges()]
    return GibbsDistribution(graph, (0, 1, 2), factors, name="dense")


def _stray_agreement(n):
    """Neighbours must agree on occupancy; the callables read 7 as occupied."""

    def occupied(value):
        return value == 1 or value == 7

    graph = cycle_graph(n)
    factors = [Factor((v,), lambda a: 1.5 if occupied(a) else 1.0) for v in graph.nodes()]
    factors += [
        Factor((u, v), lambda a, b: float(occupied(a) == occupied(b)))
        for u, v in graph.edges()
    ]
    return GibbsDistribution(graph, (0, 1), factors, name="stray-agreement")


EXTENSION_MODELS = {
    "hardcore": lambda: hardcore_model(random_regular_graph(3, 20, seed=2), fugacity=1.3),
    "3-colouring-torus": lambda: coloring_model(torus_graph(4, 4), 3),
    "arity-3": lambda: _not_all_equal_model(12),
    "from-dense": lambda: _dense_model(10),
}


def _extension_cases(distribution, pinning):
    """``(shell, context)`` of every node at radii 0-2, as padded_ball_marginal forms them."""
    cache = distribution.ball_cache()
    ell = distribution.locality()
    for node in distribution.nodes:
        for radius in (0, 1, 2):
            context = cache.ball_nodes(node, radius + 2 * ell)
            padded = cache.ball_nodes(node, radius + ell)
            inner = cache.ball_nodes(node, radius)
            shell = {v for v in padded if v not in inner and v not in pinning}
            yield shell, context


class TestGreedyBoundaryExtension:
    """The extension weighs by symbol code; every choice and failure is the
    one ``Factor.evaluate`` gives."""

    @pytest.mark.parametrize("model", sorted(EXTENSION_MODELS))
    def test_equals_the_evaluate_reference_on_seeded_pinnings(self, model):
        distribution = EXTENSION_MODELS[model]()
        rng = random.Random(f"extension:{model}")
        outcomes = set()
        for _ in range(6):
            pinning = {
                node: rng.choice(distribution.alphabet)
                for node in rng.sample(distribution.nodes, 3)
            }
            instance = SamplingInstance(distribution, pinning)
            for shell, context in _extension_cases(distribution, pinning):
                computed = _outcome(_greedy_boundary_extension, instance, shell, context)
                expected = _outcome(_reference_extension, instance, shell, context)
                assert computed == expected
                outcomes.add(computed[0])
        assert "value" in outcomes

    @pytest.mark.parametrize("build", [_stray_agreement, _dense_model], ids=["callable", "from-dense"])
    def test_a_pin_outside_the_alphabet_behaves_as_evaluate(self, build):
        distribution = build(8)
        instance = SamplingInstance(distribution, {0: 7})
        outcomes = []
        for shell, context in _extension_cases(distribution, instance.pinning):
            computed = _outcome(_greedy_boundary_extension, instance, shell, context)
            assert computed == _outcome(_reference_extension, instance, shell, context)
            outcomes.append(computed)
        if build is _dense_model:
            # The dense table's callable has no symbol 7: the weighing raises.
            assert (KeyError, "7") in outcomes
        else:
            # 7 reads as occupied, so the shell next to node 0 is occupied
            # although the empty symbol comes first.
            assert ("value", {1: 1, 7: 1}) in outcomes

    def test_update_factors_changes_the_zero_pattern(self):
        distribution = hardcore_model(cycle_graph(10), fugacity=1.0)
        instance = SamplingInstance(distribution, {0: 1})
        shell, context = {3, 7}, set(range(10)) - {5}
        assert _greedy_boundary_extension(instance, shell, context) == {3: 0, 7: 0}
        before = padded_ball_marginal(instance, 5, 1)

        # Forbid the empty symbol at every node: the extension must occupy.
        forbid_empty = [
            Factor(factor.scope, lambda *values: float(all(values)))
            if len(factor.scope) == 1 else factor
            for factor in distribution.factors
        ]
        distribution.update_factors(forbid_empty)
        assert _greedy_boundary_extension(instance, shell, context) == {3: 1, 7: 1}
        assert _reference_extension(instance, shell, context) == {3: 1, 7: 1}
        after = _outcome(padded_ball_marginal, instance, 5, 1)
        assert after != ("value", before)
