"""Tests for the strong-spatial-mixing measurement toolkit."""

import pytest

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.models import hardcore_model, hardcore_uniqueness_threshold, ising_model
from repro.spatialmixing import (
    boundary_influence,
    estimate_decay_rate,
    locality_required,
    long_range_correlation,
    ssm_profile,
)
from repro.spatialmixing.phase_transition import locality_profile


class TestBoundaryInfluence:
    def test_independent_boundary_has_no_influence(self):
        # On a path, the influence of the far end decays; with a single
        # feasible boundary configuration the influence is zero by definition.
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        tv, mult = boundary_influence(distribution, 0, [2], base_pinning={1: 1})
        # Node 1 occupied forces node 2 empty: only one feasible boundary.
        assert tv == 0.0 and mult == 0.0

    def test_adjacent_boundary_has_large_influence(self):
        distribution = hardcore_model(path_graph(4), fugacity=1.0)
        tv, mult = boundary_influence(distribution, 1, [0])
        assert tv > 0.2
        assert mult == pytest.approx(float("inf"))

    def test_center_in_boundary_rejected(self):
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        with pytest.raises(ValueError):
            boundary_influence(distribution, 0, [0, 1])

    def test_max_configs_subsampling(self):
        distribution = hardcore_model(star_graph(6), fugacity=1.0)
        tv_full, _ = boundary_influence(distribution, 0, list(range(1, 7)), max_configs=None)
        tv_sub, _ = boundary_influence(distribution, 0, list(range(1, 7)), max_configs=4, seed=1)
        assert tv_sub <= tv_full + 1e-12


class TestSSMProfile:
    def test_profile_decays_on_cycle(self):
        distribution = hardcore_model(cycle_graph(12), fugacity=1.0)
        profile = ssm_profile(distribution, 0, radii=[1, 2, 3, 4])
        assert [row["radius"] for row in profile] == [1.0, 2.0, 3.0, 4.0]
        assert profile[-1]["tv"] < profile[0]["tv"]

    def test_decay_rate_estimate_in_uniqueness_regime(self):
        distribution = hardcore_model(cycle_graph(12), fugacity=0.8)
        profile = ssm_profile(distribution, 0, radii=[1, 2, 3, 4, 5])
        rate = estimate_decay_rate(profile)
        assert 0.0 < rate < 0.9

    def test_estimate_decay_rate_needs_two_rows(self):
        with pytest.raises(ValueError):
            estimate_decay_rate([{"radius": 1.0, "tv": 0.1}])

    def test_multiplicative_column(self):
        distribution = ising_model(cycle_graph(10), interaction=0.2)
        profile = ssm_profile(distribution, 0, radii=[1, 2, 3])
        rate = estimate_decay_rate(profile, key="multiplicative")
        assert rate >= 0.0


class TestPhaseTransitionMeasures:
    def test_locality_required_small_in_uniqueness(self):
        distribution = hardcore_model(cycle_graph(12), fugacity=0.5)
        instance = SamplingInstance(distribution, {0: 1})
        radius = locality_required(instance, 6, error=0.05)
        assert radius <= 4

    def test_locality_required_zero_for_exactly_determined_node(self):
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        instance = SamplingInstance(distribution, {1: 1})
        # Node 0 neighbours an occupied node: its marginal is determined at
        # radius covering that neighbour (the +2l padding sees it at radius 0).
        assert locality_required(instance, 0, error=0.01) <= 1

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_in_process_sweep_computes_exactly_the_radii_up_to_its_answer(
        self, backend, monkeypatch
    ):
        # The compiled sweep walks the runtime's task stream in waves; in
        # process that stream is lazy and in order, so no radius past the
        # answer is ever computed.
        from repro.inference import ssm_inference
        from repro.runtime import Runtime

        radii = []
        original = ssm_inference.padded_ball_marginal

        def counting(instance, center, radius, engine=None):
            radii.append(radius)
            return original(instance, center, radius, engine=engine)

        monkeypatch.setattr(ssm_inference, "padded_ball_marginal", counting)
        instance = SamplingInstance(hardcore_model(cycle_graph(16), fugacity=1.0))
        answer = locality_required(
            instance, 3, error=0.01, max_radius=8, runtime=Runtime(backend)
        )
        assert answer == locality_required(
            instance, 3, error=0.01, max_radius=8, engine="dict"
        )
        assert 2 < answer <= 8
        assert radii == list(range(answer + 1))

    def test_locality_required_validation(self):
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        instance = SamplingInstance(distribution)
        with pytest.raises(ValueError):
            locality_required(instance, 0, error=0.0)

    def test_long_range_correlation_decays_below_threshold(self):
        # Star graph: the hardcore model on a star with high fugacity has a
        # strong correlation between the hub and the leaves, while a path in
        # the uniqueness regime decorrelates quickly.
        unique = hardcore_model(path_graph(9), fugacity=0.5)
        instance = SamplingInstance(unique)
        near = long_range_correlation(instance, 4, distance=1)
        far = long_range_correlation(instance, 4, distance=4)
        assert far < near

    def test_locality_profile_rows(self):
        instances = [
            SamplingInstance(hardcore_model(cycle_graph(n), fugacity=0.5), {0: 1})
            for n in (6, 8, 10)
        ]
        rows = locality_profile(instances, lambda inst: inst.size // 2, error=0.1)
        assert [row["size"] for row in rows] == [6.0, 8.0, 10.0]
        assert all(row["radius"] >= 0 for row in rows)
