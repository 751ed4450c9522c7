"""Smoke and shape tests for the experiment modules (small configurations).

The full-size experiments run under ``benchmarks/``; these tests run each
experiment at a reduced size to guarantee the modules stay importable,
executable and shape-correct as the library evolves.
"""

import math

import pytest

# The experiment smoke tests run every E1--E12 module end to end; they are
# the heavyweight tail of the suite, so they carry the ``slow`` marker
# (deselect with ``-m "not slow"`` for a fast inner loop).
pytestmark = pytest.mark.slow

from repro.experiments import (
    e01_reduction_sampling,
    e02_reduction_inference,
    e03_boosting,
    e04_jvv,
    e05_ssm_inference,
    e06_hardcore_rounds,
    e07_matching_rounds,
    e08_phase_transition,
    e09_coloring,
    e10_ising,
    e11_decomposition,
    e12_baselines,
    e13_learning,
)
from repro.experiments.common import format_table, geometric_sizes

# Golden rows of the small driver calls below, recorded from the serial loop
# these drivers run.  Every value must match exactly (floats bit for bit,
# E4's run and acceptance counts included): a driver refactor that changes
# which seed a run gets, or the order of a float reduction, shows up here.
E04_EXACTNESS_ROWS = [
    {
        "model": "hardcore-C4",
        "accepted": 30,
        "runs": 58,
        "empirical_tv": 0.1380952380952381,
        "noise_floor": 0.24152294576982397,
        "failure_rate": 0.48275862068965514,
    }
]
E04_FAILURE_ROWS = [
    {"n": 4, "runs": 10, "failure_rate": 0.4, "predicted_rate": 0.5276334472589853},
    {"n": 6, "runs": 10, "failure_rate": 0.2, "predicted_rate": 0.3934693402873666},
]
E06_ROWS = [
    {
        "n": 8,
        "fugacity": 0.5,
        "inference_rounds": 8,
        "sampling_rounds": 1440,
        "exact_rounds": 22320,
        "log3_n": 8.991665603701094,
        "sample_feasible": True,
    },
    {
        "n": 16,
        "fugacity": 0.5,
        "inference_rounds": 9,
        "sampling_rounds": 2394,
        "exact_rounds": 42066,
        "log3_n": 21.313577727291484,
        "sample_feasible": True,
    },
]
E07_ROWS = [
    {
        "max_degree": 2,
        "edges": 10,
        "decay_rate": 0.5,
        "mixing_scale": 2.0,
        "sqrt_degree": 1.4142135623730951,
        "inference_rounds": 8,
        "error": 0.05,
    },
    {
        "max_degree": 4,
        "edges": 20,
        "decay_rate": 0.6096117967977924,
        "mixing_scale": 2.5615528128088303,
        "sqrt_degree": 2.0,
        "inference_rounds": 13,
        "error": 0.05,
    },
]
E08_ROWS = [
    {
        "lambda_over_lambda_c": 0.3,
        "fugacity": 1.2,
        "uniqueness": True,
        "depth": 3,
        "boundary_influence": 0.23652670691688812,
        "radius_lower_bound": 3,
        "radius_hit_diameter": True,
    },
    {
        "lambda_over_lambda_c": 3.0,
        "fugacity": 12.0,
        "uniqueness": False,
        "depth": 3,
        "boundary_influence": 0.8464536927827906,
        "radius_lower_bound": 3,
        "radius_hit_diameter": True,
    },
]


def _assert_rows_exact(rows, golden):
    # == on floats is bit-exact here: each recorded literal is the repr of
    # the value, which round-trips.  The type check keeps 1 == 1.0 and
    # True == 1 from passing for a changed column type.
    assert rows == golden
    for row, expected in zip(rows, golden):
        assert {k: type(v) for k, v in row.items()} == {
            k: type(v) for k, v in expected.items()
        }


class TestCommonHelpers:
    def test_format_table_renders_all_rows(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": 0.5}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "2.346" in text
        assert text.count("\n") == 4

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_geometric_sizes(self):
        sizes = geometric_sizes(8, 2.0, 4)
        assert sizes == [8, 16, 32, 64]
        assert geometric_sizes(3, 1.1, 3) == [3, 4, 5]
        with pytest.raises(ValueError):
            geometric_sizes(0, 2.0, 3)


class TestExperimentSmoke:
    def test_e01(self):
        rows = e01_reduction_sampling.run(errors=(0.2,), samples_per_setting=15)
        assert len(rows) == 2
        assert all(row["rounds"] >= 1 for row in rows)

    def test_e02(self):
        rows = e02_reduction_inference.run(delta=0.1, num_samples=40, probes_per_model=2)
        assert len(rows) == 4
        assert all(0.0 <= row["marginal_tv"] <= 1.0 for row in rows)

    def test_e03(self):
        rows = e03_boosting.run(epsilons=(0.5,), probes_per_model=2)
        assert len(rows) == 2
        assert all(row["boosted_mult_err"] <= 0.5 + 1e-9 for row in rows)

    def test_e04(self):
        exactness = e04_jvv.run_exactness(sizes=(4,), target_accepted=30, max_runs=200)
        assert exactness[0]["accepted"] >= 30
        _assert_rows_exact(exactness, E04_EXACTNESS_ROWS)
        scaling = e04_jvv.run_failure_scaling(sizes=(4, 6), runs_per_size=10)
        assert len(scaling) == 2
        assert all(0.0 <= row["failure_rate"] <= 1.0 for row in scaling)
        _assert_rows_exact(scaling, E04_FAILURE_ROWS)

    def test_e04_failure_rows_run_seeds_zero_upward(self):
        # Run k of a size is sample_exact_slocal with seed=k.  Every prefix
        # of the recorded per-seed failures must match, which pins the
        # seeding where one 10-run count would not.
        failed = {4: [0, 0, 0, 0, 1, 1, 1, 0, 0, 1], 6: [0, 0, 0, 0, 0, 1, 1, 0, 0, 0]}
        for runs in range(1, 11):
            rows = e04_jvv.run_failure_scaling(sizes=(4, 6), runs_per_size=runs)
            assert [row["failure_rate"] for row in rows] == [
                sum(failed[n][:runs]) / runs for n in (4, 6)
            ]

    def test_e05(self):
        rows = e05_ssm_inference.run(fugacities=(0.5, 4.0), cycle_size=10, radii=(1, 2, 3))
        assert len(rows) == 2
        assert rows[0]["radius_for_eps"] <= rows[1]["radius_for_eps"]

    def test_e06(self):
        rows = e06_hardcore_rounds.run(sizes=(8, 16))
        _assert_rows_exact(rows, E06_ROWS)
        assert all(row["sample_feasible"] for row in rows)
        exponent = e06_hardcore_rounds.fitted_exponent(rows, "inference_rounds")
        assert exponent < 1.0

    def test_e07(self):
        rows = e07_matching_rounds.run(degrees=(2, 4), nodes_per_graph=10)
        _assert_rows_exact(rows, E07_ROWS)
        assert rows[1]["inference_rounds"] >= rows[0]["inference_rounds"]
        valid, rounds = e07_matching_rounds.sample_one_matching(degree=3, nodes=8, seed=1)
        assert valid and rounds >= 1

    def test_e08(self):
        rows = e08_phase_transition.run(fugacity_ratios=(0.3, 3.0), depth=3)
        _assert_rows_exact(rows, E08_ROWS)
        gap = e08_phase_transition.transition_gap(rows)
        assert gap["min_influence_above"] >= gap["max_influence_below"] - 1e-9

    def test_e09(self):
        rows = e09_coloring.run(color_counts=(3, 4), degree=2, half_size=4, probes=2)
        assert len(rows) == 2
        assert all(row["sample_is_proper"] for row in rows)

    def test_e10(self):
        rows = e10_ising.run(interactions=(-0.1, -0.8), degree=3, nodes=8, depth=3, probes=2)
        assert len(rows) == 2
        assert rows[0]["uniqueness"] is True

    def test_e11(self):
        rows = e11_decomposition.run(sizes=(16, 32))
        assert all(row["colors"] >= 1 for row in rows)
        assert all(row["fallback_nodes"] <= row["n"] for row in rows)

    def test_e12(self):
        rows = e12_baselines.run(cycle_size=5, samples=40, glauber_rounds=(2, 20))
        names = {row["sampler"] for row in rows}
        assert "local-JVV (Thm 4.2)" in names
        assert any(name.startswith("luby-glauber") for name in names)
        assert all(0.0 <= row["tv_to_target"] <= 1.0 for row in rows)

    def test_e13(self):
        rows = e13_learning.run(
            nodes=8,
            samples=120,
            burn_in=120,
            resample=120,
            methods=("pl", "cd"),
            runtimes=("serial", "batched"),
            probes=2,
            cd_max_iter=20,
            cd_n_negative=16,
        )
        assert len(rows) == 4
        assert all(0.0 <= row["exact_marginal_tv"] <= 1.0 for row in rows)
        assert all(0.0 <= row["sampled_marginal_tv"] <= 1.0 for row in rows)
        invariance = e13_learning.backend_invariance(rows)
        assert invariance == {"cd": True, "pl": True}
