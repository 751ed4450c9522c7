"""Learning subsystem tests: gradients, recovery, and backend bit-identity.

The contract of :mod:`repro.learning` is threefold:

* the pseudo-likelihood gradient is *exact* (finite differences agree to
  working precision) and the sufficient statistics match the families'
  log-weight parameterisation;
* both estimators recover the generating weights of a seeded small Ising
  model within documented tolerances (PL: 0.05, CD: 0.15);
* the CD negative phase rides ``Runtime.run_chains`` with explicit
  per-iteration seeds, so fitted weights are bit-identical across the
  serial, batched and process backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, path_graph
from repro.learning import (
    HardcoreFamily,
    IsingFamily,
    Trainer,
    cd_gradient,
    decode_codes,
    empirical_node_marginals,
    encode_configurations,
    factor_value_counts,
    family_by_name,
    feature_counts,
    fit,
    follow_gradient,
    maximize_ascent,
    negative_phase_seeds,
    persistent_state,
    pl_value_and_grad,
)
from repro.models import hardcore_model, ising_model
from repro.runtime import ChainBatch, Runtime

#: Documented weight-recovery tolerances (see docs/ARCHITECTURE.md): the
#: exact-gradient PL estimator lands within 0.05 of the generating weights
#: on the calibration workload; the sampled-gradient CD estimator within
#: 0.15 at its default schedule.
PL_TOLERANCE = 0.05
CD_TOLERANCE = 0.15

TRUE_INTERACTION = 0.4
TRUE_FIELD = 0.25


def _ising_dataset(n=10, samples=400, burn_in=300, seed=42):
    graph = cycle_graph(n)
    distribution = ising_model(
        graph, interaction=TRUE_INTERACTION, external_field=TRUE_FIELD
    )
    instance = SamplingInstance(distribution, {})
    runtime = Runtime("batched", n_chains=samples)
    states = runtime.run_chains("glauber", instance, burn_in, seed=seed)
    family = IsingFamily(graph)
    codes = encode_configurations(family.template().compiled_engine(), states)
    return family, codes


@pytest.fixture(scope="module")
def ising_dataset():
    return _ising_dataset()


class TestSuffstats:
    def test_encode_decode_roundtrip(self):
        distribution = hardcore_model(cycle_graph(6), 1.3)
        compiled = distribution.compiled_engine()
        runtime = Runtime("batched", n_chains=5)
        states = runtime.run_chains(
            "glauber", SamplingInstance(distribution, {}), 30, seed=1
        )
        codes = encode_configurations(compiled, states)
        assert codes.shape == (5, 6)
        assert decode_codes(compiled, codes) == states

    def test_encode_rejects_missing_nodes_and_foreign_values(self):
        compiled = hardcore_model(path_graph(3), 1.0).compiled_engine()
        with pytest.raises(ValueError, match="missing"):
            encode_configurations(compiled, [{0: 0, 1: 0}])
        with pytest.raises(ValueError, match="alphabet"):
            encode_configurations(compiled, [{0: 0, 1: 0, 2: 7}])

    def test_empirical_marginals_and_factor_counts(self):
        compiled = hardcore_model(path_graph(3), 1.0).compiled_engine()
        codes = np.array([[0, 0, 0], [1, 0, 1], [1, 0, 0], [0, 0, 1]])
        marginals = empirical_node_marginals(compiled, codes)
        assert marginals.shape == (3, 2)
        assert np.allclose(marginals.sum(axis=1), 1.0)
        assert np.allclose(marginals[0], [0.5, 0.5])
        counts = factor_value_counts(compiled, codes)
        assert len(counts) == len(compiled.scopes)
        for scope, count in zip(compiled.scopes, counts):
            assert count.shape == (2,) * len(scope)
            assert count.sum() == len(codes)

    def test_feature_counts_match_family_features(self, ising_dataset):
        family, codes = ising_dataset
        phi = family.features(codes)
        assert phi.shape == (codes.shape[0], 2)
        assert feature_counts(family, codes) is not phi  # fresh array
        assert np.array_equal(feature_counts(family, codes), phi)


class TestFamilies:
    def test_ising_features_are_exact_log_weight_gradients(self):
        graph = cycle_graph(6)
        family = IsingFamily(graph)
        theta = np.array([0.3, -0.2])
        distribution = family.build(theta)
        compiled = distribution.compiled_engine()
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 2, size=(8, 6))
        phi = family.features(codes)
        eps = 1e-6
        for j in range(2):
            bump = theta.copy()
            bump[j] += eps
            bumped = family.build(bump).compiled_engine()
            for i, row in enumerate(codes):
                configuration = dict(zip(compiled.nodes, (int(v) for v in row)))
                base = np.log(compiled.configuration_weight(configuration))
                high = np.log(bumped.configuration_weight(configuration))
                assert (high - base) / eps == pytest.approx(phi[i, j], abs=1e-4)

    def test_local_features_match_generic_fallback(self, ising_dataset):
        from repro.learning.families import ModelFamily

        family, codes = ising_dataset
        sample = codes[:16]
        for column in range(codes.shape[1]):
            fast = family.local_features(sample, column)
            generic = ModelFamily.local_features(family, sample, column)
            assert np.allclose(fast, generic)

    def test_hardcore_local_features(self):
        from repro.learning.families import ModelFamily

        family = HardcoreFamily(path_graph(4))
        codes = np.array([[0, 1, 0, 1], [0, 0, 0, 0]])
        local = family.local_features(codes, 1)
        generic = ModelFamily.local_features(family, codes, 1)
        assert np.allclose(local, generic)

    def test_family_by_name(self):
        graph = cycle_graph(4)
        assert isinstance(family_by_name("ising", graph), IsingFamily)
        assert isinstance(family_by_name("hardcore", graph), HardcoreFamily)
        with pytest.raises(ValueError, match="family"):
            family_by_name("potts", graph)


class TestPseudolikelihood:
    @pytest.mark.parametrize(
        "family_name,theta",
        [("ising", np.array([0.3, -0.1])), ("hardcore", np.array([0.4]))],
    )
    def test_gradient_matches_finite_differences(self, family_name, theta):
        graph = cycle_graph(6)
        family = family_by_name(family_name, graph)
        distribution = family.build(theta)
        runtime = Runtime("batched", n_chains=24)
        states = runtime.run_chains(
            "glauber", SamplingInstance(distribution, {}), 60, seed=9
        )
        codes = encode_configurations(family.template().compiled_engine(), states)
        value, grad = pl_value_and_grad(family, codes, theta, l2=0.3)
        eps = 1e-6
        for j in range(family.n_parameters):
            high = theta.copy()
            high[j] += eps
            low = theta.copy()
            low[j] -= eps
            fd = (
                pl_value_and_grad(family, codes, high, l2=0.3)[0]
                - pl_value_and_grad(family, codes, low, l2=0.3)[0]
            ) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-5)
        assert value < 0.0  # a log-probability average

    def test_recovers_ising_weights(self, ising_dataset):
        family, codes = ising_dataset
        result = fit(family, codes, method="pl")
        assert result.converged
        errors = np.abs(result.theta - np.array([TRUE_INTERACTION, TRUE_FIELD]))
        assert errors.max() < PL_TOLERANCE
        # The FitResult carries a usable distribution at the fitted weights.
        assert result.distribution.compiled_engine().nodes == family.template().compiled_engine().nodes
        assert result.parameters().keys() == {"interaction", "external_field"}


class TestContrastiveDivergence:
    def test_negative_phase_seeds_are_iteration_keyed(self):
        a = negative_phase_seeds(3, 0, 4)
        b = negative_phase_seeds(3, 1, 4)
        assert len(a) == len(b) == 4
        assert [s.generate_state(2).tolist() for s in a] != [
            s.generate_state(2).tolist() for s in b
        ]

    def test_gradient_is_bit_identical_across_backends(self, ising_dataset):
        family, codes = ising_dataset
        theta = np.array([0.1, 0.1])
        process = Runtime("process", n_chains=1, n_workers=2)
        try:
            grads = [
                cd_gradient(
                    family,
                    codes,
                    theta,
                    runtime=runtime,
                    k=2,
                    n_negative=6,
                    seed=11,
                    iteration=3,
                )[0]
                for runtime in (None, Runtime("batched"), process)
            ]
        finally:
            process.shutdown()
        assert np.array_equal(grads[0], grads[1])
        assert np.array_equal(grads[0], grads[2])

    def test_recovers_ising_weights(self, ising_dataset):
        family, codes = ising_dataset
        result = fit(family, codes, method="cd", runtime="batched", seed=0)
        errors = np.abs(result.theta - np.array([TRUE_INTERACTION, TRUE_FIELD]))
        assert errors.max() < CD_TOLERANCE

    def test_fitted_weights_identical_across_backends(self, ising_dataset):
        family, codes = ising_dataset
        options = dict(method="cd", max_iter=6, n_negative=6, k=2, seed=5)
        process = Runtime("process", n_chains=1, n_workers=2)
        try:
            thetas = [
                fit(family, codes, runtime=runtime, **options).theta
                for runtime in ("serial", "batched", process)
            ]
        finally:
            process.shutdown()
        assert np.array_equal(thetas[0], thetas[1])
        assert np.array_equal(thetas[0], thetas[2])

    def test_persistent_cd_smoke(self, ising_dataset):
        family, codes = ising_dataset
        result = fit(
            family,
            codes,
            method="cd",
            runtime="batched",
            persistent=True,
            max_iter=10,
            n_negative=8,
            seed=1,
        )
        assert np.all(np.isfinite(result.theta))
        assert result.iterations == 10

    def test_persistent_cd_identical_on_serial_and_batched(self, ising_dataset):
        family, codes = ising_dataset
        options = dict(
            method="cd", persistent=True, max_iter=10, n_negative=8, seed=1
        )
        thetas = [
            fit(family, codes, runtime=runtime, **options).theta
            for runtime in ("serial", "batched")
        ]
        assert np.array_equal(thetas[0], thetas[1])

    def test_persistent_state_is_a_claimed_batch(self, ising_dataset):
        family, codes = ising_dataset
        theta = np.array([0.1, 0.1])
        state = persistent_state(family, theta, codes, n_negative=5, seed=2)
        assert isinstance(state, ChainBatch) and state.kind == "glauber"
        # Chain c starts at data row c mod m.
        assert np.array_equal(state.codes, codes[np.arange(5) % len(codes)])
        with pytest.raises(ValueError, match="kernel"):
            cd_gradient(
                family, codes, theta, kernel="sequential", runtime="batched", state=state
            )


class TestOptimizers:
    def test_ascent_maximises_a_quadratic(self):
        target = np.array([1.5, -2.0])

        def value_and_grad(theta):
            delta = theta - target
            return -float(delta @ delta), -2 * delta

        result = maximize_ascent(value_and_grad, np.zeros(2), tol=1e-8)
        assert result.converged
        assert np.allclose(result.theta, target, atol=1e-6)
        assert result.trajectory[0]["value"] <= result.value

    def test_follow_gradient_schedule_is_deterministic(self):
        def grad_fn(theta, iteration):
            return -theta + 1.0

        a = follow_gradient(grad_fn, np.zeros(2), step=0.2, decay=0.9, max_iter=20)
        b = follow_gradient(grad_fn, np.zeros(2), step=0.2, decay=0.9, max_iter=20)
        assert np.array_equal(a.theta, b.theta)
        assert len(a.trajectory) == 20


class TestTrainerFacade:
    def test_accepts_configuration_dicts(self, ising_dataset):
        family, codes = ising_dataset
        compiled = family.template().compiled_engine()
        states = decode_codes(compiled, codes[:64])
        trainer = Trainer(family, method="pl", max_iter=30)
        result = trainer.fit(states)
        assert np.all(np.isfinite(result.theta))

    def test_rejects_bad_method_and_theta0(self, ising_dataset):
        family, codes = ising_dataset
        with pytest.raises(ValueError, match="method"):
            Trainer(family, method="mle")
        with pytest.raises(ValueError, match="parameters"):
            Trainer(family, max_iter=2).fit(codes, theta0=np.zeros(5))

    def test_obs_spans_and_metrics(self, ising_dataset):
        from repro import obs

        family, codes = ising_dataset
        handle = obs.enable()
        try:
            fit(family, codes[:64], method="pl", max_iter=5)
            names = {event["name"] for event in handle.tracer.events()}
            assert "learning.fit" in names
            assert "learning.iteration" in names
            assert handle.metrics.counter("learning.fits").value >= 1
        finally:
            obs.disable()


class TestCli:
    def test_repro_fit_json_round_trip(self, capsys):
        import json

        from repro.learning.cli import main

        code = main(
            [
                "--family",
                "ising",
                "--graph",
                "cycle:8",
                "--samples",
                "120",
                "--burn-in",
                "80",
                "--method",
                "pl",
                "--seed",
                "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "ising"
        assert set(payload["parameters"]) == {"interaction", "external_field"}

    def test_repro_fit_table_output(self, capsys):
        from repro.learning.cli import main

        assert (
            main(
                [
                    "--family",
                    "hardcore",
                    "--graph",
                    "path:6",
                    "--samples",
                    "60",
                    "--burn-in",
                    "40",
                    "--max-iter",
                    "10",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "log_fugacity" in out
        assert "fitted" in out
