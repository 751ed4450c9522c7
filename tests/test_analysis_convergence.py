"""Tests for the multi-chain convergence diagnostics (split R-hat, ESS)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import chains_mixed, effective_sample_size, split_r_hat


def _iid_traces(chains=8, draws=200, seed=0):
    return np.random.default_rng(seed).normal(size=(chains, draws))


class TestSplitRHat:
    def test_iid_chains_are_mixed(self):
        traces = _iid_traces()
        value = split_r_hat(traces)
        assert 0.9 < value < 1.1
        assert chains_mixed(traces)

    def test_disagreeing_chains_are_flagged(self):
        rng = np.random.default_rng(1)
        traces = rng.normal(size=(6, 100)) + 10.0 * np.arange(6)[:, None]
        assert split_r_hat(traces) > 2.0
        assert not chains_mixed(traces)

    def test_trending_chains_are_flagged_by_the_split(self):
        # Every chain drifts identically: whole-chain means agree, but the
        # split halves do not -- exactly what split R-hat exists to catch.
        rng = np.random.default_rng(2)
        drift = np.linspace(0.0, 8.0, 100)
        traces = rng.normal(scale=0.1, size=(6, 100)) + drift
        assert split_r_hat(traces) > 1.5

    def test_short_traces_are_nan(self):
        assert math.isnan(split_r_hat(np.zeros((4, 3))))
        assert not chains_mixed(np.zeros((4, 3)))

    def test_constant_traces(self):
        assert split_r_hat(np.ones((4, 20))) == 1.0
        constant_but_distinct = np.arange(4.0)[:, None] * np.ones((4, 20))
        assert math.isinf(split_r_hat(constant_but_distinct))

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            split_r_hat(np.zeros(10))


class TestEffectiveSampleSize:
    def test_iid_chains_have_near_nominal_ess(self):
        traces = _iid_traces(chains=8, draws=300, seed=3)
        ess = effective_sample_size(traces)
        assert ess > 0.5 * traces.size
        assert ess <= traces.size

    def test_correlated_chains_have_small_ess(self):
        # Strongly autocorrelated AR(1) chains carry far fewer effective
        # samples than their nominal draw count.
        rng = np.random.default_rng(4)
        chains, draws = 6, 300
        traces = np.empty((chains, draws))
        state = rng.normal(size=chains)
        for t in range(draws):
            state = 0.97 * state + rng.normal(scale=0.1, size=chains)
            traces[:, t] = state
        assert effective_sample_size(traces) < 0.2 * traces.size

    def test_short_or_constant_traces_are_nan(self):
        assert math.isnan(effective_sample_size(np.zeros((4, 3))))
        assert math.isnan(effective_sample_size(np.ones((4, 50))))


class TestOnChainTraces:
    def test_luby_traces_mix_with_enough_rounds(self):
        from repro.gibbs import SamplingInstance
        from repro.graphs import cycle_graph
        from repro.models import hardcore_model
        from repro.runtime import ChainBatch

        instance = SamplingInstance(hardcore_model(cycle_graph(8), fugacity=1.0))
        batch = ChainBatch(instance, n_chains=24, seed=5)
        traces = batch.advance(
            "luby-glauber", 80, statistic=lambda codes: codes.mean(axis=1)
        )
        value = split_r_hat(traces)
        assert np.isfinite(value)
        # 80 rounds on an 8-cycle is far past mixing for this model.
        assert value < 1.2
        assert effective_sample_size(traces) > 24
