"""E4 -- Theorem 4.2: the distributed JVV sampler is exact with failure O(1/n).

Three measurements:

* **Exactness.**  Conditioned on acceptance, the empirical distribution of
  the sampler's output must be within Monte-Carlo noise of the enumerated
  target distribution.
* **Failure probability.**  The per-run failure probability shrinks with the
  instance size (the per-node acceptance is ``exp(-Theta(1/n^2))``, so the
  global failure probability is ``1 - exp(-Theta(1/n)) = O(1/n)``).
* **Rejection-kernel failure law.**  The same acceptance mathematics through
  the chain-kernel API (:class:`repro.sampling.jvv.JVVKernel`): many
  independent rejection chains advance one full scan each and the fraction
  of chains with at least one rejected step is compared to the predicted
  ``1 - e^{-3 n_free / n^2}``.  With ``runtime="batched"`` the chains run
  as one ``(chains, n)`` code matrix with per-chain acceptance masks --
  bit-identical failure counts to the serial loop.

The SLOCAL measurements run their independent sampler runs one at a time
in-process; only the kernel measurement takes a ``runtime=`` knob (see
:mod:`repro.runtime`), which reaches the unified ``run_chains`` path.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.analysis import empirical_distribution, total_variation
from repro.analysis.distances import configuration_key
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.inference import ExactInference
from repro.models import hardcore_model
from repro.sampling import enumerate_target_distribution, sample_exact_slocal


def run_exactness(
    sizes=(5, 6), target_accepted: int = 220, max_runs: int = 1200
) -> List[Dict]:
    """Exactness rows: empirical-vs-target TV, per instance size.

    Sampler runs are seeded by their index and run one at a time until
    ``target_accepted`` samples are accepted or ``max_runs`` runs are spent.
    """
    rows: List[Dict] = []
    engine = ExactInference()
    for n in sizes:
        distribution = hardcore_model(cycle_graph(n), fugacity=1.0)
        instance = SamplingInstance(distribution)
        truth = enumerate_target_distribution(instance)
        accepted = []
        runs = 0
        while len(accepted) < target_accepted and runs < max_runs:
            result = sample_exact_slocal(instance, engine, seed=runs)
            runs += 1
            if result.success:
                accepted.append(configuration_key(result.configuration))
        empirical = empirical_distribution(accepted)
        noise = math.sqrt(len(truth) / (4.0 * max(1, len(accepted))))
        rows.append(
            {
                "model": f"hardcore-C{n}",
                "accepted": len(accepted),
                "runs": runs,
                "empirical_tv": total_variation(empirical, truth),
                "noise_floor": noise,
                "failure_rate": 1.0 - len(accepted) / runs,
            }
        )
    return rows


def run_failure_scaling(
    sizes=(4, 6, 8, 10, 12), runs_per_size: int = 50
) -> List[Dict]:
    """Failure-probability rows: failure rate and the O(1/n) prediction."""
    rows: List[Dict] = []
    engine = ExactInference()
    for n in sizes:
        distribution = hardcore_model(cycle_graph(n), fugacity=1.0)
        instance = SamplingInstance(distribution)
        failures = sum(
            1
            for seed in range(runs_per_size)
            if not sample_exact_slocal(instance, engine, seed=seed).success
        )
        rows.append(
            {
                "n": n,
                "runs": runs_per_size,
                "failure_rate": failures / runs_per_size,
                "predicted_rate": 1.0 - math.exp(-3.0 / n),
            }
        )
    return rows


def run_rejection_kernel(
    sizes=(16, 32, 64), chains: int = 64, scans: int = 1, runtime=None
) -> List[Dict]:
    """Rejection-kernel rows: per-chain failure fraction vs the e^{-3/n} law.

    Each of ``chains`` independent rejection chains advances ``scans`` full
    scans (``scans * n_free`` kernel steps) of
    :class:`~repro.sampling.jvv.JVVKernel`; a chain *fails* when any of its
    steps rejected.  The failure fraction is compared against the paper's
    prediction ``1 - e^{-3 * steps / n^2}`` (Lemma 4.8 telescoped over the
    scan).  Failure counts are bit-identical across runtimes: the batched
    backend accumulates them through per-chain acceptance masks, the serial
    reference counts per chain -- both under the spawned-seed convention.
    """
    from repro.sampling.jvv import jvv_chain_stats

    rows: List[Dict] = []
    for n in sizes:
        distribution = hardcore_model(cycle_graph(n), fugacity=1.0)
        instance = SamplingInstance(distribution)
        steps = scans * len(instance.free_nodes)
        _, counts = jvv_chain_stats(
            instance, steps, n_chains=chains, seed=0, runtime=runtime
        )
        failed = sum(1 for count in counts if count > 0)
        rows.append(
            {
                "n": n,
                "chains": chains,
                "steps": steps,
                "failure_rate": failed / chains,
                "predicted_rate": 1.0 - math.exp(-3.0 * steps / max(2, n) ** 2),
                "mean_rejections": sum(counts) / chains,
            }
        )
    return rows
