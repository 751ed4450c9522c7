"""E12 -- Baseline comparison: local-JVV versus Markov-chain samplers.

The prior approach to distributed sampling (Feng--Sun--Yin 2017) parallelises
Glauber dynamics (LubyGlauber); the paper's JVV-based sampler instead has a
fixed round budget and certifiable failures, and is *exact* conditioned on
success.  On a small hardcore instance we compare, at matched sample counts:

* the total-variation distance of each sampler's empirical output
  distribution from the enumerated target, and
* the LOCAL round complexity charged (chain rounds for LubyGlauber, the
  3-pass locality for JVV, 1 SLOCAL scan for the sequential sampler).

With a batched runtime (``runtime="batched"``, see :mod:`repro.runtime`)
the LubyGlauber chains advance as one ``(chains, n)`` code matrix -- the
per-seed samples are bit-identical to the serial loop, so the reported TV
numbers do not change -- and each row additionally reports the multi-chain
convergence diagnostics of :mod:`repro.analysis.convergence` (split R-hat
and effective sample size of the per-chain occupancy traces), which show
*when* the chains have actually mixed.

All chain workloads go through the unified kernel execution path
(:meth:`repro.runtime.executor.Runtime.run_chains`): the LubyGlauber rows
run the ``luby-glauber`` kernel, and a ``jvv-kernel`` row runs the
rejection-resampling kernel of :class:`repro.sampling.jvv.JVVKernel` --
one full scan per chain with per-chain acceptance masks, reporting the
rejected-chain fraction against the ``e^{-3/n}`` law on every runtime.
Each row's samples are bit-identical on every backend
(serial/batched/process/cluster).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.analysis import (
    chains_mixed,
    effective_sample_size,
    empirical_distribution,
    split_r_hat,
    total_variation,
)
from repro.analysis.distances import configuration_key
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.inference import ExactInference, correlation_decay_for
from repro.models import hardcore_model
from repro.sampling import (
    enumerate_target_distribution,
    luby_glauber_sample,
    sample_approximate_slocal,
    sample_exact_slocal,
)


def run(
    cycle_size: int = 6,
    fugacity: float = 1.0,
    samples: int = 250,
    glauber_rounds=(2, 10, 40),
    runtime=None,
) -> List[Dict]:
    """Run E12 and return one row per sampler configuration."""
    from repro.runtime import resolve_runtime

    runtime_obj = resolve_runtime(runtime)
    distribution = hardcore_model(cycle_graph(cycle_size), fugacity=fugacity)
    instance = SamplingInstance(distribution)
    truth = enumerate_target_distribution(instance)
    noise = math.sqrt(len(truth) / (4.0 * samples))
    rows: List[Dict] = []

    # LubyGlauber at several round budgets: TV error decreases as the chain mixes.
    for rounds in glauber_rounds:
        diagnostics: Dict[str, object] = {}
        if runtime_obj.is_batched:
            from repro.runtime import ChainBatch

            # One chain per serial seed: the batch is bit-identical to the
            # serial loop below, and the per-round occupancy traces feed the
            # convergence diagnostics for free.
            batch = ChainBatch(instance, seeds=range(samples))
            traces = batch.advance(
                "luby-glauber", rounds, statistic=lambda codes: codes.mean(axis=1)
            )
            keys = [
                configuration_key(configuration)
                for configuration in batch.configurations()
            ]
            diagnostics = {
                "split_r_hat": split_r_hat(traces),
                "ess": effective_sample_size(traces),
                "mixed": chains_mixed(traces),
            }
        else:
            # The unified kernel path: per-seed results equal the serial
            # luby_glauber_sample loop on every backend (integer seeds kept
            # for continuity with the historical rows).
            keys = [
                configuration_key(configuration)
                for configuration in runtime_obj.run_chains(
                    "luby-glauber", instance, rounds, seeds=range(samples)
                )
            ]
        row = {
            "sampler": f"luby-glauber({rounds} rounds)",
            "rounds": rounds,
            "samples": samples,
            "tv_to_target": total_variation(empirical_distribution(keys), truth),
            "noise_floor": noise,
            "exact_conditional": False,
        }
        row.update(diagnostics)
        rows.append(row)

    # Sequential sampler (Theorem 3.2) with a correlation-decay engine.
    engine = correlation_decay_for(distribution)
    keys = [
        configuration_key(
            sample_approximate_slocal(instance, engine, 0.05, seed=seed).configuration
        )
        for seed in range(samples)
    ]
    rows.append(
        {
            "sampler": "sequential (Thm 3.2)",
            "rounds": engine.locality(instance, 0.05 / cycle_size),
            "samples": samples,
            "tv_to_target": total_variation(empirical_distribution(keys), truth),
            "noise_floor": noise,
            "exact_conditional": False,
        }
    )

    # Local-JVV with an exact oracle: exact conditioned on acceptance.
    accepted = []
    runs = 0
    while len(accepted) < samples and runs < 6 * samples:
        result = sample_exact_slocal(instance, ExactInference(), seed=runs)
        if result.success:
            accepted.append(configuration_key(result.configuration))
        runs += 1
    rows.append(
        {
            "sampler": "local-JVV (Thm 4.2)",
            "rounds": 3 * cycle_size + 1,
            "samples": len(accepted),
            "tv_to_target": total_variation(empirical_distribution(accepted), truth),
            "noise_floor": math.sqrt(len(truth) / (4.0 * max(1, len(accepted)))),
            "exact_conditional": True,
        }
    )

    # JVV rejection kernel: one full scan per chain through the unified
    # run_chains path (same samples on every backend; conditioning on
    # acceptance is what the row above does with the SLOCAL machinery).
    from repro.sampling.jvv import jvv_chain_stats

    scan_steps = len(instance.free_nodes)
    configurations, failure_counts = jvv_chain_stats(
        instance, scan_steps, n_chains=samples, seed=0, runtime=runtime_obj
    )
    keys = [configuration_key(configuration) for configuration in configurations]
    rows.append(
        {
            "sampler": "jvv-kernel (1 scan)",
            "rounds": scan_steps,
            "samples": len(keys),
            "tv_to_target": total_variation(empirical_distribution(keys), truth),
            "noise_floor": math.sqrt(len(truth) / (4.0 * max(1, len(keys)))),
            "exact_conditional": False,
            # Same row schema on every runtime: the counts come from the
            # batched acceptance masks or the serial reference identically.
            "rejected_fraction": sum(1 for c in failure_counts if c > 0) / len(keys),
            "predicted_rejected": 1.0
            - math.exp(-3.0 * scan_steps / max(2, instance.size) ** 2),
        }
    )
    return rows
