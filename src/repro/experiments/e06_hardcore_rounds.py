"""E6 -- Application: hardcore model in the uniqueness regime, O(log^3 n) rounds.

Sweep the instance size and record the LOCAL round complexity of (a) the
inference step, (b) the approximate sampler of Theorem 3.2 (including the
Lemma 3.1 scheduling overhead) and (c) the exact JVV sampler.  The claim is
polylogarithmic growth: the fitted exponent of ``rounds`` against ``log n``
stays bounded while a power-law fit against ``n`` yields an exponent well
below linear as ``n`` grows.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.analysis.fitting import fit_power_law
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.inference import correlation_decay_for
from repro.models import hardcore_model, hardcore_uniqueness_threshold
from repro.sampling import sample_approximate_local, sample_exact_local


def run(
    sizes=(8, 16, 32, 64),
    fugacity_fraction: float = 0.5,
    error: float = 0.05,
) -> List[Dict]:
    """Run E6 and return one row per instance size."""
    rows: List[Dict] = []
    for n in sizes:
        graph = cycle_graph(n)
        max_degree = 2
        threshold = hardcore_uniqueness_threshold(max_degree)
        fugacity = fugacity_fraction if math.isinf(threshold) else fugacity_fraction * threshold
        distribution = hardcore_model(graph, fugacity=fugacity)
        instance = SamplingInstance(distribution, {0: 1})
        engine = correlation_decay_for(distribution, decay_rate=0.5)

        inference_rounds = engine.locality(instance, error)
        approx = sample_approximate_local(instance, engine, error, seed=n)
        exact = sample_exact_local(instance, engine, seed=n)
        rows.append(
            {
                "n": n,
                "fugacity": fugacity,
                "inference_rounds": inference_rounds,
                "sampling_rounds": approx.rounds,
                "exact_rounds": exact.rounds,
                "log3_n": math.log(n) ** 3,
                "sample_feasible": distribution.weight(approx.configuration) > 0,
            }
        )
    return rows


def fitted_exponent(rows: List[Dict], column: str = "exact_rounds") -> float:
    """Power-law exponent of a round column against n (should be well below 1)."""
    sizes = [row["n"] for row in rows]
    costs = [max(row[column], 1) for row in rows]
    exponent, _ = fit_power_law(sizes, costs)
    return exponent
