"""E7 -- Application: sampling matchings in O(sqrt(Delta) log^3 n) rounds.

Sweep the maximum degree ``Delta`` at a (roughly) fixed number of edges and
record the locality that the correlation-decay engine needs for a fixed
accuracy, together with the theoretical mixing scale
``1 / (1 - alpha(Delta)) = Theta(sqrt(Delta))``.  The claim is that the
measured locality grows like ``sqrt(Delta)``, not like ``Delta``.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.analysis.fitting import fit_power_law
from repro.gibbs import SamplingInstance
from repro.graphs import random_regular_graph, star_graph
from repro.inference import correlation_decay_for
from repro.models import matching_model, matching_ssm_decay_rate
from repro.sampling import sample_approximate_slocal


def run(
    degrees=(2, 4, 8, 16),
    nodes_per_graph: int = 18,
    error: float = 0.05,
) -> List[Dict]:
    """Run E7 and return one row per maximum degree."""
    rows: List[Dict] = []
    for degree in degrees:
        n = nodes_per_graph
        if (degree * n) % 2 == 1:
            n += 1
        graph = random_regular_graph(degree, n, seed=degree)
        distribution = matching_model(graph, edge_weight=1.0)
        instance = SamplingInstance(distribution)
        engine = correlation_decay_for(distribution)

        rate = matching_ssm_decay_rate(degree)
        locality = engine.locality(instance, error)
        rows.append(
            {
                "max_degree": degree,
                "edges": distribution.size,
                "decay_rate": rate,
                "mixing_scale": 1.0 / (1.0 - rate),
                "sqrt_degree": math.sqrt(degree),
                "inference_rounds": locality,
                "error": error,
            }
        )
    return rows


def fitted_degree_exponent(rows: List[Dict], column: str = "inference_rounds") -> float:
    """Exponent of the round column against Delta (expected near 0.5, not 1)."""
    degrees = [row["max_degree"] for row in rows]
    costs = [max(row[column], 1) for row in rows]
    exponent, _ = fit_power_law(degrees, costs)
    return exponent


def sample_one_matching(degree: int = 4, nodes: int = 12, seed: int = 0, max_depth: int = 5):
    """Convenience for the benchmark: draw one matching sample and validate it.

    The recursion depth is capped: the per-node cost of the self-avoiding-walk
    engine grows with the number of walks of that length, which on dense line
    graphs explodes well before the asymptotic O(log n) depth is reachable on
    a laptop.  The cap only affects the sample's accuracy, not its validity,
    and the degree-scaling measurement in :func:`run` is unaffected.
    """
    from repro.models.matching import configuration_to_matching, is_valid_matching

    graph = random_regular_graph(degree, nodes, seed=seed)
    distribution = matching_model(graph, edge_weight=1.0)
    instance = SamplingInstance(distribution)
    engine = correlation_decay_for(distribution, max_depth=max_depth)
    result = sample_approximate_slocal(instance, engine, 0.1, seed=seed)
    matching = configuration_to_matching(distribution, result.configuration)
    return is_valid_matching(graph, matching), result.rounds
