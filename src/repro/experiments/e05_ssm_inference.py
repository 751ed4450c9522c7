"""E5 -- Theorem 5.1: strong spatial mixing versus locality of inference.

Measure (a) the SSM decay profile of the hardcore model at several fugacities
and (b) the radius at which ball-local inference reaches a fixed accuracy.
The theorem's claim is that the two quantities track each other: fast decay
means small required radius, slow decay means large required radius.
"""

from __future__ import annotations

from typing import Dict, List

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import hardcore_model
from repro.spatialmixing import estimate_decay_rate, locality_required, ssm_profile


def run(
    fugacities=(0.3, 1.0, 3.0, 8.0),
    cycle_size: int = 16,
    error: float = 0.02,
    radii=(1, 2, 3, 4, 5),
    runtime=None,
) -> List[Dict]:
    """Run E5 and return one row per fugacity.

    ``runtime`` selects the execution backend of the locality sweep (see
    :func:`~repro.spatialmixing.phase_transition.locality_required`): on a
    process or cluster runtime the radius-``r`` accuracy measurement
    starts the moment its marginal streams back, while the workers are
    still computing the larger radii of the wave.  Workers return
    marginals only, and the reported radius is identical on every
    backend.
    """
    from repro.runtime import resolve_runtime

    runtime_obj = resolve_runtime(runtime)
    rows: List[Dict] = []
    probe = cycle_size // 2
    for fugacity in fugacities:
        distribution = hardcore_model(cycle_graph(cycle_size), fugacity=fugacity)
        profile = ssm_profile(distribution, probe, radii=list(radii))
        rate = estimate_decay_rate(profile)
        instance = SamplingInstance(distribution, {0: 1})
        radius_needed = locality_required(
            instance,
            probe,
            error=error,
            max_radius=cycle_size // 2,
            runtime=runtime_obj,
        )
        rows.append(
            {
                "fugacity": fugacity,
                "ssm_decay_rate": rate,
                "influence_at_r1": profile[0]["tv"],
                "influence_at_r4": profile[3]["tv"] if len(profile) > 3 else 0.0,
                "radius_for_eps": radius_needed,
                "error": error,
            }
        )
    return rows
