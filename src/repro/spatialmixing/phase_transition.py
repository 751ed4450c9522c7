"""The computational phase transition for distributed sampling.

The paper's headline application: for the hardcore model with fugacity below
the uniqueness threshold ``lambda_c(Delta)`` exact sampling takes
``O(log^3 n)`` rounds, whereas above the threshold the long-range correlation
established in Feng--Sun--Yin (PODC 2017) forces ``Omega(diam)`` rounds.
The two functions here measure both sides of that transition on concrete
instances:

* :func:`locality_required` -- how large a ball a node must inspect before a
  ball-local (Theorem 5.1-style) inference achieves a target accuracy; in the
  uniqueness regime this stays logarithmic, past the threshold it grows with
  the diameter;
* :func:`long_range_correlation` -- the influence of a boundary condition at
  distance ``d`` on a far-away node's marginal, the quantity whose failure to
  decay is the essence of the lower bound.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.analysis.distances import total_variation
from repro.gibbs.instance import SamplingInstance
from repro.graphs.structure import sphere
from repro.inference.ssm_inference import padded_ball_marginal
from repro.spatialmixing.ssm import boundary_influence

Node = Hashable
Value = Hashable


def locality_required(
    instance: SamplingInstance,
    node: Node,
    error: float,
    max_radius: Optional[int] = None,
    engine: Optional[str] = None,
    runtime=None,
) -> int:
    """Smallest radius at which ball-local inference reaches the target accuracy.

    Runs the Theorem 5.1 ball computation at increasing radii and compares
    against the exact marginal; returns the first radius whose
    total-variation error is at most ``error``.  If no radius up to
    ``max_radius`` (default: the number of nodes) suffices, ``max_radius + 1``
    is returned, signalling "essentially the whole graph".

    Parameters
    ----------
    instance, node, error, max_radius, engine
        As described above; ``engine`` selects the evaluation backend.
    runtime : None, str or Runtime, optional
        Execution backend (see :mod:`repro.runtime`).  A compiled sweep
        walks :meth:`~repro.runtime.executor.Runtime.stream_ball_marginal_tasks`
        in *waves* of ``2 * n_workers`` radii, measuring radius ``r`` the
        moment its marginal lands.  The serial and batched runtimes yield
        those lazily and in order, so the sweep computes exactly the radii
        ``0..answer``; a process or cluster runtime computes a wave's
        larger radii on its workers while radius ``r`` is measured, and
        the first radius within tolerance cancels the rest of the wave.
        Waving bounds the speculation: an unbounded sweep
        (``max_radius=None``) would otherwise enqueue one near-whole-graph
        elimination per radius up to ``instance.size``.  The returned
        radius is the same on every backend.  ``engine="dict"`` runs the
        in-process reference loop instead.
    """
    if error <= 0:
        raise ValueError("error must be positive")
    truth = instance.distribution.marginal(node, instance.pinning, engine=engine)
    limit = instance.size if max_radius is None else max_radius
    from repro.engine import resolve_engine
    from repro.runtime import resolve_runtime

    resolved = resolve_runtime(runtime)
    if resolve_engine(engine) != "compiled":
        for radius in range(0, limit + 1):
            estimate = padded_ball_marginal(instance, node, radius, engine=engine)
            if total_variation(estimate, truth) <= error:
                return radius
        return limit + 1
    wave = 2 * max(1, resolved.n_workers)
    estimates: Dict[int, Dict[Value, float]] = {}
    radius = 0
    for start in range(0, limit + 1, wave):
        tasks = [
            (node, wave_radius)
            for wave_radius in range(start, min(start + wave, limit + 1))
        ]
        stream = resolved.stream_ball_marginal_tasks(instance, tasks, chunk_size=1)
        try:
            for (_, completed_radius), marginal in stream:
                estimates[completed_radius] = marginal
                while radius in estimates:
                    if total_variation(estimates.pop(radius), truth) <= error:
                        return radius
                    radius += 1
        finally:
            stream.close()
    return limit + 1


def long_range_correlation(
    instance: SamplingInstance,
    node: Node,
    distance: int,
    max_configs: Optional[int] = 32,
    seed: int = 0,
    engine: Optional[str] = None,
) -> float:
    """Influence (in total variation) of the sphere at the given distance on ``node``.

    In the uniqueness regime this decays exponentially with the distance; in
    the non-uniqueness regime it stays bounded away from zero even at
    distance ``Theta(diam)``, which is the long-range correlation behind the
    ``Omega(diam)`` sampling lower bound.
    """
    boundary = sphere(instance.graph, node, distance)
    if not boundary:
        return 0.0
    tv, _ = boundary_influence(
        instance.distribution,
        node,
        boundary,
        base_pinning=instance.pinning.as_dict(),
        max_configs=max_configs,
        seed=seed,
        engine=engine,
    )
    return tv


def locality_profile(
    instances: Sequence[SamplingInstance],
    node_picker,
    error: float,
    max_radius: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Locality required versus instance size, for a family of instances.

    ``node_picker(instance)`` selects the probe node (typically a most
    central one).  The returned rows feed the phase-transition benchmark.
    """
    rows: List[Dict[str, float]] = []
    for instance in instances:
        node = node_picker(instance)
        radius = locality_required(instance, node, error, max_radius=max_radius)
        rows.append(
            {
                "size": float(instance.size),
                "radius": float(radius),
            }
        )
    return rows
