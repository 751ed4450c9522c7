"""E8 -- The computational phase transition for distributed sampling.

The paper's headline: hardcore sampling takes ``O(log^3 n)`` rounds below the
uniqueness threshold ``lambda_c(Delta)`` and ``Omega(diam)`` rounds above it
(combining Corollary 5.3 with the lower bound of Feng--Sun--Yin 2017).

We reproduce the transition on trees (where ``lambda_c`` is sharp):
for fugacities on both sides of the threshold we measure

* the long-range correlation between the root's marginal and a boundary at
  distance ``Theta(depth)`` -- it decays to ~0 below the threshold and stays
  bounded away from 0 above it;
* the locality a ball-local inference algorithm needs for a fixed accuracy --
  it stays small below the threshold and grows to the full depth above it.
"""

from __future__ import annotations

from typing import Dict, List

import networkx as nx

from repro.gibbs import SamplingInstance
from repro.models import hardcore_model, hardcore_uniqueness_threshold
from repro.spatialmixing import long_range_correlation


def complete_binary_tree(depth: int) -> nx.Graph:
    """A complete binary tree of the given depth (root has label 0)."""
    return nx.balanced_tree(2, depth)


def run(
    fugacity_ratios=(0.2, 0.5, 2.0, 5.0),
    depth: int = 4,
    error: float = 0.05,
) -> List[Dict]:
    """Run E8 and return one row per fugacity ratio ``lambda / lambda_c``.

    Two measurements per ratio:

    * ``boundary_influence`` -- the worst-case influence of the boundary at
      distance = depth on the root's marginal (Definition 5.1's inner
      maximum).  Below the threshold it decays with the depth; above it it
      stays bounded away from zero.
    * ``radius_lower_bound`` -- the information-theoretic locality lower
      bound implied by those influences: the smallest radius ``r`` such that
      the boundary influence at every distance beyond ``r`` is at most
      ``2 * error``.  If boundary configurations beyond radius ``r`` still
      move the root's marginal by more than ``2 * error``, no ``r``-round
      algorithm can be ``error``-accurate on all of them -- this is exactly
      the long-range-correlation argument behind the Omega(diam) lower bound.
    """
    graph = complete_binary_tree(depth)
    max_degree = 3
    threshold = hardcore_uniqueness_threshold(max_degree)
    root = 0
    rows: List[Dict] = []
    for ratio in fugacity_ratios:
        fugacity = ratio * threshold
        distribution = hardcore_model(graph, fugacity=fugacity)
        instance = SamplingInstance(distribution)
        influences = {
            distance: long_range_correlation(
                instance, root, distance=distance, max_configs=24
            )
            for distance in range(1, depth + 1)
        }
        radius_lower_bound = depth
        for radius in range(0, depth + 1):
            if all(influences[d] <= 2.0 * error for d in influences if d > radius):
                radius_lower_bound = radius
                break
        rows.append(
            {
                "lambda_over_lambda_c": ratio,
                "fugacity": fugacity,
                "uniqueness": ratio < 1.0,
                "depth": depth,
                "boundary_influence": influences[depth],
                "radius_lower_bound": radius_lower_bound,
                "radius_hit_diameter": radius_lower_bound >= depth - 1,
            }
        )
    return rows


def transition_gap(rows: List[Dict]) -> Dict[str, float]:
    """Summary of the transition: worst uniqueness-side vs best non-uniqueness-side."""
    below = [row for row in rows if row["uniqueness"]]
    above = [row for row in rows if not row["uniqueness"]]
    return {
        "max_radius_below": max((row["radius_lower_bound"] for row in below), default=0.0),
        "min_radius_above": min((row["radius_lower_bound"] for row in above), default=0.0),
        "max_influence_below": max((row["boundary_influence"] for row in below), default=0.0),
        "min_influence_above": min((row["boundary_influence"] for row in above), default=0.0),
    }
