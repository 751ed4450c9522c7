"""SLOCAL -> LOCAL transformation (Lemma 3.1, after Ghaffari--Kuhn--Maus).

Given an SLOCAL algorithm of locality ``r``, the LOCAL simulation

1. builds an ``(O(log n), O(log n))`` network decomposition of the power
   graph ``G^{r+1}``,
2. processes the color classes of the decomposition one after another; all
   clusters of one color are handled in parallel (they are non-adjacent in
   ``G^{r+1}``, hence at pairwise distance more than ``r`` in ``G``, so the
   parallel execution is equivalent to *some* sequential ordering ``pi``),
3. charges ``O(C * (D + 1) * (r + 1)) = O(r log^2 n)`` rounds, where ``C``
   and ``D`` are the decomposition's colors and cluster diameter.

Nodes in fallback clusters of the decomposition are marked as failed
(``F''_v = 1``); those failures are independent of the algorithm's own
failures and of its outputs, so conditioning on global success preserves the
SLOCAL output distribution -- exactly the statement of Lemma 3.1, and the
property the distributed JVV sampler relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.graphs.structure import power_graph
from repro.localmodel.decomposition import NetworkDecomposition, linial_saks_decomposition
from repro.localmodel.network import Network
from repro.localmodel.slocal import SLocalAlgorithm, run_slocal_algorithm

Node = Hashable


@dataclass
class ScheduledRunResult:
    """Outcome of simulating an SLOCAL algorithm in the LOCAL model."""

    outputs: Dict[Node, object]
    #: Combined failure indicators ``F_v = F'_v (algorithm) OR F''_v (scheduling)``.
    failures: Dict[Node, bool]
    #: Failures caused by the network decomposition alone.
    scheduling_failures: Dict[Node, bool]
    #: Round complexity charged to the LOCAL simulation.
    rounds: int
    #: The sequential ordering the chromatic schedule is equivalent to.
    ordering: List[Node]
    #: The decomposition used by the schedule (for quality statistics).
    decomposition: NetworkDecomposition
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        """True when no node failed (neither algorithm nor scheduling)."""
        return not any(self.failures.values())

    @property
    def failure_count(self) -> int:
        """Number of failed nodes."""
        return sum(1 for failed in self.failures.values() if failed)


def effective_locality(algorithm: SLocalAlgorithm, network: Network) -> int:
    """Single-pass locality of a (possibly multi-pass) SLOCAL algorithm.

    Lemma 4.4 (2) of the paper: a ``k``-pass algorithm with locality ``r``
    per pass collapses to a single pass of locality ``r + 2 (k - 1) r``.
    """
    base = algorithm.locality(network)
    passes = max(1, algorithm.passes)
    return base + 2 * (passes - 1) * base


def simulate_slocal_as_local(
    algorithm: SLocalAlgorithm,
    network: Network,
    seed: int = 0,
    decomposition: Optional[NetworkDecomposition] = None,
) -> ScheduledRunResult:
    """Simulate an SLOCAL algorithm in the LOCAL model (Lemma 3.1).

    Parameters
    ----------
    algorithm:
        The SLOCAL algorithm to simulate.
    network:
        The network to run on.
    seed:
        Seed for the randomized network decomposition (independent of the
        nodes' private randomness, as in the paper).
    decomposition:
        Optionally, a pre-computed decomposition of ``G^{r+1}`` (used by the
        tests to exercise corner cases); by default a Linial--Saks
        decomposition is built.
    """
    locality = effective_locality(algorithm, network)
    graph = network.graph
    scheduling_graph = power_graph(graph, locality + 1) if locality > 0 else graph
    if decomposition is None:
        decomposition = linial_saks_decomposition(scheduling_graph, seed=seed)
    decomposition.validate(scheduling_graph)

    ids = network.ids
    # Chromatic schedule: colors in increasing order; within a color clusters
    # run in parallel, which is equivalent to processing them in any relative
    # order because same-color clusters are at distance > r in G.  Inside a
    # cluster the nodes are processed in ID order by the cluster leader.
    def schedule_key(node: Node):
        center = decomposition.center_of(node)
        return (
            decomposition.color_of(node),
            ids.get(center, ids[node]),
            ids[node],
        )

    ordering = sorted(network.nodes, key=schedule_key)
    sequential = run_slocal_algorithm(algorithm, network, ordering)

    scheduling_failures = {
        node: (node in decomposition.fallback_nodes) for node in network.nodes
    }
    failures = {
        node: bool(sequential.failures[node] or scheduling_failures[node])
        for node in network.nodes
    }

    num_colors = decomposition.num_colors
    cluster_radius_in_g = decomposition.radius_bound * (locality + 1)
    rounds = max(1, num_colors * (2 * cluster_radius_in_g + locality + 1))

    return ScheduledRunResult(
        outputs=sequential.outputs,
        failures=failures,
        scheduling_failures=scheduling_failures,
        rounds=rounds,
        ordering=ordering,
        decomposition=decomposition,
        details={
            "slocal_locality": algorithm.locality(network),
            "effective_locality": locality,
            "num_colors": num_colors,
            "radius_bound": decomposition.radius_bound,
            "fallback_nodes": len(decomposition.fallback_nodes),
        },
    )
