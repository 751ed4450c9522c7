"""Problem instances ``(G, x, tau)`` for distributed sampling and counting.

Definition 2.2 of the paper: an instance is a labeled graph (which here is a
:class:`~repro.gibbs.distribution.GibbsDistribution`, since the labels ``x``
are exactly the local factor descriptions) together with a feasible pinning
``tau`` on an arbitrary subset.  The *target distribution* of the instance is
the conditional distribution ``mu^tau``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

from repro.gibbs.distribution import GibbsDistribution
from repro.gibbs.pinning import Pinning

Node = Hashable
Value = Hashable


class SamplingInstance:
    """An instance ``(G, x, tau)`` whose target distribution is ``mu^tau``."""

    def __init__(
        self,
        distribution: GibbsDistribution,
        pinning: Optional[Mapping[Node, Value]] = None,
        check_feasible: bool = False,
    ) -> None:
        self.distribution = distribution
        self.pinning = pinning if isinstance(pinning, Pinning) else Pinning(pinning or {})
        self._free_nodes = None
        # (compiled engine, start codes) of the greedy feasible start, kept
        # by repro.sampling.glauber.greedy_start_codes.
        self._greedy_start = None
        # (compiled engine, (spec id, InstanceSpec)), kept by
        # repro.runtime.shards.spec_for.
        self._spec = None
        if check_feasible and len(self.pinning) > 0:
            if not distribution.is_feasible(self.pinning):
                raise ValueError("the pinning tau is infeasible for the distribution")

    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The underlying network graph ``G``."""
        return self.distribution.graph

    @property
    def alphabet(self):
        """The alphabet ``Sigma``."""
        return self.distribution.alphabet

    @property
    def free_nodes(self):
        """Nodes not fixed by the pinning, in deterministic order.

        Computed once per instance (both the pinning and the distribution's
        node set are immutable); a fresh list is returned on every access so
        callers may mutate it.
        """
        if self._free_nodes is None:
            self._free_nodes = tuple(
                node for node in self.distribution.nodes if node not in self.pinning
            )
        return list(self._free_nodes)

    @property
    def size(self) -> int:
        """Number of nodes ``n`` of the network."""
        return self.distribution.size

    # ------------------------------------------------------------------
    def conditioned(self, extra: Mapping[Node, Value]) -> "SamplingInstance":
        """The self-reduced instance obtained by additionally pinning ``extra``.

        This is the self-reducibility operation of Remark 2.2: conditioning
        on more variables yields another valid instance of the same class.
        """
        return SamplingInstance(self.distribution, self.pinning.union(extra))

    def target_marginal(self, node: Node) -> Dict[Value, float]:
        """Exact marginal ``mu^tau_v`` (ground truth, via variable elimination)."""
        return self.distribution.marginal(node, self.pinning)

    def target_probability(self, configuration: Mapping[Node, Value]) -> float:
        """Exact probability ``mu^tau(sigma)`` of a full configuration."""
        return self.distribution.probability(configuration, self.pinning)

    def is_feasible_extension(self, extra: Mapping[Node, Value]) -> bool:
        """Whether pinning ``extra`` on top of ``tau`` stays feasible."""
        return self.distribution.is_feasible(self.pinning.union(extra))

    def full_configuration(self, assignment: Mapping[Node, Value]) -> Dict[Node, Value]:
        """Merge a free-node assignment with the pinning into a full configuration."""
        configuration = self.pinning.as_dict()
        configuration.update(assignment)
        return configuration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SamplingInstance(distribution={self.distribution.name!r}, "
            f"n={self.size}, pinned={len(self.pinning)})"
        )
