"""The LOCAL model: round-bounded node algorithms and their driver.

A :class:`LocalNodeAlgorithm` declares how many rounds it needs and computes
each node's output from that node's :class:`~repro.localmodel.network.LocalView`
alone.  The driver :func:`run_local_algorithm` collects the views (one
"communication phase") and invokes the node computation everywhere,
recording outputs, the Las-Vegas failure indicators the paper requires
(Section 2, "all failures are locally certifiable"), and the number of
rounds charged.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

from repro.localmodel.network import LocalView, Network

Node = Hashable


@dataclass
class LocalRunResult:
    """Outcome of running a LOCAL algorithm on a network.

    Attributes
    ----------
    outputs:
        Per-node outputs (``None`` where the node failed without output).
    failures:
        Per-node Boolean failure indicators ``F_v``.
    rounds:
        The number of communication rounds charged to the run.
    """

    outputs: Dict[Node, object]
    failures: Dict[Node, bool]
    rounds: int
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def failed_nodes(self):
        """Nodes at which the algorithm failed locally."""
        return sorted((node for node, failed in self.failures.items() if failed), key=repr)

    @property
    def success(self) -> bool:
        """True when no node reported a local failure."""
        return not any(self.failures.values())

    @property
    def failure_count(self) -> int:
        """Number of nodes that reported a local failure."""
        return sum(1 for failed in self.failures.values() if failed)


class LocalNodeAlgorithm(abc.ABC):
    """A LOCAL algorithm: a per-node computation on a bounded-radius view."""

    @abc.abstractmethod
    def radius(self, network: Network) -> int:
        """The number of rounds (= view radius) the algorithm needs."""

    @abc.abstractmethod
    def compute(self, view: LocalView) -> Tuple[object, bool]:
        """Compute this node's output from its view.

        Returns ``(output, failed)``; ``failed`` is the locally certifiable
        failure indicator ``F_v`` of the paper's Las-Vegas convention.
        """

    def name(self) -> str:
        """Human-readable name used in reports."""
        return type(self).__name__


def run_local_algorithm(
    algorithm: LocalNodeAlgorithm,
    network: Network,
    nodes: Optional[list] = None,
) -> LocalRunResult:
    """Run a LOCAL algorithm at every node (or a subset) of the network.

    Each node's computation receives only its own radius-``t`` view, so the
    simulation cannot leak non-local information.  The round count charged is
    exactly the declared radius.
    """
    radius = algorithm.radius(network)
    if radius < 0:
        raise ValueError("algorithm declared a negative radius")
    targets = list(network.nodes) if nodes is None else list(nodes)
    outputs: Dict[Node, object] = {}
    failures: Dict[Node, bool] = {}
    for node in targets:
        output, failed = algorithm.compute(network.view(node, radius))
        outputs[node] = output
        failures[node] = bool(failed)
    return LocalRunResult(outputs=outputs, failures=failures, rounds=radius)
