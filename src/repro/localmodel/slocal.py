"""The SLOCAL model of Ghaffari, Kuhn and Maus.

An SLOCAL algorithm with locality ``r`` processes the nodes one by one in an
order ``pi`` chosen by an adversary.  When node ``v`` is processed the
algorithm reads the current states of all nodes within distance ``r`` of
``v``, performs unbounded computation, updates states and fixes ``v``'s
output.  (Following Lemma 4.4 of the paper, we allow the algorithm to write
the states of nodes within its radius and to make several passes -- both
conveniences that do not change the model's power and that the local-JVV
sampler uses.)

The sequential driver here is used directly by the reductions' proofs; the
transformation to the LOCAL model lives in
:mod:`repro.localmodel.scheduler`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.graphs.structure import ball
from repro.localmodel.network import Network

Node = Hashable


class StateAccess:
    """Controlled access to node states within a locality ball.

    The driver hands one of these to the algorithm when processing a node;
    reads and writes outside the allowed ball raise immediately, which is how
    the simulator enforces SLOCAL locality.
    """

    def __init__(self, states: Dict[Node, dict], allowed: set, center: Node) -> None:
        self._states = states
        self._allowed = allowed
        self._center = center

    @property
    def center(self) -> Node:
        """The node currently being processed."""
        return self._center

    @property
    def visible_nodes(self) -> set:
        """Nodes whose state may be read or written while processing the centre."""
        return set(self._allowed)

    def read(self, node: Node) -> dict:
        """Read (a reference to) the state dictionary of a visible node."""
        if node not in self._allowed:
            raise PermissionError(
                f"SLOCAL locality violation: {self._center!r} tried to read {node!r}"
            )
        return self._states[node]

    def write(self, node: Node, key: str, value: object) -> None:
        """Write one entry of a visible node's state."""
        if node not in self._allowed:
            raise PermissionError(
                f"SLOCAL locality violation: {self._center!r} tried to write {node!r}"
            )
        self._states[node][key] = value


class _PassGenerator:
    """A node's generator for one pass, built on its first draw.

    Stands in for ``network.rng(node, salt)``: the first attribute read
    builds that generator and forwards to it, so a pass that draws gets the
    same stream, and a pass that draws nothing (the local-JVV ground
    state) builds no generator at all.
    """

    __slots__ = ("_network", "_node", "_salt", "_generator")

    def __init__(self, network: Network, node: Node, salt: int) -> None:
        self._network = network
        self._node = node
        self._salt = salt
        self._generator = None

    def __getattr__(self, name: str):
        if self._generator is None:
            self._generator = self._network.rng(self._node, salt=self._salt)
        return getattr(self._generator, name)


@dataclass
class SLocalRunResult:
    """Outcome of a sequential SLOCAL run."""

    outputs: Dict[Node, object]
    failures: Dict[Node, bool]
    locality: int
    ordering: List[Node]
    states: Dict[Node, dict] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        """True when no node reported a local failure."""
        return not any(self.failures.values())

    @property
    def failure_count(self) -> int:
        """Number of nodes that reported a local failure."""
        return sum(1 for failed in self.failures.values() if failed)


class SLocalAlgorithm(abc.ABC):
    """A (possibly multi-pass) SLOCAL algorithm."""

    #: Number of sequential passes over the node ordering (Lemma 4.4 allows
    #: any constant; the local-JVV sampler uses three).
    passes: int = 1

    @abc.abstractmethod
    def locality(self, network: Network) -> int:
        """The locality radius ``r`` used in every pass."""

    @abc.abstractmethod
    def process(
        self,
        pass_index: int,
        node: Node,
        access: StateAccess,
        rng: np.random.Generator,
        network: Network,
    ) -> None:
        """Process ``node`` during pass ``pass_index`` (0-based).

        The algorithm communicates results by writing into node states via
        ``access``; the driver collects each node's final output from the
        state keys ``"output"`` and ``"failed"`` after the last pass.
        """

    def initial_state(self, node: Node, network: Network) -> dict:
        """Initial local state of a node (input and private randomness live
        in the network; algorithms may override to add fields)."""
        return {}

    def name(self) -> str:
        """Human-readable name used in reports."""
        return type(self).__name__


def run_slocal_algorithm(
    algorithm: SLocalAlgorithm,
    network: Network,
    ordering: Optional[Sequence[Node]] = None,
) -> SLocalRunResult:
    """Run an SLOCAL algorithm sequentially on the given (adversarial) ordering.

    The default ordering is by node ID, but every reduction in the paper must
    work for *any* ordering, and the tests exercise several.  Each
    ``process`` call receives the node's generator for that pass,
    ``network.rng(node, salt=pass_index)``, built only if the call draws.
    """
    order = list(network.nodes) if ordering is None else list(ordering)
    if set(order) != set(network.nodes):
        raise ValueError("the ordering must be a permutation of the network's nodes")
    radius = algorithm.locality(network)
    if radius < 0:
        raise ValueError("algorithm declared a negative locality")
    states: Dict[Node, dict] = {
        node: algorithm.initial_state(node, network) for node in network.nodes
    }
    graph: nx.Graph = network.graph
    # One ball per node for the whole run: every pass reads the same radius,
    # and StateAccess hands out copies, so the sets are never mutated.
    allowed = {node: ball(graph, node, radius) for node in order}
    for pass_index in range(algorithm.passes):
        for node in order:
            access = StateAccess(states, allowed[node], node)
            rng = _PassGenerator(network, node, pass_index)
            algorithm.process(pass_index, node, access, rng, network)
    outputs = {node: states[node].get("output") for node in network.nodes}
    failures = {node: bool(states[node].get("failed", False)) for node in network.nodes}
    return SLocalRunResult(
        outputs=outputs,
        failures=failures,
        locality=radius,
        ordering=order,
        states=states,
    )
