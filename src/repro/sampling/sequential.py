"""Inference => approximate sampling (Theorem 3.2).

The reduction is the classical sequential sampler made local:

* an SLOCAL algorithm scans the nodes in an arbitrary order; at each free
  node it invokes the approximate-inference engine on the instance
  conditioned on the values sampled so far (restricted to what the node can
  actually see within its locality radius) and samples the node's value from
  the returned marginal with per-node error ``delta / n``;
* Lemma 3.1 then turns the SLOCAL algorithm into a LOCAL algorithm with an
  ``O(log^2 n)`` multiplicative round overhead and locally certifiable
  failures.

A coupling argument gives total-variation error at most ``delta`` for the
SLOCAL sampler; the LOCAL simulation preserves the output distribution
conditioned on success.

The scan is additionally exposed as a *chain kernel*
(:class:`SequentialKernel`, see :mod:`repro.sampling.kernels`): one unit
resamples the next free node of the deterministic scan order from its
exact local conditional -- the sequential sampler with the cheapest local
oracle (the radius-``l`` conditional given the current boundary values),
iterated as a dynamics.  It is the ungated sibling of
:class:`~repro.sampling.jvv.JVVKernel` and, like every kernel, runs
bit-identically on all four execution backends through
:meth:`repro.runtime.executor.Runtime.run_chains`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence

import numpy as np

from repro.analysis.distances import sample_from
from repro.gibbs.instance import SamplingInstance
from repro.inference.base import InferenceAlgorithm
from repro.localmodel.network import Network
from repro.localmodel.scheduler import ScheduledRunResult, simulate_slocal_as_local
from repro.localmodel.slocal import SLocalAlgorithm, SLocalRunResult, StateAccess, run_slocal_algorithm
from repro.sampling.kernels import ScanKernel, register_kernel

Node = Hashable
Value = Hashable


class SequentialKernel(ScanKernel):
    """The deterministic sequential scan as a chain kernel.

    Exactly the shared :class:`ScanKernel` heat-bath scan, ungated: step
    ``t`` resamples free node ``t mod n_free`` (deterministic scan order)
    from its exact local conditional given the full current state.  One
    full scan from the greedy ground state is the Theorem 3.2 sequential
    sampler run with the local (radius-``l``) oracle; further scans iterate
    the dynamics.  This is the "next kernel is a thin file" existence
    proof: the class body is the name -- serial loop, batched loop, RNG
    contract and backend dispatch are all inherited.
    """

    name = "sequential"
    unit = "steps"


#: The registered kernel instance (also ``kernel="sequential"`` everywhere).
SEQUENTIAL_KERNEL = register_kernel(SequentialKernel())


def sequential_scan_sample(
    instance: SamplingInstance,
    steps: int,
    seed=0,
    initial: Optional[Dict[Node, Value]] = None,
) -> Dict[Node, Value]:
    """Serial reference of :class:`SequentialKernel` (one chain, ``steps`` updates)."""
    return SEQUENTIAL_KERNEL.serial_run(instance, steps, seed=seed, initial=initial)


class SequentialSamplingAlgorithm(SLocalAlgorithm):
    """The SLOCAL sequential sampler of Theorem 3.2."""

    passes = 1

    def __init__(
        self,
        instance: SamplingInstance,
        inference: InferenceAlgorithm,
        error: float,
    ) -> None:
        if error <= 0:
            raise ValueError("the target total-variation error must be positive")
        self.instance = instance
        self.inference = inference
        self.error = error

    # ------------------------------------------------------------------
    def per_node_error(self) -> float:
        """The per-node inference error ``delta / n`` used by the reduction."""
        return self.error / max(1, self.instance.size)

    def locality(self, network: Network) -> int:
        """Locality = the inference engine's radius at error ``delta / n``."""
        return self.inference.locality(self.instance, self.per_node_error())

    def initial_state(self, node: Node, network: Network) -> dict:
        return {}

    def process(
        self,
        pass_index: int,
        node: Node,
        access: StateAccess,
        rng: np.random.Generator,
        network: Network,
    ) -> None:
        instance = self.instance
        if node in instance.pinning:
            value = instance.pinning[node]
        else:
            # Condition on every already-sampled value visible within the
            # locality ball; values farther away cannot influence the
            # inference engine anyway (it is a local algorithm).
            visible_assignment: Dict[Node, Value] = {}
            for other in access.visible_nodes:
                state = access.read(other)
                if "value" in state and other != node:
                    visible_assignment[other] = state["value"]
            conditioned = instance.conditioned(visible_assignment)
            marginal = self.inference.marginal(conditioned, node, self.per_node_error())
            value = sample_from(marginal, rng)
        access.write(node, "value", value)
        access.write(node, "output", value)
        access.write(node, "failed", False)


@dataclass
class ApproximateSampleResult:
    """A sample produced by the inference => sampling reduction."""

    configuration: Dict[Node, Value]
    failures: Dict[Node, bool]
    rounds: int
    ordering: Sequence[Node]
    details: Dict[str, object]

    @property
    def success(self) -> bool:
        """True when every node produced an output without failing."""
        return not any(self.failures.values())


def sample_approximate_slocal(
    instance: SamplingInstance,
    inference: InferenceAlgorithm,
    error: float,
    seed: int = 0,
    ordering: Optional[Sequence[Node]] = None,
) -> ApproximateSampleResult:
    """Draw one approximate sample with the SLOCAL sequential sampler.

    The ``rounds`` reported are the SLOCAL locality (what Theorem 3.2 charges
    before the Lemma 3.1 simulation overhead).
    """
    algorithm = SequentialSamplingAlgorithm(instance, inference, error)
    network = Network(instance.graph, seed=seed)
    result: SLocalRunResult = run_slocal_algorithm(algorithm, network, ordering)
    return ApproximateSampleResult(
        configuration={node: result.outputs[node] for node in network.nodes},
        failures=result.failures,
        rounds=result.locality,
        ordering=result.ordering,
        details={"mode": "slocal", "inference": inference.name()},
    )


def sample_approximate_local(
    instance: SamplingInstance,
    inference: InferenceAlgorithm,
    error: float,
    seed: int = 0,
) -> ApproximateSampleResult:
    """Draw one approximate sample with the LOCAL algorithm of Theorem 3.2.

    Internally simulates the SLOCAL sampler through the network decomposition
    scheduler of Lemma 3.1; the reported rounds include the ``O(log^2 n)``
    scheduling overhead and the failure indicators include the decomposition
    failures.
    """
    algorithm = SequentialSamplingAlgorithm(instance, inference, error)
    network = Network(instance.graph, seed=seed)
    result: ScheduledRunResult = simulate_slocal_as_local(algorithm, network, seed=seed)
    return ApproximateSampleResult(
        configuration={node: result.outputs[node] for node in network.nodes},
        failures=result.failures,
        rounds=result.rounds,
        ordering=result.ordering,
        details={
            "mode": "local",
            "inference": inference.name(),
            **result.details,
        },
    )
