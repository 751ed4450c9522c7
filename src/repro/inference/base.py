"""Common interface of the approximate-inference algorithms.

All inference engines implement :class:`InferenceAlgorithm`: given an
instance, a node and an accuracy parameter they return an estimated marginal
distribution, and they declare the LOCAL radius (number of rounds) that
estimate needs.  Following Proposition 3.3 of the paper the engines are
deterministic and never fail, which is why the interface has no failure flag.

The helper :func:`ball_instance` restricts an instance to a ball: it keeps
only the factors fully contained in the ball and the pinning restricted to
it.  Every engine computes exclusively on such restrictions, so locality is
enforced by construction.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.gibbs.instance import SamplingInstance
from repro.graphs.structure import ball

Node = Hashable
Value = Hashable


class InferenceAlgorithm(abc.ABC):
    """A deterministic LOCAL algorithm for approximate inference.

    Determinism (Proposition 3.3) is part of the contract: the same
    instance, node and error always give the same marginal.  Callers rely
    on it -- :class:`~repro.sampling.jvv.LocalJVVSampler` asks each
    ``(node, conditioning)`` once per run and answers repeats from a memo,
    so an engine whose answers vary between calls would break the sampler's
    telescoping acceptance ratio.
    """

    @abc.abstractmethod
    def locality(self, instance: SamplingInstance, error: float) -> int:
        """The LOCAL radius (round count) needed for total-variation error ``error``."""

    @abc.abstractmethod
    def marginal(
        self, instance: SamplingInstance, node: Node, error: float
    ) -> Dict[Value, float]:
        """Estimate the conditional marginal ``mu^tau_v`` within the given error."""

    def marginals(
        self, instance: SamplingInstance, error: float, nodes: Iterable[Node] | None = None
    ) -> Dict[Node, Dict[Value, float]]:
        """Estimated marginals of every free node (or an explicit subset)."""
        targets = instance.free_nodes if nodes is None else list(nodes)
        return {node: self.marginal(instance, node, error) for node in targets}

    def name(self) -> str:
        """Human-readable engine name used in reports and benchmarks."""
        return type(self).__name__


def ball_instance(
    instance: SamplingInstance, center: Node, radius: int
) -> Tuple[set, list, Dict[Node, Value]]:
    """Restrict an instance to the radius-``radius`` ball around ``center``.

    Returns ``(ball_nodes, factor_tables, pinning_in_ball)`` where
    ``factor_tables`` contains only factors whose scope lies entirely inside
    the ball -- exactly the information a ``radius``-round LOCAL algorithm at
    ``center`` may use.
    """
    nodes = ball(instance.graph, center, radius)
    tables = instance.distribution.restricted_tables(nodes)
    pinning = {node: value for node, value in instance.pinning.items() if node in nodes}
    return nodes, tables, pinning


def marginal_in_ball(
    instance: SamplingInstance,
    center: Node,
    radius: int,
    extra_pinning: Dict[Node, Value] | None = None,
    engine: Optional[str] = None,
) -> Dict[Value, float]:
    """Exact marginal of ``center`` of the instance *restricted to a ball*.

    The computation uses only factors inside ``B_radius(center)`` and the
    pinning restricted to the ball (optionally extended by
    ``extra_pinning``); nodes of the ball that remain unpinned are summed
    over freely.  This is the primitive both Theorem 5.1's algorithm and the
    boosting lemma build on.  It routes through the distribution's ball
    cache, so the ball extraction and compilation are shared across calls;
    ``engine`` selects the evaluation backend (see :mod:`repro.engine`).
    """
    pinning = dict(instance.pinning)
    if extra_pinning:
        pinning.update(extra_pinning)
    return instance.distribution.ball_marginal(
        center, radius, pinning, center, engine=engine
    )
