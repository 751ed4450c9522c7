"""LOCAL inference from strong spatial mixing (Theorem 5.1, converse direction).

For a locally admissible local Gibbs distribution with SSM rate
``delta_n(t)``, the paper's algorithm achieves total-variation error
``delta`` in ``min{t : delta_n(t) <= delta} + O(1)`` rounds:

1. node ``v`` gathers its ball of radius ``t + 2 l`` (``l`` = factor
   diameter),
2. it extends the pinning ``tau`` to a *locally feasible* configuration
   ``tau'`` on the shell ``Gamma = B_{t+l}(v) \\ (B_t(v) u Lambda)`` -- local
   admissibility guarantees the greedy extension exists and is feasible,
3. it returns the exact conditional marginal ``mu^{tau'}_v``, which by the
   conditional-independence property (Proposition 2.1) is fully determined by
   the factors inside ``B_{t+l}(v)``; SSM bounds its distance to the true
   marginal by ``delta_n(t)``.

Two engines share one body, :class:`PaddedBallInference`, and differ only
in how they choose the radius: :class:`BoundaryPaddedInference` derives it
from a decay-rate schedule, and :class:`TruncatedBallInference` takes it
explicitly (used to *measure* how much locality a target accuracy requires
-- the phase-transition experiment).

Both accept an ``engine=`` keyword selecting the evaluation backend (see
:mod:`repro.engine`); the default compiled backend memoises ball
compilations, greedy boundary extensions and per-pinning marginals on the
distribution's :class:`~repro.engine.cache.BallCache`, so repeated queries
across nodes and rounds cost dictionary lookups instead of eliminations.
Where many nodes' balls run -- in this process or on workers -- is the
business of the ``runtime=`` given to ``marginals`` / ``marginals_stream``
(see :mod:`repro.runtime`).
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Iterator, Optional, Tuple

from repro.gibbs.factors import code_tables
from repro.gibbs.instance import SamplingInstance
from repro.inference.base import InferenceAlgorithm
from repro.inference.locality import locality_for_error

Node = Hashable
Value = Hashable


def _greedy_boundary_extension(
    instance: SamplingInstance,
    shell_nodes,
    context_nodes,
) -> Dict[Node, Value]:
    """Extend the pinning over the shell, keeping local feasibility.

    Processes the shell nodes in ID (repr) order; for each, picks the first
    alphabet value that keeps the partial configuration locally feasible with
    respect to all factors contained in ``context_nodes``.  For locally
    admissible distributions such a value always exists (a feasible partial
    configuration has a feasible full extension, whose restriction witnesses
    local feasibility); if none is found a ``RuntimeError`` flags the model
    as not locally admissible.

    The partial configuration is held as ``{node: symbol code}`` and each
    candidate is weighed through the factors' code tables
    (:func:`~repro.gibbs.factors.code_tables`), trying codes in alphabet
    order; no engine is compiled for it.  The assigned-node set grows with
    the configuration, so one candidate check costs ``O(|factors_at(node)|)``
    list lookups.
    """
    distribution = instance.distribution
    alphabet = distribution.alphabet
    symbol_index = {value: code for code, value in enumerate(alphabet)}
    context = (
        context_nodes if isinstance(context_nodes, (set, frozenset)) else set(context_nodes)
    )
    pinned = {node: value for node, value in instance.pinning.items() if node in context}
    strays = {node: value for node, value in pinned.items() if value not in symbol_index}
    codes = {node: symbol_index.get(value, 0) for node, value in pinned.items()}
    assigned = set(codes)
    for node in sorted(shell_nodes, key=repr):
        if node in assigned:
            continue
        assigned.add(node)
        # Only factors fully inside both the context and the assigned set
        # constrain this choice; the relevant list is identical for every
        # candidate code, so hoist it out of the code loop.
        relevant = code_tables(
            [
                factor
                for factor in distribution.factors_at(node)
                if factor.scope_set <= context and factor.scope_set <= assigned
            ],
            alphabet,
            strays,
        )
        for code in range(len(alphabet)):
            codes[node] = code
            for table, scope in relevant:
                for other in scope:
                    table = table[codes[other]]
                if table == 0.0:
                    break
            else:
                break
        else:
            raise RuntimeError(
                "could not extend the pinning onto the boundary shell; "
                "the distribution does not appear to be locally admissible"
            )
    return {
        node: pinned[node] if node in pinned else alphabet[codes[node]]
        for node in shell_nodes
        if node in codes
    }


def padded_ball_marginal(
    instance: SamplingInstance,
    center: Node,
    radius: int,
    engine: Optional[str] = None,
) -> Dict[Value, float]:
    """The marginal computed by the Theorem 5.1 algorithm at a given radius.

    Gathers ``B_{radius + 2 l}(center)``, pads the pinning on the shell
    between radius and ``radius + l``, and returns the exact conditional
    marginal of the ball.

    The ball node sets and the compiled ball restriction come from the
    distribution's :class:`~repro.engine.cache.BallCache`, so repeated calls
    (across nodes, rounds and conditioned instances of the same
    distribution) do not re-extract or re-compile identical balls.
    """
    distribution = instance.distribution
    locality = distribution.locality()
    cache = distribution.ball_cache()
    # Largest radius first: the cache slices the smaller balls out of the
    # same BFS distance map.
    context = cache.ball_nodes(center, radius + 2 * locality)
    padded = cache.ball_nodes(center, radius + locality)
    inner = cache.ball_nodes(center, radius)
    # The greedy extension is deterministic given the pinning restricted to
    # the context ball, so memoise it alongside the compiled balls: repeated
    # rounds at the same node skip the whole feasibility search.
    context_pinning = frozenset(
        (node, value) for node, value in instance.pinning.items() if node in context
    )
    def _extend() -> Dict[Node, Value]:
        shell = {
            node
            for node in padded
            if node not in inner and node not in instance.pinning
        }
        return _greedy_boundary_extension(instance, shell, context)

    boundary_pinning = cache.cached_extra(
        ("boundary-extension", center, radius, context_pinning), _extend
    )

    pinning = {node: value for node, value in instance.pinning.items() if node in padded}
    pinning.update(boundary_pinning)
    if center in pinning:
        return {
            value: (1.0 if value == pinning[center] else 0.0)
            for value in distribution.alphabet
        }
    return distribution.ball_marginal(
        center, radius + locality, pinning, center, engine=engine
    )




class PaddedBallInference(InferenceAlgorithm):
    """The Theorem 5.1 computation at a radius chosen by the subclass.

    Holds the one engine body the two ball-local engines share; a subclass
    supplies only :meth:`_radius`.  ``marginals`` and ``marginals_stream``
    hand the per-node ball computations to a
    :class:`~repro.runtime.executor.Runtime`, which decides where they run
    (see :meth:`~repro.runtime.executor.Runtime.stream_ball_marginals`).
    """

    @abc.abstractmethod
    def _radius(self, instance: SamplingInstance, error: float) -> int:
        """Inner ball radius ``t`` of the computation."""

    def locality(self, instance: SamplingInstance, error: float) -> int:
        """The ball radius plus the constant padding of the factor diameter."""
        return self._radius(instance, error) + 2 * instance.distribution.locality()

    def marginal(
        self, instance: SamplingInstance, node: Node, error: float
    ) -> Dict[Value, float]:
        """Padded-ball marginal of ``node`` at the engine's radius."""
        return padded_ball_marginal(
            instance, node, self._radius(instance, error), engine=self.engine
        )

    def marginals(
        self, instance: SamplingInstance, error: float, nodes=None, runtime=None
    ) -> Dict[Node, Dict[Value, float]]:
        """Per-node marginals: :meth:`marginals_stream` drained into a dict."""
        return dict(self.marginals_stream(instance, error, nodes, runtime=runtime))

    def marginals_stream(
        self, instance: SamplingInstance, error: float, nodes=None, runtime=None
    ) -> Iterator[Tuple[Node, Dict[Value, float]]]:
        """Stream ``(node, marginal)`` pairs from ``runtime`` (default serial).

        Values equal :meth:`marginal` on every backend; the order is the
        runtime's (completion order when its workers compute them).
        """
        from repro.runtime import resolve_runtime

        targets = instance.free_nodes if nodes is None else list(nodes)
        return resolve_runtime(runtime).stream_ball_marginals(
            instance, targets, self._radius(instance, error), engine=self.engine
        )


class TruncatedBallInference(PaddedBallInference):
    """The Theorem 5.1 computation at a fixed, explicitly chosen radius.

    Useful when the radius is the independent variable of an experiment
    (e.g. measuring the accuracy-versus-locality trade-off on either side of
    the uniqueness threshold); ``error`` does not change the radius.
    """

    def __init__(self, radius: int, engine: Optional[str] = None) -> None:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.radius = radius
        self.engine = engine

    def _radius(self, instance: SamplingInstance, error: float) -> int:
        return self.radius


class BoundaryPaddedInference(PaddedBallInference):
    """SSM-scheduled LOCAL inference (the full Theorem 5.1 converse algorithm).

    The radius is chosen as ``min{t : C * n * alpha^t <= delta}`` where
    ``alpha`` is the SSM decay rate.  The decay rate can be given explicitly
    or read from the model metadata (``"ssm_decay_rate"``); if neither is
    available a conservative default of 0.5 is used and the engine's accuracy
    should be verified empirically (the tests do exactly that).
    """

    def __init__(
        self,
        decay_rate: Optional[float] = None,
        constant: float = 1.0,
        max_radius: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> None:
        if decay_rate is not None and not 0.0 <= decay_rate < 1.0:
            raise ValueError("decay_rate must lie in [0, 1)")
        self.decay_rate = decay_rate
        self.constant = constant
        self.max_radius = max_radius
        self.engine = engine

    def _rate(self, instance: SamplingInstance) -> float:
        if self.decay_rate is not None:
            return self.decay_rate
        rate = instance.distribution.metadata.get("ssm_decay_rate")
        if rate is not None:
            return float(rate)
        return 0.5

    def _radius(self, instance: SamplingInstance, error: float) -> int:
        radius = locality_for_error(
            self._rate(instance), instance.size, error, constant=self.constant
        )
        if self.max_radius is not None:
            radius = min(radius, self.max_radius)
        return radius
