"""Parameterised exponential families over a fixed graph.

Weight learning estimates a parameter vector ``theta``, not an arbitrary
factor collection: a :class:`ModelFamily` fixes the graph, the alphabet and
the factor *structure*, and exposes

* ``build(theta)`` -- a fresh :class:`~repro.gibbs.distribution.GibbsDistribution`
  at ``theta``;
* ``distribution_at(theta)`` -- a persistent template re-weighted in place
  (via :meth:`~repro.gibbs.distribution.GibbsDistribution.update_factors`),
  so the compiled engine's structural caches stay warm across gradient
  steps;
* ``features(codes)`` -- the sufficient statistics ``phi(sigma)`` of a
  ``(samples, n)`` code matrix, satisfying the exponential-family contract

  .. math:: \\partial_\\theta \\log w(\\sigma; \\theta) = \\phi(\\sigma)

  exactly (additive constants included), which is what makes the
  pseudo-likelihood gradient and the contrastive-divergence estimator of
  this package exact per-family rather than model-by-model code;
* ``local_features(codes, column)`` -- ``phi`` evaluated at every alphabet
  substitution of one node, the inner quantity of the pseudo-likelihood
  gradient (a generic substitution fallback is provided; families override
  it with incremental updates).

Columns of a code matrix follow the compiled node order
(``sorted(graph.nodes())``), shared with the engine and the batched runner.

Two concrete families cover the paper's flagship models:
:class:`IsingFamily` (``theta = (interaction, external_field)``) and
:class:`HardcoreFamily` (``theta = (log_fugacity,)``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.gibbs.distribution import GibbsDistribution
from repro.models.hardcore import hardcore_model
from repro.models.ising import ising_model


class ModelFamily(ABC):
    """A ``theta``-parameterised family of Gibbs distributions on one graph."""

    #: Human-readable parameter names, one per component of ``theta``.
    parameter_names: Tuple[str, ...] = ()

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph
        self._template: Optional[GibbsDistribution] = None
        self._template_theta: Optional[Tuple[float, ...]] = None

    @property
    def n_parameters(self) -> int:
        return len(self.parameter_names)

    # ------------------------------------------------------------------
    @abstractmethod
    def build(self, theta: np.ndarray) -> GibbsDistribution:
        """A fresh distribution of this family at parameter vector ``theta``."""

    @abstractmethod
    def features(self, codes: np.ndarray) -> np.ndarray:
        """Sufficient statistics ``phi`` of a ``(m, n)`` code matrix, as ``(m, K)``.

        The contract is exact: ``log w(sigma; theta) = theta . phi(sigma) +
        c(sigma)`` with ``c`` independent of ``theta`` (hard constraints live
        in ``c``).
        """

    # ------------------------------------------------------------------
    def template(self) -> GibbsDistribution:
        """The persistent template distribution (built lazily at ``theta = 0``)."""
        if self._template is None:
            zero = np.zeros(self.n_parameters)
            self._template = self.build(zero)
            self._template_theta = tuple(zero)
        return self._template

    def distribution_at(self, theta: np.ndarray) -> GibbsDistribution:
        """The template re-weighted in place to ``theta`` (cheap per step).

        Unlike :meth:`build`, the returned object is the *same* distribution
        every call -- its factor weights move, its compiled engine is rebuilt
        via :meth:`~repro.engine.compiled.CompiledGibbs.reweighted` (its
        elimination orders and schedules come from the process-wide plan
        store, keyed by structure), and its ball cache is cleared.
        Callers must not hold on to stale marginals across calls.
        """
        theta_key = tuple(float(t) for t in np.asarray(theta, dtype=float))
        template = self.template()
        if theta_key != self._template_theta:
            template.update_factors(self.build(np.asarray(theta, dtype=float)).factors)
            self._template_theta = theta_key
        return template

    def local_features(self, codes: np.ndarray, column: int) -> np.ndarray:
        """``phi`` under every alphabet substitution at one node: ``(m, q, K)``.

        Entry ``[i, a, :]`` is ``features`` of sample ``i`` with node
        ``column`` set to code ``a``.  This generic fallback substitutes and
        recomputes; families with cheap incremental feature updates override
        it (see :meth:`IsingFamily.local_features`).
        """
        q = len(self.template().alphabet)
        m = codes.shape[0]
        out = np.empty((m, q, self.n_parameters))
        scratch = codes.copy()
        for a in range(q):
            scratch[:, column] = a
            out[:, a, :] = self.features(scratch)
        scratch[:, column] = codes[:, column]
        return out

    def mean_features(self, codes: np.ndarray) -> np.ndarray:
        """``phi`` averaged over the samples, as a length-``K`` vector."""
        return np.asarray(self.features(codes), dtype=float).mean(axis=0)


def _column_index(graph: nx.Graph) -> Dict:
    """Node -> column maps matching the compiled node order."""
    try:
        ordered = sorted(graph.nodes())
    except TypeError:
        ordered = sorted(graph.nodes(), key=repr)
    return {node: i for i, node in enumerate(ordered)}


class IsingFamily(ModelFamily):
    """The Ising model: ``theta = (interaction J, external_field h)``.

    With spins ``s = 2 * code - 1 in {-1, +1}`` the repository's
    parameterisation (:func:`repro.models.ising.ising_model`) gives
    ``log w = J * sum_{uv} (s_u s_v + 1) + h * sum_v (s_v + 1)``, so the
    sufficient statistics are ``phi_J = sum_{uv} (s_u s_v + 1)`` and
    ``phi_h = sum_v (s_v + 1)`` -- the ``+1`` offsets keep the contract
    ``d log w / d theta = phi`` exact, constants included.
    """

    parameter_names = ("interaction", "external_field")

    def __init__(self, graph: nx.Graph) -> None:
        super().__init__(graph)
        index = _column_index(graph)
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        self._edge_u = np.array([u for u, _ in edges], dtype=np.int64)
        self._edge_v = np.array([v for _, v in edges], dtype=np.int64)
        #: Per-column neighbour column lists (for incremental local features).
        self._neighbours: List[np.ndarray] = [
            np.array([index[m] for m in graph.neighbors(node)], dtype=np.int64)
            for node in sorted(index, key=index.get)
        ]

    def build(self, theta: np.ndarray) -> GibbsDistribution:
        interaction, external_field = (float(t) for t in theta)
        return ising_model(
            self.graph, interaction=interaction, external_field=external_field
        )

    def features(self, codes: np.ndarray) -> np.ndarray:
        spins = 2 * np.asarray(codes, dtype=np.int64) - 1
        phi_j = (spins[:, self._edge_u] * spins[:, self._edge_v] + 1).sum(axis=1)
        phi_h = (spins + 1).sum(axis=1)
        return np.stack([phi_j, phi_h], axis=1).astype(float)

    def local_features(self, codes: np.ndarray, column: int) -> np.ndarray:
        spins = 2 * np.asarray(codes, dtype=np.int64) - 1
        base = self.features(codes)  # (m, 2)
        s_v = spins[:, column]
        neighbour_sum = (
            spins[:, self._neighbours[column]].sum(axis=1)
            if len(self._neighbours[column])
            else np.zeros(len(spins), dtype=np.int64)
        )
        out = np.empty((codes.shape[0], 2, 2))
        for a, t in enumerate((-1, 1)):
            out[:, a, 0] = base[:, 0] + (t - s_v) * neighbour_sum
            out[:, a, 1] = base[:, 1] + (t - s_v)
        return out


class HardcoreFamily(ModelFamily):
    """The hardcore model: ``theta = (log_fugacity,)``.

    ``log w = log(lambda) * #occupied + c(sigma)`` where ``c`` is the
    ``theta``-independent independent-set indicator, so the sufficient
    statistic is the occupation count.
    """

    parameter_names = ("log_fugacity",)

    def build(self, theta: np.ndarray) -> GibbsDistribution:
        return hardcore_model(self.graph, fugacity=float(np.exp(float(theta[0]))))

    def features(self, codes: np.ndarray) -> np.ndarray:
        return np.asarray(codes, dtype=float).sum(axis=1, keepdims=True)

    def local_features(self, codes: np.ndarray, column: int) -> np.ndarray:
        base = self.features(codes)[:, 0]
        current = np.asarray(codes[:, column], dtype=float)
        out = np.empty((codes.shape[0], 2, 1))
        out[:, 0, 0] = base - current
        out[:, 1, 0] = base - current + 1.0
        return out


#: Families reachable by name (the ``repro-fit`` CLI and the trainer's
#: string shorthand).
FAMILIES = {
    "ising": IsingFamily,
    "hardcore": HardcoreFamily,
}


def family_by_name(name: str, graph: nx.Graph) -> ModelFamily:
    """Instantiate a registered family on ``graph``; raises for unknown names."""
    try:
        cls = FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown model family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None
    return cls(graph)
