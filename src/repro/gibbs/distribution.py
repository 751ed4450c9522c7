"""The Gibbs distribution of a weighted constraint satisfaction problem.

:class:`GibbsDistribution` implements Definition 2.3 of the paper: a graph
``G = (V, E)``, an alphabet ``Sigma``, and a collection of factors; the
distribution assigns each configuration ``sigma in Sigma^V`` the probability
``w(sigma) / Z`` where ``w`` is the product of the factor weights and ``Z``
the partition function.

The class exposes exactly the operations the paper's algorithms rely on:

* weights, partition functions and exact marginals (ground truth, via
  variable elimination);
* feasibility and *local* feasibility of partial configurations, and the
  locally-admissible check of Definition 2.5;
* the locality of the factor collection (Definition 2.4);
* ball-restricted weights ``w_B(sigma)`` used by the boosting lemma, the
  JVV sampler and the SSM-based inference algorithm.

Evaluation backends
-------------------

All exact queries accept an ``engine`` keyword (default ``"compiled"``):
``"compiled"`` routes through the array-backed engine of
:mod:`repro.engine` (integer-indexed nodes, dense factor arrays, tensor
contractions, memoised repeat queries), ``"dict"`` selects the reference
dict-of-tuples eliminator of :mod:`repro.gibbs.elimination`.  Each
distribution lazily caches one compiled form of the full instance plus a
:class:`~repro.engine.cache.BallCache` of compiled ball restrictions shared
by every ball-local algorithm (see :meth:`ball_marginal`).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.engine import resolve_engine
from repro.engine.cache import BallCache
from repro.engine.compiled import CompiledGibbs
from repro.gibbs.elimination import (
    eliminate_marginal,
    eliminate_partition_function,
    factor_tables_from,
)
from repro.gibbs.factors import Factor
from repro.gibbs.pinning import Pinning

Node = Hashable
Value = Hashable
Configuration = Mapping[Node, Value]


class GibbsDistribution:
    """A Gibbs distribution specified by ``(G, Sigma, F)``.

    Parameters
    ----------
    graph:
        The underlying simple undirected graph ``G = (V, E)``.
    alphabet:
        The alphabet ``Sigma`` shared by all nodes.  Per-node restrictions
        (e.g. color lists) are expressed through unary factors.
    factors:
        The constraint collection ``F``; every factor scope must be a subset
        of the graph's nodes.
    name:
        Optional label used by reports and benchmarks.
    """

    def __init__(
        self,
        graph: nx.Graph,
        alphabet: Sequence[Value],
        factors: Sequence[Factor],
        name: str = "gibbs",
        metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        if len(alphabet) == 0:
            raise ValueError("the alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("the alphabet contains duplicate symbols")
        node_set = set(graph.nodes())
        for factor in factors:
            missing = [node for node in factor.scope if node not in node_set]
            if missing:
                raise ValueError(
                    f"factor {factor.name!r} references nodes {missing} outside the graph"
                )
        self.graph = graph
        self.alphabet: Tuple[Value, ...] = tuple(alphabet)
        self.factors: Tuple[Factor, ...] = tuple(factors)
        self.name = name
        #: Model-level annotations set by the constructors in ``repro.models``
        #: (e.g. ``fugacity``, ``locally_admissible``, ``uniqueness``).
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._factor_tables = None
        self._nodes: Optional[Tuple[Node, ...]] = None
        self._compiled: Optional[CompiledGibbs] = None
        self._ball_cache: Optional[BallCache] = None
        self._locality: Optional[int] = None
        #: Positions in :attr:`factors` of the factors touching each node.
        #: Positions depend on scopes alone, and :meth:`update_factors` keeps
        #: every scope in place, so the index outlives reweighting.
        self._factors_by_node: Dict[Node, List[int]] = {node: [] for node in graph.nodes()}
        for i, factor in enumerate(self.factors):
            for node in factor.scope:
                self._factors_by_node[node].append(i)

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """The nodes of the underlying graph, in deterministic order.

        The ordering is computed once and cached (the sort used to sit inside
        every sampler loop); a fresh list is returned so callers may mutate
        it freely.
        """
        if self._nodes is None:
            try:
                self._nodes = tuple(sorted(self.graph.nodes()))
            except TypeError:
                self._nodes = tuple(sorted(self.graph.nodes(), key=repr))
        return list(self._nodes)

    @property
    def size(self) -> int:
        """Number of nodes ``n``."""
        return self.graph.number_of_nodes()

    @property
    def alphabet_size(self) -> int:
        """Alphabet size ``q``."""
        return len(self.alphabet)

    def factors_at(self, node: Node) -> List[Factor]:
        """All factors whose scope contains ``node``."""
        factors = self.factors
        return [factors[i] for i in self._factors_by_node.get(node, ())]

    def factors_within(self, nodes: Iterable[Node]) -> List[Factor]:
        """All factors whose scope is entirely inside the node set.

        In distribution order.  Only the factors touching the node set are
        examined, so the cost follows the set (a ball), not the instance.
        """
        node_set = nodes if isinstance(nodes, (set, frozenset)) else set(nodes)
        factors = self.factors
        by_node = self._factors_by_node
        inside = {
            i
            for node in node_set
            for i in by_node.get(node, ())
            if factors[i].scope_set <= node_set
        }
        return [factors[i] for i in sorted(inside)]

    def locality(self) -> int:
        """Maximum scope diameter over all factors (Definition 2.4).

        Local Gibbs distributions have ``locality() = O(1)``; every model in
        this repository has locality 0 or 1.  The value is computed once and
        cached -- it involves one BFS per multi-node scope, and ball-local
        algorithms query it on every marginal call.
        """
        if self._locality is None:
            if not self.factors:
                self._locality = 0
            else:
                self._locality = max(
                    factor.scope_diameter(self.graph) for factor in self.factors
                )
        return self._locality

    def max_degree(self) -> int:
        """Maximum degree of the underlying graph."""
        degrees = [degree for _, degree in self.graph.degree()]
        return max(degrees, default=0)

    # ------------------------------------------------------------------
    # weights and partition functions
    # ------------------------------------------------------------------
    def weight(
        self, configuration: Configuration, engine: Optional[str] = None
    ) -> float:
        """Unnormalised weight ``w(sigma)`` of a full configuration."""
        self._require_full(configuration)
        if resolve_engine(engine) == "compiled":
            compiled = self.compiled_engine()
            try:
                # Fast path: every value is an alphabet symbol, so the
                # compiled factor arrays apply (one gather per factor, no
                # dict building).  Only out-of-alphabet values fall back.
                return compiled.configuration_weight(configuration)
            except KeyError:
                pass
        weight = 1.0
        for factor in self.factors:
            weight *= factor.evaluate(configuration)
            if weight == 0.0:
                return 0.0
        return weight

    def log_weight(
        self, configuration: Configuration, engine: Optional[str] = None
    ) -> float:
        """Natural logarithm of ``w(sigma)`` (``-inf`` for weight zero)."""
        weight = self.weight(configuration, engine=engine)
        return math.log(weight) if weight > 0.0 else float("-inf")

    def weight_within(self, nodes: Iterable[Node], configuration: Configuration) -> float:
        """Ball-restricted weight ``w_B(sigma) = prod_{scope(f) subseteq B} f(sigma)``.

        The configuration only needs to be defined on the node set; this is
        the quantity the boosting lemma and the SSM inference algorithm
        compute inside a ball ``B``.
        """
        node_set = set(nodes)
        weight = 1.0
        for factor in self.factors_within(node_set):
            weight *= factor.evaluate(configuration)
            if weight == 0.0:
                return 0.0
        return weight

    def partition_function(
        self,
        pinning: Optional[Mapping[Node, Value]] = None,
        engine: Optional[str] = None,
    ) -> float:
        """Exact conditional partition function ``Z(tau)``."""
        pinning = self._check_pinning(pinning)
        if resolve_engine(engine) == "compiled":
            return self.compiled_engine().partition_function(pinning)
        return eliminate_partition_function(
            self._tables(), self.nodes, self.alphabet, pinning, engine="dict"
        )

    # ------------------------------------------------------------------
    # probabilities and marginals (exact, used as ground truth)
    # ------------------------------------------------------------------
    def probability(
        self,
        configuration: Configuration,
        pinning: Optional[Mapping[Node, Value]] = None,
        engine: Optional[str] = None,
    ) -> float:
        """Conditional probability ``mu^tau(sigma)`` of a full configuration."""
        pinning = self._check_pinning(pinning)
        self._require_full(configuration)
        z_value = self.partition_function(pinning, engine=engine)
        if z_value <= 0.0:
            raise ValueError("infeasible pinning: conditional partition function is zero")
        for node, value in pinning.items():
            if configuration[node] != value:
                return 0.0
        return self.weight(configuration, engine=engine) / z_value

    def marginal(
        self,
        node: Node,
        pinning: Optional[Mapping[Node, Value]] = None,
        engine: Optional[str] = None,
    ) -> Dict[Value, float]:
        """Exact conditional marginal ``mu^tau_v`` at a single node."""
        pinning = self._check_pinning(pinning)
        if resolve_engine(engine) == "compiled":
            return self.compiled_engine().marginal(node, pinning)
        return eliminate_marginal(
            self._tables(), self.nodes, self.alphabet, pinning, node, engine="dict"
        )

    def joint_marginal(
        self,
        nodes: Sequence[Node],
        pinning: Optional[Mapping[Node, Value]] = None,
        engine: Optional[str] = None,
    ) -> Dict[Tuple[Value, ...], float]:
        """Exact conditional joint marginal over a small tuple of nodes.

        The compiled backend (default) builds *one* contraction schedule with
        multiple kept axes and reads every joint weight out of a single
        execution; the dict backend retains the chain-rule loop
        ``Z(tau ∪ sigma_R) / Z(tau)`` over value tuples as the independent
        reference.  Either way the result is exponential in ``len(nodes)``,
        so this is intended for small node tuples (pair correlation
        measurements, conditional-independence tests).
        """
        pinning_obj = Pinning(self._check_pinning(pinning))
        if resolve_engine(engine) == "compiled":
            return self._joint_marginal_compiled(nodes, pinning_obj)
        base = self.partition_function(pinning_obj, engine=engine)
        if base <= 0.0:
            raise ValueError("infeasible pinning: conditional partition function is zero")
        result: Dict[Tuple[Value, ...], float] = {}
        free_nodes = [node for node in nodes if node not in pinning_obj]
        fixed_positions = {i: pinning_obj[node] for i, node in enumerate(nodes) if node in pinning_obj}
        for values in itertools.product(self.alphabet, repeat=len(free_nodes)):
            assignment = dict(zip(free_nodes, values))
            extended = pinning_obj.union(assignment)
            weight = self.partition_function(extended, engine=engine)
            key_values = []
            free_iter = iter(values)
            for i, node in enumerate(nodes):
                if i in fixed_positions:
                    key_values.append(fixed_positions[i])
                else:
                    key_values.append(next(free_iter))
            result[tuple(key_values)] = weight / base
        return result

    def _joint_marginal_compiled(
        self, nodes: Sequence[Node], pinning_obj: Pinning
    ) -> Dict[Tuple[Value, ...], float]:
        """Joint marginal via one multi-kept-axis contraction schedule."""
        compiled = self.compiled_engine()
        base = compiled.partition_function(pinning_obj)
        if base <= 0.0:
            raise ValueError("infeasible pinning: conditional partition function is zero")
        free_query, array = compiled.joint_marginal_weights(nodes, pinning_obj)
        result: Dict[Tuple[Value, ...], float] = {}
        for values in itertools.product(self.alphabet, repeat=len(free_query)):
            assignment = dict(zip(free_query, values))
            codes = tuple(compiled.symbol_index[value] for value in values)
            weight = float(array[codes]) if free_query else float(array)
            key = tuple(
                pinning_obj[node] if node in pinning_obj else assignment[node]
                for node in nodes
            )
            result[key] = weight / base
        return result

    def support(
        self, pinning: Optional[Mapping[Node, Value]] = None
    ) -> Iterator[Dict[Node, Value]]:
        """Iterate over all feasible full configurations consistent with ``tau``.

        Brute force over ``Sigma^{V \\ Lambda}``; only for small instances.
        """
        pinning = self._check_pinning(pinning)
        free_nodes = [node for node in self.nodes if node not in pinning]
        for values in itertools.product(self.alphabet, repeat=len(free_nodes)):
            configuration = dict(pinning)
            configuration.update(zip(free_nodes, values))
            if self.weight(configuration) > 0.0:
                yield configuration

    # ------------------------------------------------------------------
    # feasibility (Definition 2.5)
    # ------------------------------------------------------------------
    def is_feasible(
        self, pinning: Mapping[Node, Value], engine: Optional[str] = None
    ) -> bool:
        """Whether the partial configuration has a feasible extension."""
        pinning = self._check_pinning(pinning)
        return self.partition_function(pinning, engine=engine) > 0.0

    def is_locally_feasible(self, pinning: Mapping[Node, Value]) -> bool:
        """Whether the partial configuration violates no constraint it covers.

        A configuration ``sigma`` on ``Lambda`` is locally feasible when the
        product of all factors with scope inside ``Lambda`` is positive.
        """
        pinning = self._check_pinning(pinning)
        domain = set(pinning)
        for factor in self.factors_within(domain):
            if factor.evaluate(pinning) == 0.0:
                return False
        return True

    def is_locally_admissible(self, max_subset_size: Optional[int] = None) -> bool:
        """Exhaustively check local admissibility (Definition 2.5).

        The distribution is locally admissible when every locally feasible
        partial configuration is feasible.  The check enumerates all subsets
        up to ``max_subset_size`` (default: all of them), so it is only
        practical on small instances; model constructors instead declare
        admissibility analytically via their ``locally_admissible`` flag.
        """
        nodes = self.nodes
        limit = len(nodes) if max_subset_size is None else min(max_subset_size, len(nodes))
        for size in range(1, limit + 1):
            for subset in itertools.combinations(nodes, size):
                for values in itertools.product(self.alphabet, repeat=size):
                    partial = dict(zip(subset, values))
                    if self.is_locally_feasible(partial) and not self.is_feasible(partial):
                        return False
        return True

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def restricted_tables(self, nodes: Iterable[Node]):
        """(scope, table) pairs for all factors fully inside the node set.

        Used by the LOCAL algorithms to run exact inference *inside a ball*
        without ever touching information outside it.
        """
        return factor_tables_from(self.factors_within(nodes), self.alphabet)

    def compiled_engine(self) -> CompiledGibbs:
        """The array-backed compiled form of the full instance (lazy, cached)."""
        if self._compiled is None:
            self._compiled = CompiledGibbs.from_factors(
                self.nodes, self.alphabet, self.factors
            )
        return self._compiled

    def update_factors(self, factors: Sequence[Factor]) -> None:
        """Swap in reweighted factors, invalidating value-dependent caches.

        The learning subsystem re-evaluates the model at a new parameter
        vector every gradient step; the graph, alphabet and factor *scopes*
        are fixed, only the weights change.  This method therefore requires
        the replacement factors to match the existing ones scope-for-scope
        (in order), and then invalidates exactly the caches whose contents
        depend on weight values: the dict factor tables, the ball cache
        (compiled balls and their marginal memos embed the old arrays), and
        the compiled full instance -- rebuilt cheaply via
        :meth:`~repro.engine.compiled.CompiledGibbs.reweighted`, whose
        elimination orders and schedules stay warm in the process-wide plan
        store shared by every engine of the same structure.
        """
        if len(factors) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} factors, got {len(factors)}"
            )
        for old, new in zip(self.factors, factors):
            if tuple(new.scope) != tuple(old.scope):
                raise ValueError(
                    f"replacement factor {new.name!r} has scope {tuple(new.scope)}, "
                    f"expected {tuple(old.scope)} (scopes must match in order)"
                )
        self.factors = tuple(factors)
        self._factor_tables = None
        if self._ball_cache is not None:
            self._ball_cache.clear()
        if self._compiled is not None:
            self._compiled = self._compiled.reweighted(
                [factor.dense_table(self.alphabet) for factor in self.factors]
            )

    def ball_cache(self) -> BallCache:
        """The memoised ball-compilation cache shared by ball-local algorithms."""
        if self._ball_cache is None:
            self._ball_cache = BallCache(self)
        return self._ball_cache

    def ball_marginal(
        self,
        center: Node,
        radius: int,
        pinning: Mapping[Node, Value],
        node: Node,
        engine: Optional[str] = None,
    ) -> Dict[Value, float]:
        """Exact marginal of ``node`` in the sub-instance restricted to
        ``B_radius(center)`` (only factors fully inside the ball, pinning
        restricted to the ball).

        This is the primitive behind Theorem 5.1's inference algorithm and
        the boosting lemma.  The compiled backend memoises the ball
        compilation by ``(center, radius)`` and the result by the pinning
        signature, so repeated queries across nodes and rounds are cache
        hits; the dict backend recomputes from scratch (reference behaviour).
        """
        if resolve_engine(engine) == "compiled":
            return self.ball_cache().ball_marginal(center, radius, pinning, node)
        from repro.graphs.structure import ball as _ball

        nodes = _ball(self.graph, center, radius)
        restricted = {n: v for n, v in pinning.items() if n in nodes}
        tables = self.restricted_tables(nodes)
        ordered = sorted(nodes, key=repr)
        # eliminate_marginal returns the point mass itself when ``node`` is
        # pinned, so no special case is needed here.
        return eliminate_marginal(
            tables, ordered, self.alphabet, restricted, node, engine="dict"
        )

    def _tables(self):
        if self._factor_tables is None:
            self._factor_tables = factor_tables_from(self.factors, self.alphabet)
        return self._factor_tables

    def _check_pinning(self, pinning: Optional[Mapping[Node, Value]]) -> Dict[Node, Value]:
        if pinning is None:
            return {}
        node_set = set(self.graph.nodes())
        alphabet_set = set(self.alphabet)
        checked = {}
        for node, value in pinning.items():
            if node not in node_set:
                raise ValueError(f"pinned node {node!r} is not in the graph")
            if value not in alphabet_set:
                raise ValueError(f"pinned value {value!r} is not in the alphabet")
            checked[node] = value
        return checked

    def _require_full(self, configuration: Configuration) -> None:
        for node in self.graph.nodes():
            if node not in configuration:
                raise ValueError(f"configuration is missing node {node!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GibbsDistribution(name={self.name!r}, n={self.size}, "
            f"q={self.alphabet_size}, factors={len(self.factors)})"
        )
