"""Integer-indexed compilation of a Gibbs distribution.

:class:`CompiledGibbs` maps nodes to contiguous integers, alphabet symbols to
integer codes, and materialises every factor as a dense NumPy weight array
with one length-``q`` axis per scope node.  Partition functions and marginals
are then computed by the tensor-contraction eliminator of
:mod:`repro.engine.contraction` instead of the reference dict-of-tuples
engine in :mod:`repro.gibbs.elimination`.

The class is deliberately standalone (it never imports
:class:`~repro.gibbs.distribution.GibbsDistribution`): it is built either
from :class:`~repro.gibbs.factors.Factor`-like objects
(:meth:`CompiledGibbs.from_factors`) or from raw ``(scope, table)`` pairs
(:meth:`CompiledGibbs.from_tables`), so it can compile full instances as well
as ball-restricted sub-instances.

Two memoisations make repeated queries cheap:

* elimination orders and contraction schedules are cached per pinned
  *domain* (neither depends on the pinned values) in one process-wide plan
  store keyed by structure -- ``(node count, q, fused scopes)`` -- so every
  engine of the same shape shares them: the balls of one graph, the
  ``reweighted`` twins of the learning loop, fresh distributions on the same
  graph and the ``spec.to_instance()`` rebuilds of process and cluster
  workers;
* marginals are cached per ``(node, pinning signature)`` -- the signature is
  the encoded ``(variable, code)`` item set, so e.g. the JVV sampler's
  repeated acceptance-ratio queries hit the cache instead of re-eliminating.

Both caches are size-capped and simply reset when full, which keeps
long-running chains memory-bounded without LRU bookkeeping overhead.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.engine.contraction import (
    build_schedule,
    execute_schedule,
    min_degree_order,
    restrict_potential,
)

Node = Hashable
Value = Hashable

#: Cap on everything the process-wide plan store holds, summed over all
#: structures: one entry per structure, elimination order and schedule.
_PLAN_CACHE_LIMIT = 8192
#: Cap on cached marginals (distinct ``(node, pinning)`` queries).
_MARGINAL_CACHE_LIMIT = 65536


class _Plans:
    """The elimination orders and contraction schedules of one structure.

    ``live`` turns false when the store resets; an engine still holding
    the dropped plans registers its structure again on its next miss.
    """

    __slots__ = ("orders", "schedules", "live")

    def __init__(self) -> None:
        self.orders: Dict[frozenset, Tuple[int, ...]] = {}
        self.schedules: Dict[tuple, tuple] = {}
        self.live = True


class _PlanStore:
    """Elimination plans shared by every engine of the same structure.

    :meth:`CompiledGibbs._order_for` and :meth:`CompiledGibbs._schedule_for`
    read only the fused scopes, the node count, ``q``, the pinned domain and
    the kept axes, so their results are keyed by the structure
    ``(len(nodes), q, fused_scopes)`` -- compared by equality, never by
    identity -- and are bit-identical for every engine of that structure,
    whatever its weights.  Each engine looks its structure up once, at
    construction; hits read its plans without locking.  The store holds at
    most :data:`_PLAN_CACHE_LIMIT` entries (structures plus orders plus
    schedules) and resets as a whole when full, like the other engine
    caches.  Insertions take a lock, so concurrent engines (one serving
    executor thread per model) never see a half-reset store.
    """

    def __init__(self) -> None:
        self._plans: Dict[tuple, _Plans] = {}
        self._lock = threading.Lock()
        self.size = 0

    def plans_for(self, engine: "CompiledGibbs") -> _Plans:
        with self._lock:
            return self._register(engine)

    def remember(self, engine: "CompiledGibbs", table: str, key, value):
        """Insert one computed order or schedule; return the stored value."""
        with self._lock:
            if self.size >= _PLAN_CACHE_LIMIT:
                self._reset()
            if not engine._plans.live:
                engine._plans = self._register(engine)
            entries = getattr(engine._plans, table)
            if key not in entries:
                entries[key] = value
                self.size += 1
            return entries[key]

    def _register(self, engine: "CompiledGibbs") -> _Plans:
        structure = (len(engine.nodes), engine.q, engine.fused_scopes)
        plans = self._plans.get(structure)
        if plans is None:
            if self.size >= _PLAN_CACHE_LIMIT:
                self._reset()
            plans = self._plans[structure] = _Plans()
            self.size += 1
        return plans

    def clear(self) -> None:
        """Drop every plan: the next query of any engine runs cold."""
        with self._lock:
            self._reset()

    def _reset(self) -> None:
        for plans in self._plans.values():
            plans.live = False
            plans.orders.clear()
            plans.schedules.clear()
        self._plans.clear()
        self.size = 0

    def _after_fork(self) -> None:
        """Keep the inherited plans in a forked child, under a fresh lock.

        Another parent thread may have held the lock, or been between an
        insertion and its count, at the fork; the child would otherwise
        block on its first insertion (process pool workers are forked).
        """
        self._lock = threading.Lock()
        self.size = sum(1 + len(p.orders) + len(p.schedules) for p in self._plans.values())


#: The one plan store of this process.
_PLAN_STORE = _PlanStore()
os.register_at_fork(after_in_child=_PLAN_STORE._after_fork)


class CompiledGibbs:
    """A Gibbs (sub-)instance compiled to integer-indexed dense arrays.

    Parameters
    ----------
    nodes : sequence of node
        Node labels; positions become the integer variable ids.
    alphabet : sequence of value
        Symbol labels; positions become the integer codes.
    scopes : sequence of tuple of int
        Per-factor variable-id scopes.
    arrays : sequence of numpy.ndarray
        Per-factor dense weight tables, one length-``q`` axis per scope
        entry.

    Attributes
    ----------
    node_index, symbol_index : dict
        Inverse maps of ``nodes`` / ``alphabet``.
    q : int
        Alphabet size.
    factors_at : tuple of tuple of int
        Factor ids touching each variable.
    """

    __slots__ = (
        "nodes",
        "node_index",
        "alphabet",
        "symbol_index",
        "q",
        "scopes",
        "arrays",
        "factors_at",
        "fused_scopes",
        "fused_arrays",
        "_plans",
        "_marginal_memo",
        "_conditionals",
        "_batched_tables",
    )

    def __init__(
        self,
        nodes: Sequence[Node],
        alphabet: Sequence[Value],
        scopes: Sequence[Tuple[int, ...]],
        arrays: Sequence[np.ndarray],
    ) -> None:
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.node_index: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        self.alphabet: Tuple[Value, ...] = tuple(alphabet)
        self.symbol_index: Dict[Value, int] = {value: i for i, value in enumerate(self.alphabet)}
        self.q = len(self.alphabet)
        self.scopes: Tuple[Tuple[int, ...], ...] = tuple(tuple(scope) for scope in scopes)
        self.arrays: Tuple[np.ndarray, ...] = tuple(arrays)
        factors_at: List[List[int]] = [[] for _ in self.nodes]
        for factor_id, scope in enumerate(self.scopes):
            for variable in scope:
                factors_at[variable].append(factor_id)
        self.factors_at: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ids) for ids in factors_at
        )
        self.fused_scopes, self.fused_arrays = _fuse_factors(self.scopes, self.arrays)
        self._plans = _PLAN_STORE.plans_for(self)
        self._marginal_memo: Dict[tuple, Dict[Value, float]] = {}
        self._conditionals = None
        self._batched_tables = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_factors(
        cls, nodes: Sequence[Node], alphabet: Sequence[Value], factors: Sequence
    ) -> "CompiledGibbs":
        """Compile :class:`~repro.gibbs.factors.Factor`-like objects.

        Each factor must expose ``scope`` and ``dense_table(alphabet)``; the
        dense table is cached on the factor, so compiling many overlapping
        balls of the same distribution materialises each factor only once.
        """
        node_index = {node: i for i, node in enumerate(nodes)}
        scopes = [tuple(node_index[node] for node in factor.scope) for factor in factors]
        arrays = [factor.dense_table(alphabet) for factor in factors]
        return cls(nodes, alphabet, scopes, arrays)

    @classmethod
    def from_tables(
        cls,
        nodes: Sequence[Node],
        alphabet: Sequence[Value],
        tables: Sequence[Tuple[Sequence[Node], Mapping[Tuple[Value, ...], float]]],
    ) -> "CompiledGibbs":
        """Compile raw ``(scope, table)`` pairs (the dict engine's input format)."""
        node_index = {node: i for i, node in enumerate(nodes)}
        symbol_index = {value: i for i, value in enumerate(alphabet)}
        q = len(alphabet)
        scopes: List[Tuple[int, ...]] = []
        arrays: List[np.ndarray] = []
        for scope, entries in tables:
            scopes.append(tuple(node_index[node] for node in scope))
            array = np.zeros((q,) * len(scope))
            for key, weight in entries.items():
                codes = tuple(symbol_index.get(value) for value in key)
                if any(code is None for code in codes):
                    continue
                array[codes] = weight
            arrays.append(array)
        return cls(nodes, alphabet, scopes, arrays)

    def reweighted(self, arrays: Sequence[np.ndarray]) -> "CompiledGibbs":
        """A compiled twin with new factor weights on the same structure.

        The learning loop re-evaluates the model at a fresh parameter vector
        every iteration; the nodes, alphabet and factor scopes never change,
        only the dense weight tables do.  Elimination orders and contraction
        schedules depend solely on the scope structure and the pinned domain,
        so the twin finds them in the process-wide plan store (like every
        engine of the same structure), while the value-dependent state --
        fused tables, marginal memo, gathered conditionals, batched blanket
        tables -- is rebuilt fresh.
        """
        if len(arrays) != len(self.scopes):
            raise ValueError(
                f"expected {len(self.scopes)} factor arrays, got {len(arrays)}"
            )
        for scope, array in zip(self.scopes, arrays):
            if np.shape(array) != (self.q,) * len(scope):
                raise ValueError(
                    f"factor array shape {np.shape(array)} does not match scope "
                    f"{scope} over a q={self.q} alphabet"
                )
        return CompiledGibbs(self.nodes, self.alphabet, self.scopes, arrays)

    # ------------------------------------------------------------------
    # pinning encoding
    # ------------------------------------------------------------------
    def _encode_pinning(
        self, pinning: Mapping[Node, Value]
    ) -> Optional[Tuple[Dict[int, int], frozenset]]:
        """Encode a pinning as variable codes.

        Returns ``(pin_codes, pinned_domain)``; pinned nodes outside this
        sub-instance are ignored.  ``None`` signals a trivially infeasible
        pinning (a factored node pinned to a symbol outside the alphabet).
        """
        pin_codes: Dict[int, int] = {}
        pinned: set = set()
        for node, value in pinning.items():
            variable = self.node_index.get(node)
            if variable is None:
                continue
            pinned.add(variable)
            code = self.symbol_index.get(value)
            if code is None:
                if self.factors_at[variable]:
                    return None
                continue
            pin_codes[variable] = code
        return pin_codes, frozenset(pinned)

    def _order_for(self, pinned: frozenset) -> Tuple[int, ...]:
        order = self._plans.orders.get(pinned)
        if order is None:
            if pinned:
                # Pinning a variable only removes it from scopes, so the
                # elimination graph under the base (unpinned) order is a
                # subgraph of the unpinned one: filtering the base order
                # never increases the induced width, and skips re-running
                # the min-degree heuristic per pinned domain.
                order = tuple(v for v in self._order_for(frozenset()) if v not in pinned)
            else:
                free = list(range(len(self.nodes)))
                covered = set()
                for scope in self.fused_scopes:
                    covered.update(scope)
                scopes = list(self.fused_scopes) + [(v,) for v in free if v not in covered]
                order = min_degree_order(scopes, free)
            order = _PLAN_STORE.remember(self, "orders", pinned, order)
        return order

    def _restricted_arrays(self, pin_codes: Mapping[int, int]):
        if not pin_codes:
            return self.fused_arrays
        return [
            restrict_potential(scope, array, pin_codes)[1]
            for scope, array in zip(self.fused_scopes, self.fused_arrays)
        ]

    def _schedule_for(self, pinned: frozenset, keep: Tuple[int, ...]) -> tuple:
        """The cached contraction schedule for a pinned domain and kept axes.

        The schedule (see :func:`repro.engine.contraction.build_schedule`)
        depends only on the structure and on which variables are pinned, so
        sweeps that re-query the same domain with different pinned values
        (SSM measurement, the phase-transition experiment, JVV acceptance
        ratios) replay pure array operations with no elimination
        bookkeeping -- and so does every other engine of the same structure,
        whatever its weights, through the process-wide plan store.
        """
        key = (pinned, keep)
        schedule = self._plans.schedules.get(key)
        handle = obs.active()
        if schedule is None:
            if handle is not None:
                handle.metrics.counter("engine.schedule_cache.misses").inc()
            restricted_axes = [
                tuple(v for v in scope if v not in pinned) for scope in self.fused_scopes
            ]
            free = [v for v in range(len(self.nodes)) if v not in pinned]
            schedule = build_schedule(
                restricted_axes, free, self.q, keep=keep, order=self._order_for(pinned)
            )
            schedule = _PLAN_STORE.remember(self, "schedules", key, schedule)
        elif handle is not None:
            handle.metrics.counter("engine.schedule_cache.hits").inc()
        return schedule

    # ------------------------------------------------------------------
    # pickling (the process runtime ships compiled instances and balls
    # between workers; see :mod:`repro.runtime.shards`)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Ship only the immutable compiled form.

        The memo caches, fused tables, gathered conditionals and batched
        blanket tables are all derived state: dropping them keeps worker
        payloads small and the receiving side rebuilds them lazily on
        first use.
        """
        return (self.nodes, self.alphabet, self.scopes, self.arrays)

    def __setstate__(self, state) -> None:
        nodes, alphabet, scopes, arrays = state
        self.__init__(nodes, alphabet, scopes, arrays)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def partition_function(self, pinning: Mapping[Node, Value]) -> float:
        """Exact conditional partition function ``Z(tau)``.

        Parameters
        ----------
        pinning : mapping of node to value
            The boundary condition ``tau``; nodes outside this sub-instance
            are ignored.

        Returns
        -------
        float
            ``sum_sigma prod_f f(sigma)`` over configurations extending the
            pinning; ``0.0`` for a trivially infeasible pinning.
        """
        encoded = self._encode_pinning(pinning)
        if encoded is None:
            return 0.0
        pin_codes, pinned = encoded
        ops, _ = self._schedule_for(pinned, ())
        array = execute_schedule(ops, self._restricted_arrays(pin_codes), self.q)
        return float(array.sum())

    def marginal_weights(self, node: Node, pinning: Mapping[Node, Value]) -> np.ndarray:
        """Unnormalised marginal weights of ``node``, in alphabet-code order.

        Parameters
        ----------
        node : node
            The query node; must belong to this sub-instance and be free
            under the pinning.
        pinning : mapping of node to value
            The boundary condition.

        Returns
        -------
        numpy.ndarray
            Length-``q`` weights in alphabet-code order; all zeros for a
            trivially infeasible pinning.

        Raises
        ------
        ValueError
            When the node is not part of the sub-instance or not free.
        """
        variable = self._variable_of(node)
        encoded = self._encode_pinning(pinning)
        if encoded is None:
            return np.zeros(self.q)
        return self._encoded_marginal_weights(variable, *encoded)

    def _variable_of(self, node: Node) -> int:
        variable = self.node_index.get(node)
        if variable is None:
            raise ValueError(f"node {node!r} is not part of the instance")
        return variable

    def _encoded_marginal_weights(
        self, variable: int, pin_codes: Mapping[int, int], pinned: frozenset
    ) -> np.ndarray:
        """:meth:`marginal_weights` of a variable under an encoded pinning."""
        ops, axes = self._schedule_for(pinned, (variable,))
        array = execute_schedule(ops, self._restricted_arrays(pin_codes), self.q)
        if axes == ():
            # The kept node was pinned away or is outside the free set.
            raise ValueError(f"node {self.nodes[variable]!r} is not free in this query")
        # Sum out any stray kept axes (cannot happen with keep=(variable,),
        # but keeps the contract with multi-node callers honest).
        while len(axes) > 1:
            drop = next(a for a in axes if a != variable)
            index = axes.index(drop)
            axes = axes[:index] + axes[index + 1 :]
            array = array.sum(axis=index)
        return np.asarray(array, dtype=float)

    def joint_marginal_weights(
        self, nodes: Sequence[Node], pinning: Mapping[Node, Value]
    ) -> Tuple[Tuple[Node, ...], np.ndarray]:
        """Unnormalised joint weights over a node tuple, as one dense array.

        Returns ``(free_query_nodes, array)``: the query nodes that are not
        pinned (first-occurrence order) and an array with one alphabet axis
        per such node.  The whole joint is produced by a *single* contraction
        schedule with multiple kept axes -- not by looping value tuples over
        ``partition_function`` -- so the elimination work is paid once per
        pinned domain regardless of the alphabet size.
        """
        variables = [self._variable_of(node) for node in nodes]
        encoded = self._encode_pinning(pinning)
        if encoded is None:
            free = tuple(
                dict.fromkeys(
                    self.nodes[v]
                    for v, node in zip(variables, nodes)
                    if node not in pinning
                )
            )
            return free, np.zeros((self.q,) * len(free))
        pin_codes, pinned = encoded
        keep = tuple(dict.fromkeys(v for v in variables if v not in pinned))
        ops, axes = self._schedule_for(pinned, keep)
        array = execute_schedule(ops, self._restricted_arrays(pin_codes), self.q)
        if keep:
            # ``axes`` is a permutation of ``keep`` (every other free
            # variable was summed out); realign to the query order.
            perm = tuple(axes.index(v) for v in keep)
            if perm != tuple(range(len(axes))):
                array = np.transpose(array, perm)
        return (
            tuple(self.nodes[v] for v in keep),
            np.asarray(array, dtype=float),
        )

    def marginal(self, node: Node, pinning: Mapping[Node, Value]) -> Dict[Value, float]:
        """Exact conditional marginal ``mu^tau_v`` as a dict over the alphabet.

        Pinned nodes return a point mass.  Results are memoised per
        ``(node, pinning signature)``.

        Parameters
        ----------
        node : node
            The query node ``v``.
        pinning : mapping of node to value
            The boundary condition ``tau``.

        Returns
        -------
        dict
            ``{value: probability}`` over the full alphabet (a fresh copy).

        Raises
        ------
        ValueError
            When the conditional partition function is zero (infeasible
            pinning).
        """
        if node in pinning:
            pinned_value = pinning[node]
            return {value: (1.0 if value == pinned_value else 0.0) for value in self.alphabet}
        encoded = self._encode_pinning(pinning)
        if encoded is None:
            raise ValueError("infeasible pinning: conditional partition function is zero")
        pin_codes, pinned = encoded
        variable = self._variable_of(node)
        key = (variable, tuple(sorted(pinned)), tuple(sorted(pin_codes.items())))
        cached = self._marginal_memo.get(key)
        if cached is None:
            weights = self._encoded_marginal_weights(variable, pin_codes, pinned)
            total = float(weights.sum())
            if total <= 0.0:
                raise ValueError(
                    "infeasible pinning: conditional partition function is zero"
                )
            cached = {
                value: float(weights[code] / total)
                for code, value in enumerate(self.alphabet)
            }
            if len(self._marginal_memo) >= _MARGINAL_CACHE_LIMIT:
                self._marginal_memo.clear()
            self._marginal_memo[key] = cached
        return dict(cached)

    # ------------------------------------------------------------------
    # marginal-memo deltas (the streaming process runtime ships the memos
    # workers populated back to the parent; see :mod:`repro.runtime.shards`)
    # ------------------------------------------------------------------
    def export_marginal_memo(
        self, cap: Optional[int] = None
    ) -> Dict[tuple, Dict[Value, float]]:
        """Snapshot the per-pinning marginal memo for shipping to a peer.

        Pickling a :class:`CompiledGibbs` deliberately drops its memo caches
        (see :meth:`__getstate__`), so a process worker that computed
        marginals would otherwise hand back compiled balls whose memos the
        parent recomputes from scratch.  This method extracts the memo as
        plain data -- entry keys are integer-encoded pinning signatures,
        which are identical on both sides because the node ordering of a
        compiled ball is deterministic.

        Parameters
        ----------
        cap : int, optional
            Maximum number of entries to export (insertion order).  ``None``
            exports the whole memo.

        Returns
        -------
        dict
            ``{memo key: marginal dict}``, at most ``cap`` entries, each
            marginal a fresh copy safe to mutate or pickle.
        """
        items = self._marginal_memo.items()
        if cap is not None:
            if cap <= 0:
                return {}
            items = itertools.islice(items, cap)
        return {key: dict(value) for key, value in items}

    def absorb_marginal_memo(
        self, entries: Mapping[tuple, Mapping[Value, float]]
    ) -> int:
        """Install exported memo entries produced by an equal compiled peer.

        The parent side of the memo-delta protocol: entries computed by a
        worker on a bit-identical compiled ball are installed directly, so
        the parent's first query of the same ``(node, pinning)`` is a memo
        hit instead of a fresh elimination.

        Existing entries always win, and absorption never evicts -- when the
        memo is at :data:`_MARGINAL_CACHE_LIMIT` capacity the remaining
        entries are dropped rather than clearing locally computed state.

        Parameters
        ----------
        entries : mapping
            The output of :meth:`export_marginal_memo` on an equal instance.

        Returns
        -------
        int
            Number of entries actually installed.
        """
        memo = self._marginal_memo
        added = 0
        for key, value in entries.items():
            if key in memo:
                continue
            if len(memo) >= _MARGINAL_CACHE_LIMIT:
                break
            memo[key] = dict(value)
            added += 1
        return added

    def configuration_weight(self, configuration: Mapping[Node, Value]) -> float:
        """Product of all factor weights on a full configuration.

        Parameters
        ----------
        configuration : mapping of node to value
            A full assignment covering every node of the sub-instance.

        Returns
        -------
        float
            ``prod_f f(configuration)``, short-circuiting at the first zero.

        Raises
        ------
        KeyError
            When a node is missing from the configuration or a value is
            outside the alphabet (callers fall back to the generic
            evaluation path in that case).
        """
        codes = [self.symbol_index[configuration[node]] for node in self.nodes]
        weight = 1.0
        for scope, array in zip(self.scopes, self.arrays):
            weight *= float(array[tuple(codes[v] for v in scope)])
            if weight == 0.0:
                return 0.0
        return weight

    # ------------------------------------------------------------------
    @property
    def conditionals(self):
        """Per-node gathered factor tables for vectorised local conditionals."""
        if self._conditionals is None:
            from repro.engine.conditionals import CompiledConditionals

            self._conditionals = CompiledConditionals(self)
        return self._conditionals

    @property
    def batched_tables(self):
        """Blanket-indexed conditional tables of the batched chain kernels.

        Built once on first use and shared by every chain batch, packed
        batch and pseudo-likelihood evaluation of this engine (see
        :class:`repro.runtime.chains._BatchedTables`).
        """
        if self._batched_tables is None:
            from repro.runtime.chains import _BatchedTables

            self._batched_tables = _BatchedTables(self)
        return self._batched_tables

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGibbs(n={len(self.nodes)}, q={self.q}, "
            f"factors={len(self.scopes)})"
        )


def _fuse_factors(
    scopes: Sequence[Tuple[int, ...]], arrays: Sequence[np.ndarray]
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[np.ndarray, ...]]:
    """Statically fold factors into fewer tables for the elimination path.

    Factors with identical scope sets are multiplied together, and unary
    factors are absorbed into some multi-node factor containing their node
    (broadcast along that node's axis).  The product of all tables is
    unchanged -- this just roughly halves the join count per elimination for
    the vertex-plus-edge factorisations every model here uses.  The original
    per-factor arrays stay available for conditionals and weight products.
    """
    by_scope_set: Dict[frozenset, int] = {}
    fused_scopes: List[Tuple[int, ...]] = []
    fused_arrays: List[np.ndarray] = []
    unaries: List[Tuple[int, np.ndarray]] = []
    for scope, array in zip(scopes, arrays):
        if len(scope) == 1:
            unaries.append((scope[0], array))
            continue
        key = frozenset(scope)
        slot = by_scope_set.get(key)
        if slot is None:
            by_scope_set[key] = len(fused_scopes)
            fused_scopes.append(scope)
            fused_arrays.append(array.copy())
        else:
            host_scope = fused_scopes[slot]
            aligned = np.transpose(array, [scope.index(v) for v in host_scope])
            fused_arrays[slot] = fused_arrays[slot] * aligned
    host_of: Dict[int, int] = {}
    for slot, scope in enumerate(fused_scopes):
        for variable in scope:
            host_of.setdefault(variable, slot)
    for variable, array in unaries:
        slot = host_of.get(variable)
        if slot is None:
            key = frozenset((variable,))
            slot = by_scope_set.get(key)
            if slot is None:
                by_scope_set[key] = len(fused_scopes)
                fused_scopes.append((variable,))
                fused_arrays.append(array.copy())
                host_of[variable] = by_scope_set[key]
            else:
                fused_arrays[slot] = fused_arrays[slot] * array
            continue
        host_scope = fused_scopes[slot]
        shape = [1] * len(host_scope)
        shape[host_scope.index(variable)] = len(array)
        fused_arrays[slot] = fused_arrays[slot] * array.reshape(shape)
    return tuple(fused_scopes), tuple(fused_arrays)


def dense_table_from_callable(factor, alphabet: Sequence[Value]) -> np.ndarray:
    """Materialise a factor's weight function as a dense ``(q, ..., q)`` array.

    Parameters
    ----------
    factor
        An object exposing ``scope`` and ``evaluate_values(values)``.
    alphabet : sequence of value
        Symbol labels; positions become array indices.

    Returns
    -------
    numpy.ndarray
        Weight array with one length-``q`` axis per scope node.
    """
    q = len(alphabet)
    arity = len(factor.scope)
    array = np.empty((q,) * arity)
    for codes in itertools.product(range(q), repeat=arity):
        array[codes] = factor.evaluate_values(tuple(alphabet[c] for c in codes))
    return array
