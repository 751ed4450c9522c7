"""Memoised compilation of ball-restricted sub-instances.

Every ball-local algorithm in the repository (the Theorem 5.1 SSM inference
engines, the boosting lemma, the JVV sampler's inference calls) repeats the
same expensive preamble: extract ``B_r(v)``, collect the factors inside it,
and run variable elimination on the restriction.  :class:`BallCache` keys the
compiled restriction by ``(center, radius)`` -- the ball node set and factor
arrays never change for a fixed distribution -- and the per-query marginal
memo inside each :class:`~repro.engine.compiled.CompiledGibbs` adds the
pinning signature, so a repeated ``(center, radius, pinning)`` query is a
dict hit instead of a recompilation.

The cache lives on the :class:`~repro.gibbs.distribution.GibbsDistribution`
(see :meth:`GibbsDistribution.ball_marginal`), which makes it shared across
all :class:`~repro.gibbs.instance.SamplingInstance` objects conditioned from
the same distribution -- exactly the access pattern of the JVV passes, which
create a fresh conditioned instance per query.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro import obs
from repro.engine.compiled import CompiledGibbs
from repro.graphs.structure import distances_from

Node = Hashable
Value = Hashable

#: Cap on retained compiled balls; the whole cache resets when exceeded
#: (same reset-when-full policy as the memos inside ``CompiledGibbs``),
#: keeping radius sweeps over large instances memory-bounded.
_BALL_CACHE_LIMIT = 4096
#: Cap on the scratch memo space (``extras``).
_EXTRAS_LIMIT = 65536


class BallCache:
    """Compiled ball-restricted sub-instances of one distribution."""

    __slots__ = (
        "_distribution",
        "_ball_nodes",
        "_distances",
        "_compiled",
        "extras",
        "hits",
        "misses",
        "compiles",
        "adoptions",
        "drops",
    )

    def __init__(self, distribution) -> None:
        self._distribution = distribution
        self._ball_nodes: Dict[Tuple[Node, int], frozenset] = {}
        self._distances: Dict[Node, Tuple[int, Dict[Node, int]]] = {}
        self._compiled: Dict[Tuple[Node, int], CompiledGibbs] = {}
        #: Scratch memo space for ball-local algorithms (e.g. the SSM
        #: engines' greedy boundary extensions); cleared with the cache.
        self.extras: Dict = {}
        # Lifetime stats -- plain always-on ints (a few ns per lookup), so
        # ``stats()`` answers even when repro.obs is disabled.  ``drops``
        # counts the balls and scratch entries every cap reset discards
        # plus marginal-memo deltas adopted for balls this cache does not
        # hold.
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.adoptions = 0
        self.drops = 0

    # ------------------------------------------------------------------
    def ball_nodes(self, center: Node, radius: int) -> frozenset:
        """The node set of ``B_radius(center)`` (memoised).

        One BFS per ``(center, largest radius seen)``: smaller balls around
        the same center are sliced out of the cached distance map, so the
        inner/padded/context triple of the SSM engines costs a single
        traversal.
        """
        key = (center, radius)
        nodes = self._ball_nodes.get(key)
        if nodes is None:
            known_radius, distances = self._distances.get(center, (-1, None))
            if distances is None or known_radius < radius:
                distances = distances_from(self._distribution.graph, center, radius)
                if len(self._distances) >= _BALL_CACHE_LIMIT:
                    self._distances.clear()
                self._distances[center] = (radius, distances)
            nodes = frozenset(
                node for node, distance in distances.items() if distance <= radius
            )
            if len(self._ball_nodes) >= 4 * _BALL_CACHE_LIMIT:
                self._ball_nodes.clear()
            self._ball_nodes[key] = nodes
        return nodes

    def compiled_ball(self, center: Node, radius: int) -> CompiledGibbs:
        """The compiled restriction to ``B_radius(center)`` (memoised).

        Nodes are ordered by ``repr`` to match the dict engine's convention;
        only factors fully contained in the ball are compiled, so the result
        computes exactly the ball-restricted quantities of the paper.

        Parameters
        ----------
        center : node
            Ball center.
        radius : int
            Ball radius in graph distance.

        Returns
        -------
        CompiledGibbs
            The compiled sub-instance, shared across repeated queries.
        """
        key = (center, radius)
        compiled = self._compiled.get(key)
        if compiled is not None:
            self.hits += 1
            return compiled
        self.misses += 1
        self.compiles += 1
        with obs.span("engine.compile_ball", center=repr(center), radius=radius):
            distribution = self._distribution
            nodes = sorted(self.ball_nodes(center, radius), key=repr)
            factors = distribution.factors_within(nodes)
            compiled = CompiledGibbs.from_factors(nodes, distribution.alphabet, factors)
        if len(self._compiled) >= _BALL_CACHE_LIMIT:
            self._reset()
        self._compiled[key] = compiled
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter("engine.ball_cache.compiles").inc()
        return compiled

    def cached_extra(self, key, factory):
        """Memoise an arbitrary ball-local computation under this cache.

        Callers namespace their keys with a leading tag string (e.g.
        ``("boundary-extension", center, radius, pinning_signature)``); the
        reset-when-full policy lives here so every user of the scratch space
        shares one eviction discipline.
        """
        value = self.extras.get(key)
        if value is None:
            value = factory()
            if len(self.extras) >= _EXTRAS_LIMIT:
                self._reset_extras()
            self.extras[key] = value
        return value

    def adopt(
        self,
        balls: Optional[Mapping[Tuple[Node, int], CompiledGibbs]] = None,
        extras: Optional[Mapping] = None,
        memos: Optional[Mapping[Tuple[Node, int], Mapping]] = None,
    ) -> int:
        """Merge worker-produced results into this cache.

        This is the parent side of the process-sharding protocol
        (:mod:`repro.runtime.shards`): workers compile balls (and memoise
        ball-local scratch results such as greedy boundary extensions and
        per-pinning marginals) for their shard of the key space, and
        adopting them here turns later serial queries into cache hits.  The
        streaming executor calls this incrementally, once per arriving
        shard, so the cache warms while other shards are still in flight.
        Existing entries win -- worker results are equal by construction, so
        there is nothing to reconcile.

        Parameters
        ----------
        balls : mapping, optional
            ``{(center, radius): CompiledGibbs}`` worker compilations.
        extras : mapping, optional
            Scratch memo entries (e.g. greedy boundary extensions), merged
            into :attr:`extras` under the shared eviction discipline.
        memos : mapping, optional
            ``{(center, radius): exported marginal memo}`` deltas (see
            :meth:`CompiledGibbs.export_marginal_memo`), installed into the
            matching compiled ball -- the one adopted from ``balls`` or an
            already-cached equal one.  Deltas for balls this cache does not
            hold are dropped.

        Returns
        -------
        int
            Number of entries added (balls + extras + memo entries).
        """
        added = 0
        for key, compiled in (balls or {}).items():
            if key not in self._compiled:
                if len(self._compiled) >= _BALL_CACHE_LIMIT:
                    self._reset()
                self._compiled[key] = compiled
                added += 1
        for key, value in (extras or {}).items():
            if key not in self.extras:
                if len(self.extras) >= _EXTRAS_LIMIT:
                    self._reset_extras()
                self.extras[key] = value
                added += 1
        for key, entries in (memos or {}).items():
            target = self._compiled.get(key)
            if target is not None and entries:
                added += target.absorb_marginal_memo(entries)
            elif target is None and entries:
                self.drops += len(entries)
        self.adoptions += added
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter("engine.ball_cache.adoptions").inc(added)
        return added

    def export(
        self,
        balls: Iterable[Tuple[Node, int]],
        extras: Iterable[tuple] = (),
        memo_cap: Optional[int] = None,
    ) -> Tuple[Dict, Dict, Dict]:
        """The inverse of :meth:`adopt`: what a peer cache adopts of this one.

        The worker side of the process-sharding protocol: a registered task
        body runs the serial ball-local code on its reconstructed instance,
        then ships the artefacts of its chunk through this method, and the
        parent passes them to :meth:`adopt` unchanged.

        Parameters
        ----------
        balls : iterable of (node, int)
            ``(center, radius)`` keys of the compiled balls to ship; keys
            this cache does not hold are skipped.
        extras : iterable of tuple
            Key prefixes of the scratch entries to ship (e.g.
            ``("boundary-extension", center, radius)``); every entry of
            :attr:`extras` whose key starts with one of them ships.
        memo_cap : int, optional
            Per-ball cap on the exported marginal memo (see
            :meth:`CompiledGibbs.export_marginal_memo`; ``None`` ships every
            entry, ``0`` none).

        Returns
        -------
        tuple of dict
            ``(balls, extras, memos)``, the keyword arguments of
            :meth:`adopt` in order; balls with an empty memo export carry no
            ``memos`` entry.
        """
        shipped = {key: self._compiled[key] for key in balls if key in self._compiled}
        memos = {
            key: memo
            for key, ball in shipped.items()
            if (memo := ball.export_marginal_memo(cap=memo_cap))
        }
        prefixes = set(extras)
        widths = {len(prefix) for prefix in prefixes}
        scratch = {
            key: value
            for key, value in self.extras.items()
            if any(key[:width] in prefixes for width in widths)
        }
        return shipped, scratch, memos

    def stats(self) -> Dict[str, int]:
        """Lifetime cache statistics (available with obs disabled).

        Returns ``hits``/``misses``/``compiles`` of :meth:`compiled_ball`,
        ``adoptions`` merged by :meth:`adopt`, ``drops`` (balls and
        scratch entries evicted by any cap reset plus memo deltas for
        unheld balls), and the current ``size`` of the compiled-ball store.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "adoptions": self.adoptions,
            "drops": self.drops,
            "size": len(self._compiled),
        }

    # ------------------------------------------------------------------
    def ball_marginal(
        self,
        center: Node,
        radius: int,
        pinning: Mapping[Node, Value],
        node: Node,
    ) -> Dict[Value, float]:
        """Exact marginal of ``node`` in the ball-restricted sub-instance.

        The pinning is restricted to the ball automatically; pinned query
        nodes return a point mass.  Results are memoised per
        ``(center, radius, pinning signature)``.

        Parameters
        ----------
        center, radius
            Identify the ball ``B_radius(center)``.
        pinning : mapping of node to value
            Boundary condition; entries outside the ball are dropped.
        node : node
            The query node (must lie inside the ball).

        Returns
        -------
        dict
            ``{value: probability}`` over the alphabet.
        """
        compiled = self.compiled_ball(center, radius)
        in_ball = compiled.node_index
        restricted = {n: v for n, v in pinning.items() if n in in_ball}
        return compiled.marginal(node, restricted)

    def _reset(self) -> None:
        """The cap reset of the ball store, counting what it drops."""
        self.drops += len(self._compiled) + len(self.extras)
        self.clear()

    def _reset_extras(self) -> None:
        """The cap reset of the scratch space, counting what it drops."""
        self.drops += len(self.extras)
        self.extras.clear()

    def clear(self) -> None:
        """Drop all compiled balls (used by tests and memory-pressure hooks)."""
        self._ball_nodes.clear()
        self._distances.clear()
        self._compiled.clear()
        self.extras.clear()
