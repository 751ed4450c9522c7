"""Process-sharded execution of per-node LOCAL computations.

The paper's Theorem 5.1 inference algorithm is embarrassingly parallel
across nodes: each node compiles a ball around itself, greedily extends the
pinning onto the boundary shell, and eliminates the ball restriction.  This
module fans that per-node work out across OS processes:

* :class:`InstanceSpec` -- a picklable snapshot of a sampling instance
  (integer adjacency, dense factor arrays, pinning, locality).  The model
  factories build :class:`~repro.gibbs.factors.Factor` objects around
  closures, which do not pickle; the spec instead carries the
  already-materialised dense tables of the compiled engine, which is exactly
  the data the ball computations run on.
* :func:`stream_ball_marginal_tasks` / :func:`stream_padded_ball_marginals`
  / :func:`stream_compiled_balls` -- the *streaming* executor: tasks are
  chunked onto a ``ProcessPoolExecutor`` (``submit`` + ``as_completed``, no
  barrier), the :class:`InstanceSpec` crosses the pipe exactly once per
  worker via the pool initializer, and every chunk's results -- compiled
  balls, memoised boundary extensions and capped per-pinning marginal-memo
  deltas -- are merged into the parent's
  :class:`~repro.engine.cache.BallCache` (:meth:`~repro.engine.cache.BallCache.adopt`)
  and yielded the moment the chunk lands.  Consumers overlap parent-side
  work with in-flight shards, mirroring the barrier-free LOCAL model.
* :func:`shard_compiled_balls` / :func:`shard_padded_ball_marginals` --
  barrier wrappers that drain the streams into dicts (the historical API).
* :func:`process_map` / :func:`process_map_unordered` -- generic fork-based
  maps used by the :class:`~repro.runtime.executor.Runtime` facade for
  coarse-grained task parallelism.  The fork start method lets workers
  inherit the mapped function (and anything it closes over) without
  pickling; only items and results cross the pipe.

Worker computations replay the exact serial code paths on equal compiled
inputs, so sharded results are bit-identical to the serial ones and merging
them into the parent cache is transparent regardless of arrival order.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.engine.compiled import CompiledGibbs
from repro.gibbs.instance import SamplingInstance

Node = Hashable
Value = Hashable
BallKey = Tuple[Node, int]


class InstanceSpec:
    """A picklable snapshot of a sampling instance for process workers.

    Carries the compiled full instance (node order, alphabet, integer factor
    scopes, dense weight arrays), the integer adjacency structure, the
    pinning and the factor locality -- everything the per-node ball
    computations of E5/E8 read, and nothing that closes over Python
    callables.  Ball compilations are memoised so a worker's results can be
    shipped back wholesale and adopted by the parent cache.
    """

    __slots__ = (
        "nodes",
        "alphabet",
        "scopes",
        "arrays",
        "adjacency",
        "pinning",
        "locality",
        "_node_index",
        "_ball_memo",
        "_extras",
        "_instance",
    )

    def __init__(
        self,
        nodes: Sequence[Node],
        alphabet: Sequence[Value],
        scopes: Sequence[Tuple[int, ...]],
        arrays: Sequence[np.ndarray],
        adjacency: Sequence[Tuple[int, ...]],
        pinning: Dict[Node, Value],
        locality: int,
    ) -> None:
        self.nodes = tuple(nodes)
        self.alphabet = tuple(alphabet)
        self.scopes = tuple(tuple(scope) for scope in scopes)
        self.arrays = tuple(arrays)
        self.adjacency = tuple(tuple(neighbours) for neighbours in adjacency)
        self.pinning = dict(pinning)
        self.locality = int(locality)
        self._node_index: Optional[Dict[Node, int]] = None
        self._ball_memo: Dict[BallKey, CompiledGibbs] = {}
        self._extras: Dict = {}
        self._instance: Optional[SamplingInstance] = None

    # The reconstructed instance closes over Python callables (table-backed
    # factors), so it must never travel; derived indexes are rebuilt lazily.
    _UNPICKLED_SLOTS = ("_node_index", "_instance")

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in self._UNPICKLED_SLOTS
        }

    def __setstate__(self, state) -> None:
        for slot in self.__slots__:
            setattr(self, slot, state.get(slot))
        self._node_index = None
        self._instance = None
        if self._ball_memo is None:
            self._ball_memo = {}
        if self._extras is None:
            self._extras = {}

    @classmethod
    def from_instance(cls, instance: SamplingInstance) -> "InstanceSpec":
        """Snapshot an instance (dense tables come from the compiled engine).

        Parameters
        ----------
        instance : SamplingInstance
            The conditioned instance to snapshot.

        Returns
        -------
        InstanceSpec
            A picklable spec replaying the instance's ball computations.
        """
        distribution = instance.distribution
        compiled = distribution.compiled_engine()
        node_index = compiled.node_index
        adjacency = tuple(
            tuple(sorted(node_index[neighbour] for neighbour in distribution.graph.neighbors(node)))
            for node in compiled.nodes
        )
        return cls(
            nodes=compiled.nodes,
            alphabet=compiled.alphabet,
            scopes=compiled.scopes,
            arrays=compiled.arrays,
            adjacency=adjacency,
            pinning=instance.pinning.as_dict(),
            locality=distribution.locality(),
        )

    # ------------------------------------------------------------------
    @property
    def node_index(self) -> Dict[Node, int]:
        if self._node_index is None:
            self._node_index = {node: i for i, node in enumerate(self.nodes)}
        return self._node_index

    def ball_variables(self, center_variable: int, radius: int) -> frozenset:
        """Variable ids of ``B_radius(center)`` by BFS on the adjacency.

        Parameters
        ----------
        center_variable : int
            Integer id of the ball center.
        radius : int
            Ball radius in graph distance.

        Returns
        -------
        frozenset of int
            Ids of every variable within ``radius`` of the center.
        """
        seen = {center_variable}
        frontier = [center_variable]
        for _ in range(radius):
            if not frontier:
                break
            next_frontier: List[int] = []
            for variable in frontier:
                for neighbour in self.adjacency[variable]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return frozenset(seen)

    def compile_ball(self, center: Node, radius: int) -> CompiledGibbs:
        """The compiled restriction to ``B_radius(center)`` (memoised).

        Node order (``repr``-sorted) and factor order (instance factor
        order) match :meth:`repro.engine.cache.BallCache.compiled_ball`
        exactly, so worker results merge transparently into the parent
        cache.
        """
        key = (center, radius)
        compiled = self._ball_memo.get(key)
        if compiled is None:
            variables = self.ball_variables(self.node_index[center], radius)
            labels = sorted((self.nodes[v] for v in variables), key=repr)
            label_index = {node: i for i, node in enumerate(labels)}
            scopes: List[Tuple[int, ...]] = []
            arrays: List[np.ndarray] = []
            for scope, array in zip(self.scopes, self.arrays):
                if all(variable in variables for variable in scope):
                    scopes.append(tuple(label_index[self.nodes[v]] for v in scope))
                    arrays.append(array)
            compiled = CompiledGibbs(labels, self.alphabet, scopes, arrays)
            self._ball_memo[key] = compiled
        return compiled

    def to_instance(self) -> SamplingInstance:
        """Reconstruct a fully functional :class:`SamplingInstance` (memoised).

        The inverse of :meth:`from_instance`, up to model metadata: the
        graph is rebuilt from the integer adjacency, each factor becomes a
        table-backed lookup into its dense weight array, and the compiled
        engine is installed *directly from the spec's arrays* -- so every
        compiled-engine computation on the reconstruction (batched chain
        matrices included) is bit-identical to the original instance.
        This is what lets a cluster worker run chain blocks from nothing
        but the shipped spec.
        """
        if self._instance is not None:
            return self._instance
        import networkx as nx

        from repro.gibbs.distribution import GibbsDistribution
        from repro.gibbs.factors import Factor

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for variable, neighbours in enumerate(self.adjacency):
            for neighbour in neighbours:
                if neighbour > variable:
                    graph.add_edge(self.nodes[variable], self.nodes[neighbour])
        symbol_index = {value: code for code, value in enumerate(self.alphabet)}
        factors = []
        for scope, array in zip(self.scopes, self.arrays):
            scope_nodes = tuple(self.nodes[variable] for variable in scope)

            def lookup(*values, _array=array):
                return float(_array[tuple(symbol_index[value] for value in values)])

            factors.append(Factor(scope_nodes, lookup, name="spec-factor"))
        distribution = GibbsDistribution(
            graph, self.alphabet, factors, name="spec-reconstruction"
        )
        # Install the compiled engine straight from the shipped arrays: the
        # node order of `from_instance` is the distribution's deterministic
        # order, so this is exactly what `compiled_engine()` would rebuild,
        # without re-evaluating a single factor.
        distribution._compiled = CompiledGibbs(
            self.nodes, self.alphabet, self.scopes, self.arrays
        )
        self._instance = SamplingInstance(distribution, self.pinning)
        return self._instance

    # ------------------------------------------------------------------
    def padded_ball_marginal(self, center: Node, radius: int) -> Dict[Value, float]:
        """The Theorem 5.1 marginal at ``center`` for the given radius.

        Worker-side mirror of
        :func:`repro.inference.ssm_inference.padded_ball_marginal`: gather
        ``B_{radius + 2l}``, greedily extend the pinning over the shell
        between ``radius`` and ``radius + l`` (first feasible alphabet value
        per ``repr``-sorted shell node, exactly the reference rule), and
        return the exact conditional marginal of the padded ball.
        """
        locality = self.locality
        center_variable = self.node_index[center]
        context_ball = self.compile_ball(center, radius + 2 * locality)
        padded_variables = self.ball_variables(center_variable, radius + locality)
        inner_variables = self.ball_variables(center_variable, radius)
        padded_nodes = {self.nodes[v] for v in padded_variables}
        inner_nodes = {self.nodes[v] for v in inner_variables}
        shell = [
            node
            for node in padded_nodes
            if node not in inner_nodes and node not in self.pinning
        ]
        context_pinning = frozenset(
            (node, value)
            for node, value in self.pinning.items()
            if node in context_ball.node_index
        )
        extras_key = ("boundary-extension", center, radius, context_pinning)
        boundary = self._extras.get(extras_key)
        if boundary is None:
            boundary = self._greedy_boundary_extension(context_ball, shell)
            self._extras[extras_key] = boundary
        pinning = {
            node: value for node, value in self.pinning.items() if node in padded_nodes
        }
        pinning.update(boundary)
        if center in pinning:
            return {
                value: (1.0 if value == pinning[center] else 0.0)
                for value in self.alphabet
            }
        padded_ball = self.compile_ball(center, radius + locality)
        restricted = {
            node: value
            for node, value in pinning.items()
            if node in padded_ball.node_index
        }
        return padded_ball.marginal(center, restricted)

    def _greedy_boundary_extension(
        self, context_ball: CompiledGibbs, shell: Iterable[Node]
    ) -> Dict[Node, Value]:
        """Greedy locally-feasible extension on the compiled context ball.

        ``weights_partial`` only consults factors whose scope is fully
        assigned, which is precisely the reference rule (factors inside both
        the context and the assigned set).
        """
        codes = [-1] * len(context_ball.nodes)
        symbol_index = context_ball.symbol_index
        for node, value in self.pinning.items():
            variable = context_ball.node_index.get(node)
            if variable is not None:
                code = symbol_index.get(value)
                if code is not None:
                    codes[variable] = code
        conditionals = context_ball.conditionals
        boundary: Dict[Node, Value] = {}
        for node in sorted(shell, key=repr):
            variable = context_ball.node_index[node]
            if codes[variable] >= 0:
                continue
            weights = conditionals.weights_partial(variable, codes)
            chosen = next(
                (code for code, weight in enumerate(weights) if weight > 0.0), None
            )
            if chosen is None:
                raise RuntimeError(
                    "could not extend the pinning onto the boundary shell; "
                    "the distribution does not appear to be locally admissible"
                )
            codes[variable] = chosen
            boundary[node] = self.alphabet[chosen]
        return boundary


# ----------------------------------------------------------------------
# transport: how the spec (and chain-result matrices) cross the pipe
# ----------------------------------------------------------------------
#: Accepted values of the ``transport=`` knob threaded down from
#: :class:`~repro.runtime.executor.Runtime`.
TRANSPORTS = ("pickle", "shm")


class _ShmSpec:
    """Wire form of an :class:`InstanceSpec` with its arrays in shared memory.

    Pickles as the spec's light state (nodes, alphabet, scopes, adjacency,
    pinning, locality) plus one ``(name, dtype, shape, offset)`` descriptor
    per dense factor array; :meth:`restore` rebuilds the spec worker-side
    with zero-copy read-only views into the owner's segment.  The owner
    keeps the backing :class:`~repro.runtime.shm.SharedArrayPack` alive for
    the lifetime of the pool and unlinks it afterwards.
    """

    __slots__ = ("state", "descriptors")

    def __init__(self, state: Dict, descriptors: Tuple) -> None:
        self.state = state
        self.descriptors = descriptors

    def __getstate__(self):
        return (self.state, self.descriptors)

    def __setstate__(self, wire) -> None:
        self.state, self.descriptors = wire

    def restore(self) -> InstanceSpec:
        from repro.runtime import shm

        spec = InstanceSpec.__new__(InstanceSpec)
        spec.__setstate__(self.state)
        spec.arrays = tuple(
            shm.attach_array(descriptor) for descriptor in self.descriptors
        )
        return spec


def _spec_wire(spec: InstanceSpec, transport: str):
    """The pool-initializer payload for ``spec`` under ``transport``.

    Returns ``(payload, pack)``: with ``transport="shm"`` (and shared memory
    actually available) the payload is a :class:`_ShmSpec` whose dense
    arrays live in ``pack``; otherwise the spec itself travels by pickle and
    ``pack`` is None.  The caller owns ``pack`` and must release it once the
    pool is done.
    """
    if transport == "shm":
        from repro.runtime import shm

        pack = shm.pack_arrays(spec.arrays, label="instance-spec")
        if pack is not None:
            state = spec.__getstate__()
            state.pop("arrays")
            # Workers rebuild ball memos locally; never ship the parent's.
            state["_ball_memo"] = {}
            state["_extras"] = {}
            return _ShmSpec(state, pack.descriptors), pack
    return spec, None


# ----------------------------------------------------------------------
# worker entry points (must be importable at module top level)
# ----------------------------------------------------------------------
#: The spec installed once per worker process by the pool initializer, so a
#: worker that serves many chunks deserialises the instance exactly once and
#: keeps its ball memo warm across chunks.
_WORKER_SPEC: Optional[InstanceSpec] = None

#: The task registry: every spec-bound task body that a distributed backend
#: can execute, by kind.  One body per kind, shared by *all* backends: the
#: process pool submits these functions directly, the cluster worker looks
#: them up by the kind carried in the ``TASK`` frame, and the in-process
#: fallbacks call them with an explicit spec -- so a result is bit-identical
#: no matter where it ran.  Bodies take ``(args, spec)`` where ``args`` is
#: the picklable task payload and ``spec`` the connection/pool-level
#: :class:`InstanceSpec`.
TASK_REGISTRY: Dict[str, Callable] = {}


def register_task(kind: str) -> Callable:
    """Decorator: register a ``(args, spec) -> result`` task body by kind."""

    def decorate(body: Callable) -> Callable:
        TASK_REGISTRY[kind] = body
        return body

    return decorate

#: Default cap on the per-ball marginal-memo delta a worker ships back.
MEMO_DELTA_CAP = 64


def _install_worker_spec(spec: InstanceSpec, obs_ctx=None) -> None:
    """Pool initializer: pin the shared :class:`InstanceSpec` in this worker.

    ``spec`` is either the pickled :class:`InstanceSpec` itself or -- under
    ``transport="shm"`` -- a :class:`_ShmSpec` of descriptors, restored here
    into a spec whose dense arrays are zero-copy views of the owner's
    shared-memory segment.

    ``obs_ctx`` is the parent's trace context as a versioned wire dict
    (``None`` when tracing is off): when present, the worker process arms
    a recorder continuing the parent's trace, so spans recorded by chunk
    bodies stitch into the parent timeline (shipped back by
    :func:`_traced_chunk`).  Unknown/foreign contexts are ignored.
    """
    global _WORKER_SPEC
    if isinstance(spec, _ShmSpec):
        spec = spec.restore()
    _WORKER_SPEC = spec
    if obs_ctx is not None:
        obs.arm_remote(obs_ctx, proc="pool-worker")


def _traced_chunk(body: Callable, chunk, extra_args: tuple):
    """Pool-worker wrapper shipping trace events alongside a chunk result.

    Only submitted when the parent is tracing (so untraced runs keep the
    exact legacy submission path); returns ``(payload, events)`` with the
    worker's buffered events drained per chunk.
    """
    with obs.span("shards.chunk", kind=getattr(body, "__name__", str(body)), tasks=len(chunk)):
        payload = body(chunk, *extra_args)
    return payload, obs.drain_events()


def _compile_ball_chunk(
    tasks: Sequence[BallKey], spec: Optional[InstanceSpec] = None
) -> Dict[BallKey, CompiledGibbs]:
    """Worker body: compile one chunk of ``(center, radius)`` balls.

    ``spec`` defaults to the worker-global installed by the pool
    initializer; the in-process fallback path passes it explicitly.
    """
    spec = _WORKER_SPEC if spec is None else spec
    return {key: spec.compile_ball(*key) for key in tasks}


def _ball_marginal_chunk(
    tasks: Sequence[BallKey],
    memo_cap: Optional[int],
    spec: Optional[InstanceSpec] = None,
):
    """Worker body: padded-ball marginals for one chunk of tasks.

    Returns ``(marginals, balls, extras, memos)``.  Only the artefacts of
    *this* chunk are shipped: the padded balls the parent's serial replay
    queries (``compiled_ball(center, radius + locality)``; the context balls
    the greedy extension used stay worker-local), the chunk's boundary
    extensions, and a ``memo_cap``-capped export of each shipped ball's
    per-pinning marginal memo.  The spec defaults to the worker-global of
    :func:`_install_worker_spec` and persists across chunks of the same
    worker, so nothing already shipped by an earlier chunk is resent; the
    in-process fallback path passes its spec explicitly.
    """
    spec = _WORKER_SPEC if spec is None else spec
    marginals = {key: spec.padded_ball_marginal(*key) for key in tasks}
    wanted = {(center, radius + spec.locality) for center, radius in tasks}
    balls = {key: ball for key, ball in spec._ball_memo.items() if key in wanted}
    memos = {
        key: memo
        for key, ball in balls.items()
        if (memo := ball.export_marginal_memo(cap=memo_cap))
    }
    chunk_keys = {(center, radius) for center, radius in tasks}
    extras = {
        key: value
        for key, value in spec._extras.items()
        if (key[1], key[2]) in chunk_keys
    }
    return marginals, balls, extras, memos


@register_task("ball_marginals")
def _ball_marginals_task(args: Dict, spec: Optional[InstanceSpec] = None):
    """Registered body: Theorem 5.1 marginals for one chunk of ball tasks."""
    return _ball_marginal_chunk(args["tasks"], args["memo_cap"], spec=spec)


@register_task("compile_balls")
def _compile_balls_task(args: Dict, spec: Optional[InstanceSpec] = None):
    """Registered body: compile one chunk of ``(center, radius)`` balls."""
    return _compile_ball_chunk(args["tasks"], spec=spec)


@register_task("chain_block")
def _chain_block_task(args: Dict, spec: Optional[InstanceSpec] = None):
    """Registered body: advance one block of chains of one kernel.

    ``args`` carries ``{"kernel", "count", "seeds", "initial"}`` (plus the
    transport-level ``spec_id``); the block runs as a batched code matrix
    on the instance reconstructed from the spec
    (:meth:`InstanceSpec.to_instance`), so entry ``c`` of the result is
    bit-identical to the kernel's serial chain run with ``seed=seeds[c]``
    -- the contract that makes chain blocks freely movable between the
    process pool, cluster workers and the in-process fallback.

    An optional ``"stats": True`` flag switches the return value to
    ``(configurations, counts)`` where ``counts[c]`` is chain ``c``'s
    accumulated failure count (gated kernels report rejected proposals via
    :meth:`~repro.sampling.kernels.ScanKernel.failure_counts`; ungated
    kernels report zeros).  This is how JVV rejection statistics (the E4
    rejection-law rows, E12's jvv-kernel row) ride the existing block wire
    format across the process and cluster backends.

    An optional ``"out": (descriptor, row_offset)`` entry -- set by the
    parent under ``transport="shm"`` -- switches the result channel: the
    block's final ``(chains, n)`` code matrix is written straight into the
    parent-owned shared segment at ``row_offset`` (no pickling of result
    configurations), and the return value shrinks to ``None`` (or
    ``(None, counts)`` with stats).  The codes written are exactly
    ``ChainBatch.codes``, so the parent's decode replays
    :meth:`~repro.runtime.chains.ChainBatch.configurations` bit for bit.
    """
    from repro.runtime.chains import ChainBatch, batched_kernel_sample
    from repro.sampling.kernels import get_kernel

    spec = _WORKER_SPEC if spec is None else spec
    kernel = get_kernel(args["kernel"])
    out = args.get("out")
    if out is None and not args.get("stats"):
        return batched_kernel_sample(
            kernel,
            spec.to_instance(),
            args["count"],
            seeds=args["seeds"],
            initial=args.get("initial"),
        )
    batch = ChainBatch(
        spec.to_instance(), seeds=args["seeds"], initial=args.get("initial")
    )
    batch.advance(kernel, args["count"])
    counts: Optional[List[int]] = None
    if args.get("stats"):
        counter = getattr(kernel, "failure_counts", None)
        counts = (
            counter(batch).tolist()
            if counter is not None
            else [0] * batch.n_chains
        )
    if out is not None:
        from repro.runtime import shm

        descriptor, row_offset = out
        matrix = shm.attach_array(descriptor, writable=True)
        matrix[row_offset : row_offset + batch.n_chains] = batch.codes
        return None if counts is None else (None, counts)
    return batch.configurations(), counts


def run_chain_blocks(
    instance: SamplingInstance,
    kernel_name: str,
    count: int,
    seeds: Sequence,
    initial=None,
    n_workers: int = 2,
    stats: bool = False,
    transport: str = "pickle",
) -> List[Dict[Node, Value]]:
    """Run independent chains as batched blocks over a process pool.

    The process-backend leg of the unified chain path
    (:meth:`repro.runtime.executor.Runtime.run_chains`): the seed list is
    split into one contiguous block per worker, each block executes the
    registered ``chain_block`` task body on a pool worker (the
    :class:`InstanceSpec` crosses the pipe once per worker via the pool
    initializer), and the per-block results concatenate back in seed
    order.  With one block or one worker the body runs in-process -- same
    body, same results.

    ``transport="shm"`` moves the two bulk payloads out of pickle: the
    spec's dense factor arrays ship as shared-memory descriptors
    (:class:`_ShmSpec`) and each block writes its final code matrix into
    one parent-owned ``(len(seeds), n)`` shared segment, decoded here with
    the exact :meth:`~repro.runtime.chains.ChainBatch.configurations` rule
    -- results are bit-identical to the pickle transport.  When shared
    memory is unavailable the call silently degrades to pickle; the parent
    unlinks both segments before returning.

    Returns
    -------
    list of dict
        Final configurations, one per seed, bit-identical to the kernel's
        serial chains.  With ``stats=True``: ``(configurations, counts)``,
        where ``counts`` are the per-chain failure counts of gated kernels
        (zeros for ungated ones) -- the same payload flag the cluster
        coordinator ships, so rejection statistics distribute identically
        on both multi-host backends.
    """
    seeds = list(seeds)
    if not seeds:
        return ([], []) if stats else []
    spec = InstanceSpec.from_instance(instance)
    # One contiguous block per worker (same split the cluster coordinator
    # uses for its chain blocks).
    blocks = _chunk_tasks(
        seeds, 1, chunk_size=-(-len(seeds) // max(1, n_workers))
    )

    def payload(block: List, out=None) -> Dict:
        body = {
            "kernel": kernel_name,
            "count": count,
            "seeds": block,
            "initial": dict(initial) if initial is not None else None,
        }
        if stats:
            body["stats"] = True
        if out is not None:
            body["out"] = out
        return body

    def merge(results, counts, block_result) -> None:
        if stats:
            block_configs, block_counts = block_result
            if block_configs is not None:
                results.extend(block_configs)
            counts.extend(block_counts)
        elif block_result is not None:
            results.extend(block_result)

    results: List[Dict[Node, Value]] = []
    counts: List[int] = []
    if len(blocks) <= 1 or n_workers <= 1:
        for block in blocks:
            with obs.span(
                "shards.chain_block", kernel=kernel_name, chains=len(block),
                mode="inprocess",
            ):
                merge(results, counts, _chain_block_task(payload(block), spec=spec))
        return (results, counts) if stats else results
    ctx = obs.wire_context()
    wire_spec, spec_pack = _spec_wire(spec, transport)
    out_pack = None
    if spec_pack is not None:
        from repro.runtime import shm

        out_pack = shm.pack_arrays(
            [np.zeros((len(seeds), len(spec.nodes)), dtype=np.int64)],
            label="chain-codes",
        )
    offsets = np.cumsum([0] + [len(block) for block in blocks[:-1]]).tolist()
    try:
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(blocks)),
            initializer=_install_worker_spec,
            initargs=(wire_spec, ctx),
        ) as pool:
            payloads = [
                payload(
                    block,
                    out=(
                        (out_pack.descriptors[0], offset)
                        if out_pack is not None
                        else None
                    ),
                )
                for block, offset in zip(blocks, offsets)
            ]
            if ctx is None:
                futures = [
                    pool.submit(_chain_block_task, body) for body in payloads
                ]
            else:
                futures = [
                    pool.submit(_traced_chunk, _chain_block_task, body, ())
                    for body in payloads
                ]
            try:
                for future in futures:  # block order == seed order
                    block_result = future.result()
                    if ctx is not None:
                        block_result, events = block_result
                        obs.absorb_events(events)
                    merge(results, counts, block_result)
            finally:
                for future in futures:
                    future.cancel()
        if out_pack is not None:
            # Decode the shared code matrix with the exact
            # ChainBatch.configurations() rule (spec.nodes/alphabet are the
            # compiled engine's, so this is bit-identical to pickled results).
            alphabet = spec.alphabet
            nodes = spec.nodes
            results = [
                {node: alphabet[code] for node, code in zip(nodes, row)}
                for row in out_pack.view(0).tolist()
            ]
        return (results, counts) if stats else results
    finally:
        if spec_pack is not None:
            spec_pack.release()
        if out_pack is not None:
            out_pack.release()


def _chunk_tasks(
    tasks: Sequence, n_workers: int, chunk_size: Optional[int] = None
) -> List[List]:
    """Split tasks into contiguous chunks sized for streaming.

    The default aims at roughly four chunks per worker -- small enough that
    the first result lands early and stragglers stay balanced, large enough
    to amortise the per-chunk submit/pickle round trip.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if chunk_size is None:
        chunk_size = max(1, -(-len(tasks) // (4 * max(1, n_workers))))
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]


def _stream_chunks(spec, chunks, body, extra_args, n_workers, transport="pickle"):
    """Drive chunks through a futures pool, yielding payloads as they land.

    ``body(chunk, *extra_args, spec=...)`` is a module-level chunk body
    from this file; with a pool it is submitted directly (the worker-global
    spec applies), in-process it is called with the explicit spec.  The
    spec crosses the pipe exactly once per worker via the pool initializer
    -- as descriptors into one shared-memory segment under
    ``transport="shm"`` (falling back to pickle when shared memory is
    unavailable; the segment is unlinked when the stream finishes).
    A failed chunk -- worker exception, broken pool, or the in-process
    fallback raising -- surfaces as a ``RuntimeError`` naming the chunk
    instead of a hang; pending chunks are cancelled both on failure and
    when the consumer abandons the generator early.

    When tracing is on, the parent's trace context rides the initializer
    and chunks are submitted through :func:`_traced_chunk`, so worker-side
    spans come back with each payload and are absorbed here; queue depth
    and chunk counts land in the metrics registry.  With obs off the
    submission path is exactly the legacy one.
    """
    handle = obs.active()
    if len(chunks) <= 1 or n_workers <= 1:
        for chunk in chunks:
            try:
                with obs.span("shards.chunk", kind=getattr(body, "__name__", str(body)),
                              tasks=len(chunk), mode="inprocess"):
                    payload = body(chunk, *extra_args, spec=spec)
            except Exception as error:
                raise RuntimeError(
                    f"ball shard failed on chunk {chunk!r}: {error}"
                ) from error
            yield payload
        return
    ctx = obs.wire_context()
    pending_gauge = (
        handle.metrics.gauge("runtime.shards.pending") if handle is not None else None
    )
    wire_spec, spec_pack = _spec_wire(spec, transport)
    try:
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(chunks)),
            initializer=_install_worker_spec,
            initargs=(wire_spec, ctx),
        ) as pool:
            if ctx is None:
                futures = {pool.submit(body, chunk, *extra_args): chunk for chunk in chunks}
            else:
                futures = {
                    pool.submit(_traced_chunk, body, chunk, extra_args): chunk
                    for chunk in chunks
                }
            if pending_gauge is not None:
                pending_gauge.set(len(futures))
            try:
                for future in as_completed(futures):
                    try:
                        payload = future.result()
                    except Exception as error:
                        chunk = futures[future]
                        raise RuntimeError(
                            f"ball shard failed on chunk {chunk!r}: {error}"
                        ) from error
                    if ctx is not None:
                        payload, events = payload
                        obs.absorb_events(events)
                    if handle is not None:
                        handle.metrics.counter("runtime.shards.chunks").inc()
                        if pending_gauge is not None:
                            pending_gauge.add(-1)
                    yield payload
            finally:
                for future in futures:
                    future.cancel()
    finally:
        if spec_pack is not None:
            spec_pack.release()


# ----------------------------------------------------------------------
# parent-side streaming API
# ----------------------------------------------------------------------
def stream_ball_marginal_tasks(
    instance: SamplingInstance,
    tasks: Sequence[BallKey],
    n_workers: int = 2,
    chunk_size: Optional[int] = None,
    memo_cap: Optional[int] = MEMO_DELTA_CAP,
    transport: str = "pickle",
) -> Iterator[Tuple[BallKey, Dict[Value, float]]]:
    """Stream Theorem 5.1 marginals for heterogeneous ``(center, radius)`` tasks.

    The barrier-free core of the process backend: tasks are chunked, the
    chunks run on a ``ProcessPoolExecutor`` (the picklable
    :class:`InstanceSpec` is shipped once per worker via the pool
    initializer), and each chunk's results are yielded -- and merged into the
    parent's :class:`~repro.engine.cache.BallCache` via
    :meth:`~repro.engine.cache.BallCache.adopt` -- the moment the chunk
    completes, in *completion* order.  The parent can therefore consume
    radius-``r`` results while radius-``r + 1`` balls are still compiling in
    the workers, which is exactly the overlap of the paper's barrier-free
    LOCAL model.

    Parameters
    ----------
    instance : SamplingInstance
        The instance whose distribution owns the target ball cache.
    tasks : sequence of (node, int)
        ``(center, radius)`` pairs; radii may differ between tasks.
    n_workers : int
        Process-pool width; with one worker (or one chunk) the stream runs
        in-process with no pool, bit-identically.
    chunk_size : int, optional
        Tasks per submitted chunk (default: about four chunks per worker).
    memo_cap : int, optional
        Per-ball cap on the marginal-memo delta shipped back (``None``
        ships every entry, ``0`` disables memo deltas).
    transport : str
        ``"pickle"`` (default) ships the spec by value; ``"shm"`` ships its
        dense arrays as shared-memory descriptors (pickle fallback when
        unavailable).

    Yields
    ------
    ((node, int), dict)
        ``((center, radius), marginal)`` pairs in completion order.

    Raises
    ------
    RuntimeError
        When a worker chunk fails, naming the chunk and chaining the worker
        exception; remaining chunks are cancelled.  Abandoning the generator
        early (``close()``) likewise cancels everything still pending.
    """
    tasks = list(tasks)
    if not tasks:
        return
    spec = InstanceSpec.from_instance(instance)
    cache = instance.distribution.ball_cache()
    chunks = _chunk_tasks(tasks, n_workers, chunk_size)
    payloads = _stream_chunks(
        spec,
        chunks,
        body=_ball_marginal_chunk,
        extra_args=(memo_cap,),
        n_workers=n_workers,
        transport=transport,
    )
    for marginals, balls, extras, memos in payloads:
        cache.adopt(balls=balls, extras=extras, memos=memos)
        for key, marginal in marginals.items():
            yield key, marginal


def stream_padded_ball_marginals(
    instance: SamplingInstance,
    centers: Sequence[Node],
    radius: int,
    n_workers: int = 2,
    chunk_size: Optional[int] = None,
    memo_cap: Optional[int] = MEMO_DELTA_CAP,
    transport: str = "pickle",
) -> Iterator[Tuple[Node, Dict[Value, float]]]:
    """Stream Theorem 5.1 marginals at many centers of one radius.

    A single-radius convenience wrapper over
    :func:`stream_ball_marginal_tasks` yielding ``(center, marginal)`` pairs
    in completion order; each shard's compiled balls, boundary extensions
    and capped marginal-memo deltas are adopted into the parent cache as the
    shard arrives.  Per-ball results are bit-identical to the serial
    :func:`repro.inference.ssm_inference.padded_ball_marginal` loop.
    """
    for (center, _), marginal in stream_ball_marginal_tasks(
        instance,
        [(center, radius) for center in centers],
        n_workers=n_workers,
        chunk_size=chunk_size,
        memo_cap=memo_cap,
        transport=transport,
    ):
        yield center, marginal


def stream_compiled_balls(
    instance: SamplingInstance,
    tasks: Sequence[BallKey],
    n_workers: int = 2,
    chunk_size: Optional[int] = None,
    transport: str = "pickle",
) -> Iterator[Tuple[BallKey, CompiledGibbs]]:
    """Stream ``(center, radius)`` ball compilations from a process pool.

    Duplicate tasks are dropped; each chunk of compiled balls is adopted
    into the distribution's :class:`~repro.engine.cache.BallCache` and
    yielded the moment it completes, so the parent can start querying early
    balls while later ones are still compiling.
    """
    tasks = list(dict.fromkeys(tasks))
    if not tasks:
        return
    spec = InstanceSpec.from_instance(instance)
    cache = instance.distribution.ball_cache()
    chunks = _chunk_tasks(tasks, n_workers, chunk_size)
    payloads = _stream_chunks(
        spec,
        chunks,
        body=_compile_ball_chunk,
        extra_args=(),
        n_workers=n_workers,
        transport=transport,
    )
    for compiled in payloads:
        cache.adopt(balls=compiled)
        yield from compiled.items()


# ----------------------------------------------------------------------
# barrier wrappers (drain the stream; kept as the dict-returning API)
# ----------------------------------------------------------------------
def shard_compiled_balls(
    instance: SamplingInstance,
    tasks: Sequence[BallKey],
    n_workers: int = 2,
    transport: str = "pickle",
) -> Dict[BallKey, CompiledGibbs]:
    """Compile ``(center, radius)`` balls across a process pool (barrier).

    Drains :func:`stream_compiled_balls` into a dict: the compiled balls are
    merged into the distribution's :class:`~repro.engine.cache.BallCache`
    (so subsequent serial queries are cache hits) and returned together.
    Callers that can make use of partial results should iterate the stream
    instead.
    """
    return dict(
        stream_compiled_balls(instance, tasks, n_workers=n_workers, transport=transport)
    )


def shard_padded_ball_marginals(
    instance: SamplingInstance,
    centers: Sequence[Node],
    radius: int,
    n_workers: int = 2,
    transport: str = "pickle",
) -> Dict[Node, Dict[Value, float]]:
    """Theorem 5.1 marginals at many centers, sharded across processes (barrier).

    Drains :func:`stream_padded_ball_marginals` into a per-center dict; the
    workers' compiled balls, boundary extensions and capped marginal-memo
    deltas are merged back into the distribution's cache shard by shard.
    Results are bit-identical to the serial
    :func:`repro.inference.ssm_inference.padded_ball_marginal` loop.
    """
    return dict(
        stream_padded_ball_marginals(
            instance, centers, radius, n_workers=n_workers, transport=transport
        )
    )


# ----------------------------------------------------------------------
# generic fork-based map
# ----------------------------------------------------------------------
_FORK_TASK: Optional[Callable] = None


def _invoke_fork_task(item):
    return _FORK_TASK(item)


def _invoke_fork_task_indexed(pair):
    index, item = pair
    return index, _FORK_TASK(item)


def process_map(
    function: Callable,
    items: Iterable,
    n_workers: int = 2,
    fallback_serial: bool = True,
) -> List:
    """Map ``function`` over ``items`` in a pool of forked processes.

    The fork start method lets workers inherit ``function`` -- including
    closures over unpicklable model objects -- from the parent's address
    space; only the items and results round-trip through pickle.  On
    platforms without fork (or with a single item) the map degrades to a
    serial loop when ``fallback_serial`` is set.

    Parameters
    ----------
    function : callable
        Applied to every item; inherited by forked workers.
    items : iterable
        Work items; each item and its result must pickle.
    n_workers : int
        Size of the forked pool.
    fallback_serial : bool
        Whether to degrade to a serial loop without fork support.

    Returns
    -------
    list
        ``[function(item) for item in items]``, in item order.
    """
    items = list(items)
    if not items:
        return []
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    if context is None or len(items) == 1:
        if context is None and not fallback_serial:
            raise RuntimeError("process_map requires the fork start method")
        return [function(item) for item in items]
    global _FORK_TASK
    previous = _FORK_TASK
    _FORK_TASK = function
    try:
        with context.Pool(processes=max(1, n_workers)) as pool:
            return pool.map(_invoke_fork_task, items)
    finally:
        _FORK_TASK = previous


def process_map_unordered(
    function: Callable,
    items: Iterable,
    n_workers: int = 2,
) -> Iterator[Tuple[int, object]]:
    """Map ``function`` over ``items``, yielding results as they complete.

    The streaming sibling of :func:`process_map`: results are yielded as
    ``(index, result)`` pairs in *completion* order -- ``index`` is the
    item's position in ``items``, so callers can reassociate out-of-order
    results.  Like :func:`process_map`, the fork start method lets workers
    inherit ``function`` (closures included) without pickling; on platforms
    without fork, or with a single item, the map degrades to a lazy serial
    loop yielding in order.

    Parameters
    ----------
    function : callable
        Applied to every item; inherited by forked workers.
    items : iterable
        Work items; each item and its result must pickle.
    n_workers : int
        Size of the forked pool.

    Yields
    ------
    (int, object)
        ``(index, function(items[index]))`` in completion order.
    """
    items = list(items)
    if not items:
        return
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    if context is None or len(items) == 1:
        for index, item in enumerate(items):
            yield index, function(item)
        return
    global _FORK_TASK
    _FORK_TASK = function
    try:
        # The pool forks here, snapshotting the function global; clearing it
        # in the finally block cannot affect the already-forked workers.
        with context.Pool(processes=max(1, n_workers)) as pool:
            yield from pool.imap_unordered(_invoke_fork_task_indexed, enumerate(items))
    finally:
        # Reset to None rather than a saved "previous" value: interleaved
        # generators would otherwise reinstall each other's functions on
        # exit, pinning a stale closure (and its captured model) for the
        # life of the process.
        if _FORK_TASK is function:
            _FORK_TASK = None
