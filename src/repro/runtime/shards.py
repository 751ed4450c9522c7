"""The parent-side scheduler of the distributed backends.

The paper's Theorem 5.1 inference algorithm is embarrassingly parallel
across nodes: each node compiles a ball around itself, greedily extends the
pinning onto the boundary shell, and eliminates the ball restriction; the
chain kernels are embarrassingly parallel across chains.  This module fans
that work out to workers:

* :class:`InstanceSpec` -- a picklable snapshot of a sampling instance
  (integer adjacency, dense factor arrays, pinning, locality).  The model
  factories build :class:`~repro.gibbs.factors.Factor` objects around
  closures, which do not pickle; the spec instead carries the
  already-materialised dense tables of the compiled engine, from which a
  worker rebuilds an equal instance (:meth:`InstanceSpec.to_instance`).
* :func:`spec_for` -- the one spec identity of both transports: an
  instance's ``(spec_id, spec)``, memoised on the instance and tied to its
  compiled engine, so repeated calls reuse one id (workers hit their spec
  cache) and a distribution reweighted in place gets a new one.
  :func:`cache_spec` is the one FIFO eviction rule of every spec cache.
* :data:`TASK_REGISTRY` -- one ``(args, spec)`` body per task kind
  (``ball_marginals``, ``chain_block``), run unchanged by the forked
  workers of the process backend, cluster workers and the in-process
  path.  Each body runs the serial code on the spec's reconstruction.
* :func:`stream_ball_marginal_tasks` / :func:`stream_padded_ball_marginals`
  / :func:`run_chain_blocks` -- the front
  ends, each written once: chunk the work, submit every chunk as
  ``(kind, payload)`` to a transport, and yield each landed chunk's
  marginals (or concatenate chain blocks in seed order).  A ball chunk
  returns its marginals only; its compiled balls stay warm in the worker.
  Streams yield in completion order, so consumers
  overlap parent-side work with in-flight chunks, mirroring the
  barrier-free LOCAL model.  Each takes a required, live ``transport``:
  a :class:`~repro.cluster.coordinator.ClusterCoordinator`, or the
  process backend's :class:`ForkedWorkers`, which forks cluster workers
  on socket pairs and drives them through a coordinator of its own.
  Either way one scheduler runs the chunks: each worker connection
  receives an instance's spec once, dead workers' chunks are requeued
  and abandoned ones cancelled worker-side.  The worker count is the
  transport's own, and every worker runs :func:`run_task`.

Worker computations replay the exact serial code paths on equal compiled
inputs, so distributed results are bit-identical to the serial ones
regardless of arrival order.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, as_completed
from typing import (
    Callable,
    Dict,
    Hashable,
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
    """A picklable snapshot of a sampling instance for distributed workers.

    Carries the compiled full instance (node order, alphabet, integer factor
    scopes, dense weight arrays), the integer adjacency structure, the
    pinning and the factor locality -- everything needed to rebuild the
    instance worker-side (:meth:`to_instance`), and nothing that closes over
    Python callables.  Every registered task body runs the serial code path
    on that reconstruction.
    """

    __slots__ = (
        "nodes",
        "alphabet",
        "scopes",
        "arrays",
        "adjacency",
        "pinning",
        "locality",
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
        self._instance: Optional[SamplingInstance] = None

    # The reconstructed instance closes over Python callables (table-backed
    # factors), so it must never travel; it is rebuilt lazily.
    def __getstate__(self):
        return {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "_instance"
        }

    def __setstate__(self, state) -> None:
        for slot in self.__slots__:
            setattr(self, slot, state.get(slot))

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
    def to_instance(self) -> SamplingInstance:
        """Reconstruct a fully functional :class:`SamplingInstance` (memoised).

        The inverse of :meth:`from_instance`, up to model metadata: the
        graph is rebuilt from the integer adjacency, each factor is built
        around its dense weight array (:meth:`Factor.from_dense`), the
        locality is the spec's, and the compiled engine is installed
        *directly from the spec's arrays* -- so every computation on the
        reconstruction (ball compilations, Theorem 5.1 marginals, batched
        chain matrices) is bit-identical to the original instance.  This is
        what lets a worker run every task body from nothing but the shipped
        spec.
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
        factors = [
            Factor.from_dense(
                tuple(self.nodes[variable] for variable in scope),
                array,
                self.alphabet,
                name="spec-factor",
            )
            for scope, array in zip(self.scopes, self.arrays)
        ]
        distribution = GibbsDistribution(
            graph, self.alphabet, factors, name="spec-reconstruction"
        )
        distribution._locality = self.locality
        # Install the compiled engine straight from the shipped arrays: the
        # node order of `from_instance` is the distribution's deterministic
        # order, so this is exactly what `compiled_engine()` would rebuild,
        # without re-evaluating a single factor.
        distribution._compiled = CompiledGibbs(
            self.nodes, self.alphabet, self.scopes, self.arrays
        )
        self._instance = SamplingInstance(distribution, self.pinning)
        return self._instance


# ----------------------------------------------------------------------
# task bodies (must be importable at module top level)
# ----------------------------------------------------------------------
#: The task registry: every spec-bound task body that a distributed backend
#: can execute, by kind.  One body per kind, shared by *all* backends: the
#: cluster worker loop (which looks the body up by the kind carried in the
#: ``TASK`` frame, over TCP or in a forked worker) and the in-process path
#: both call ``body(args, spec)`` -- so a result is bit-identical no matter
#: where it ran.  ``args`` is the picklable task payload and ``spec`` the
#: connection-level :class:`InstanceSpec`.
TASK_REGISTRY: Dict[str, Callable] = {}


def register_task(kind: str) -> Callable:
    """Decorator: register a ``(args, spec) -> result`` task body by kind."""

    def decorate(body: Callable) -> Callable:
        TASK_REGISTRY[kind] = body
        return body

    return decorate


#: Specs a worker keeps, oldest evicted first, per connection.  Spec ids
#: are stable per instance (:func:`spec_for`), so this bounds how many
#: distinct instances -- or reweightings of one -- a worker holds at once.
SPEC_CACHE_LIMIT = 4


def cache_spec(cache: "OrderedDict[int, object]", spec_id: int, entry) -> None:
    """Insert ``entry`` under ``spec_id`` in a FIFO spec cache.

    The one eviction rule of every spec cache: a worker connection's and
    the coordinator's mirror of it.  An id inserted again moves to the
    newest place, its old entry dropped; past :data:`SPEC_CACHE_LIMIT`
    entries the oldest go.  The rule is deterministic, so the coordinator
    replays a connection's evictions exactly and knows when a spec must be
    shipped again.
    """
    cache.pop(spec_id, None)
    cache[spec_id] = entry
    while len(cache) > SPEC_CACHE_LIMIT:
        cache.popitem(last=False)


def run_task(kind: str, args, spec: Optional[InstanceSpec] = None):
    """Execute one task body on its resolved spec.

    The one worker-side entry: a worker connection (over TCP or in a
    forked worker) calls it for every ``TASK`` frame, and the
    coordinator's in-process fallback for tasks it runs itself.  ``spec``
    is the snapshot the caller resolved from its spec cache (the cluster
    reader pins it to a task at enqueue time, so a task that waited in the
    queue while later ``SPEC`` frames evicted its entry still runs); a
    spec-bound kind without one names the unknown ``args["spec_id"]``.
    """
    if kind == "ping":
        return args
    from repro.cluster.protocol import ProtocolError

    body = TASK_REGISTRY.get(kind)
    if body is None:
        raise ProtocolError(f"unknown task kind {kind!r}")
    if spec is None:
        raise ProtocolError(
            f"task references unknown spec {args.get('spec_id')!r}; "
            "the coordinator must send SPEC before TASK"
        )
    return body(args, spec=spec)


@register_task("ball_marginals")
def _ball_marginals_task(args: Dict, spec: InstanceSpec):
    """Registered body: Theorem 5.1 marginals for one chunk of ball tasks.

    Runs the serial :func:`~repro.inference.ssm_inference.padded_ball_marginal`
    on the spec's reconstruction and returns ``{(center, radius):
    marginal}`` for the chunk's ``args["tasks"]`` -- the marginals and
    nothing else, as in the LOCAL model, where each node outputs its own
    marginal.  The compiled balls, boundary extensions and marginal memos
    stay in the worker: its spec persists across chunks and calls, so its
    reconstruction's ball cache stays warm.
    """
    from repro.inference.ssm_inference import padded_ball_marginal

    instance = spec.to_instance()
    return {key: padded_ball_marginal(instance, *key) for key in args["tasks"]}


def advance_block(
    kernel,
    instance: SamplingInstance,
    count: int,
    seeds: Sequence,
    initial=None,
    stats: bool = False,
):
    """Advance one batched block of chains; return ``(batch, counts)``.

    ``counts`` is None unless ``stats``; then ``counts[c]`` is chain
    ``c``'s accumulated failure count (gated kernels report rejected
    proposals via :meth:`~repro.sampling.kernels.ScanKernel.failure_counts`;
    ungated kernels report zeros).
    """
    from repro.runtime.chains import ChainBatch

    batch = ChainBatch(instance, seeds=seeds, initial=initial)
    batch.advance(kernel, count)
    if not stats:
        return batch, None
    counter = getattr(kernel, "failure_counts", None)
    counts = counter(batch).tolist() if counter is not None else [0] * batch.n_chains
    return batch, counts


@register_task("chain_block")
def _chain_block_task(args: Dict, spec: InstanceSpec):
    """Registered body: advance one block of chains of one kernel.

    ``args`` carries ``{"kernel", "count", "seeds", "initial"}`` (plus the
    transport-level ``spec_id``); the block runs as a batched code matrix
    on the instance reconstructed from the spec
    (:meth:`InstanceSpec.to_instance`) and returns that final
    ``(len(seeds), n)`` int64 matrix, ``ChainBatch.codes``.  Row ``c``
    decodes (:func:`~repro.runtime.chains.decode_configurations`, with the
    spec's nodes and alphabet) to the kernel's serial chain run with
    ``seed=seeds[c]``, bit for bit -- the contract that makes chain blocks
    freely movable between forked workers, cluster workers and the
    in-process path.  Every transport carries this one result format.

    An optional ``"stats": True`` flag switches the return value to
    ``(codes, counts)`` (see :func:`advance_block`).  This is how JVV
    rejection statistics (the E4 rejection-law rows, E12's jvv-kernel row)
    ride the block wire format across the process and cluster backends.
    """
    from repro.sampling.kernels import get_kernel

    batch, counts = advance_block(
        get_kernel(args["kernel"]),
        spec.to_instance(),
        args["count"],
        args["seeds"],
        initial=args.get("initial"),
        stats=args.get("stats", False),
    )
    return batch.codes if counts is None else (batch.codes, counts)


# ----------------------------------------------------------------------
# the process backend's workers: cluster workers forked on socket pairs
# ----------------------------------------------------------------------
#: Seconds between a forked worker's checks that its owner is still alive.
_OWNER_POLL_S = 1.0

#: Both ends of every forked worker's socket pair in this process.  A newly
#: forked worker closes all but its own, so each worker's connection ends
#: -- and the worker exits -- when its owner closes it or dies.
_PAIR_ENDS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def _serve_forked(connection: socket.socket, owner: int) -> None:
    """A forked worker's body, left only through ``os._exit``: close every
    inherited pair end but its own, drop the inherited obs handle (it
    records only under a shipped trace context), exit once the ``owner``
    pid is gone, and serve ``connection`` until the owner hangs up."""
    code = 1
    try:
        for end in list(_PAIR_ENDS):
            if end is not connection:
                end.close()
        obs.disable()

        def watch() -> None:
            while os.getppid() == owner:
                time.sleep(_OWNER_POLL_S)
            os._exit(0)

        threading.Thread(target=watch, name="repro-worker-owner", daemon=True).start()
        from repro.cluster.worker import serve_connection

        serve_connection(connection, proc="pool-worker")
        code = 0
    finally:
        os._exit(code)


def _reap(pids: Sequence[int]) -> None:
    """Wait for forked workers to exit, so none lingers as a zombie."""
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # already reaped elsewhere
            pass


class ForkedWorkers:
    """The process backend's transport: ``n_workers`` forked cluster workers.

    Forked at the first call that needs them, kept until :meth:`shutdown`.
    Each runs :func:`repro.cluster.worker.serve_connection` on one end of a
    ``socket.socketpair()``; one
    :class:`~repro.cluster.coordinator.ClusterCoordinator` drives the other
    ends (no address, reconnect or key), so a dead worker's tasks are
    requeued, and a call that finds every worker dead forks a fresh set.
    A one-worker set never forks.  Forking emits a ``runtime.pool.spawn`` obs
    instant (``workers``, ``ms``); after :meth:`shutdown` the workers exit
    on end-of-file and a daemon thread reaps them, so nothing joins.
    """

    def __init__(self, n_workers: int) -> None:
        self.n_workers = max(1, int(n_workers))
        #: Pids of the current set's workers (empty until forked).
        self.pids: Tuple[int, ...] = ()
        self._coordinator = None
        self._lock = threading.Lock()

    @property
    def live_worker_count(self) -> int:
        """Live workers of the current set, or the set's width before a fork."""
        coordinator = self._coordinator
        live = coordinator.live_worker_count if coordinator is not None else 0
        return live or self.n_workers

    def coordinator(self):
        """The live coordinator, forking the workers if none is alive."""
        with self._lock:
            if not (self._coordinator and self._coordinator.live_worker_count):
                if self._coordinator is not None:
                    self._coordinator.shutdown()  # every worker died
                self._coordinator = self._fork()
            return self._coordinator

    def snapshot(self) -> Optional[Dict[str, object]]:
        """The coordinator's :meth:`snapshot` of the current set, or None
        before the first fork and after :meth:`shutdown`.  Never forks."""
        coordinator = self._coordinator
        return coordinator.snapshot() if coordinator is not None else None

    def _fork(self):
        from repro.cluster.coordinator import ClusterCoordinator

        started = time.perf_counter()
        owner = os.getpid()
        ends: List[socket.socket] = []
        pids: List[int] = []
        try:
            for _ in range(self.n_workers):
                parent_end, child_end = socket.socketpair()
                _PAIR_ENDS.update((parent_end, child_end))
                ends.append(parent_end)
                pid = os.fork()
                if pid == 0:
                    _serve_forked(child_end, owner)
                child_end.close()
                pids.append(pid)
            coordinator = ClusterCoordinator(ends, auth_key="", reconnect=False)
        except BaseException:
            for end in ends:
                end.close()
            raise
        finally:
            threading.Thread(target=_reap, args=(pids,), daemon=True).start()
        self.pids = tuple(pids)
        obs.instant(
            "runtime.pool.spawn",
            workers=self.n_workers,
            ms=(time.perf_counter() - started) * 1e3,
        )
        return coordinator

    def shutdown(self) -> None:
        """Close the connections, cancelling pending tasks (idempotent);
        the next :meth:`coordinator` forks again."""
        with self._lock:
            coordinator, self._coordinator = self._coordinator, None
            self.pids = ()
        if coordinator is not None:
            coordinator.shutdown()


# ----------------------------------------------------------------------
# sessions: where a chunk's (kind, payload) runs
# ----------------------------------------------------------------------
class _InProcess:
    """One chunk or one forked worker: run the registered bodies here.

    Each chunk runs lazily when the scheduler asks for its result, so a
    consumer that abandons the stream early skips the rest.
    """

    def __init__(self, spec: InstanceSpec) -> None:
        self.spec = spec

    def submit(self, kind: str, args: Dict, size: int) -> Callable:
        def run():
            with obs.span("shards.chunk", kind=kind, tasks=size, mode="inprocess"):
                return TASK_REGISTRY[kind](args, self.spec)

        return run

    def landed(self, handles, ordered: bool):
        return iter(handles)

    def result(self, handle):
        return handle()

    def cancel(self, handles) -> None:
        pass


#: The one spec-id counter of the process.  Ids are never reused, so no
#: worker connection's spec cache confuses two specs.
_SPEC_IDS = itertools.count(1)


def spec_for(instance: SamplingInstance) -> Tuple[int, InstanceSpec]:
    """The ``(spec_id, spec)`` of an instance: one identity for both transports.

    Memoised on the instance and tied to the compiled engine the spec was
    built from -- the rule of
    :func:`~repro.sampling.glauber.greedy_start_codes`.  Repeated calls on
    an unchanged instance reuse one id, so worker connections hit their
    spec cache instead of decoding the spec again.
    A distribution reweighted in place
    (:meth:`~repro.gibbs.distribution.GibbsDistribution.update_factors`)
    has a new compiled engine, so it gets a new id and a new spec, and no
    worker ever samples the old weights.  Threads racing on a first call
    may each build an entry; both are correct, and the last one is kept.
    """
    compiled = instance.distribution.compiled_engine()
    memo = instance._spec
    if memo is not None and memo[0] is compiled:
        return memo[1]
    entry = (next(_SPEC_IDS), InstanceSpec.from_instance(instance))
    instance._spec = (compiled, entry)
    return entry


class _ClusterSession:
    """One call on a coordinator, the one distributed session.

    Tasks carry the spec id of ``entry``, ``(spec_id, spec)``; the
    coordinator ships the spec to each worker connection once, requeues
    the tasks of dead workers, and cancels abandoned ones worker-side.
    """

    def __init__(self, coordinator, entry: Tuple[int, InstanceSpec]) -> None:
        self.coordinator = coordinator
        self.entry = entry
        self.spec = entry[1]

    def submit(self, kind: str, args: Dict, size: int) -> Future:
        return self.coordinator.submit_task(
            kind, dict(args, spec_id=self.entry[0]), spec=self.entry
        )

    def landed(self, futures, ordered: bool):
        return iter(futures) if ordered else as_completed(futures)

    def result(self, future: Future):
        return future.result()

    def cancel(self, futures) -> None:
        self.coordinator._discard(futures)


def _fleet(transport) -> int:
    """How many workers stand behind ``transport`` (at least one)."""
    return max(1, transport.live_worker_count)


def _session(transport, instance: SamplingInstance, n_chunks: int):
    """Where one front-end call of ``n_chunks`` chunks on the instance's
    :func:`spec_for` entry runs, on ``transport``, a coordinator or a
    :class:`ForkedWorkers`.

    On forked workers one chunk, or a one-worker set, runs in-process
    (:class:`_InProcess`) and nothing forks.  Otherwise the set forks (if
    needed) and the call runs on its coordinator like any cluster call,
    the spec crossing by pickle to each worker that lacks it.
    """
    entry = spec_for(instance)
    if isinstance(transport, ForkedWorkers):
        if n_chunks <= 1 or transport.n_workers <= 1:
            return _InProcess(entry[1])
        transport = transport.coordinator()
    return _ClusterSession(transport, entry)


def _chunk_target(transport) -> int:
    """How many chunks a stream over ``transport`` aims at by default.

    ``min(4w, max(2w, 8))`` for ``w`` live workers: about four chunks per
    worker while the fleet is small -- small enough that the first result
    lands early and stragglers stay balanced, large enough to amortise the
    per-chunk round trip -- capped once the fixed per-chunk round trip
    dominates as chunks shrink with the fleet (the measured 4-worker
    cluster regression in ``BENCH_runtime.json``).  For ``w <= 2`` that is
    ``4w``.
    """
    workers = _fleet(transport)
    return min(4 * workers, max(2 * workers, 8))


def _chunk_tasks(
    tasks: Sequence, n_chunks: int, chunk_size: Optional[int] = None
) -> List[List]:
    """Split tasks into contiguous chunks, about ``n_chunks`` of them unless
    ``chunk_size`` fixes the tasks per chunk."""
    tasks = list(tasks)
    if not tasks:
        return []
    if chunk_size is None:
        chunk_size = -(-len(tasks) // max(1, n_chunks))
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]


def _scatter(
    session, kind: str, work: Sequence, what: Optional[str] = None, ordered: bool = False
):
    """THE scheduler loop: submit, then yield results as they land.

    ``work`` holds one ``(chunk, args)`` pair per chunk; each becomes one
    ``(kind, args)`` submission to ``session``.  Results are yielded in
    completion order (chunk order when ``ordered``).  A failed chunk --
    the body raising on a worker or in-process, or a task lost with every
    worker -- raises instead of hanging: as a ``RuntimeError``
    naming the chunk when ``what`` names the work, otherwise as the
    session's own exception.  Pending chunks are cancelled both on failure
    and when the consumer abandons the generator early.  Queue depth and
    chunk counts land in the metrics registry when obs is on.
    """
    handles: Dict = {}
    try:
        for chunk, args in work:
            handles[session.submit(kind, args, len(chunk))] = chunk
    except BaseException:
        session.cancel(handles)  # a failed submission abandons its batch
        raise
    observer = obs.active()
    if observer is not None:
        observer.metrics.gauge("runtime.shards.pending").set(len(handles))
    try:
        for landed in session.landed(handles, ordered):
            try:
                result = session.result(landed)
            except Exception as error:
                if what is None:
                    raise
                raise RuntimeError(
                    f"{what} failed on chunk {handles[landed]!r}: {error}"
                ) from error
            if observer is not None:
                observer.metrics.counter("runtime.shards.chunks").inc()
                observer.metrics.gauge("runtime.shards.pending").add(-1)
            yield result
    finally:
        session.cancel(handles)


# ----------------------------------------------------------------------
# parent-side front ends (one scheduler, either transport)
# ----------------------------------------------------------------------
def stream_ball_marginal_tasks(
    instance: SamplingInstance,
    tasks: Sequence[BallKey],
    chunk_size: Optional[int] = None,
    *,
    transport,
) -> Iterator[Tuple[BallKey, Dict[Value, float]]]:
    """Stream Theorem 5.1 marginals for heterogeneous ``(center, radius)`` tasks.

    The barrier-free core of the distributed backends: tasks are chunked,
    each chunk runs the registered ``ball_marginals`` body on a worker (the
    :class:`InstanceSpec` is decoded once per worker), and each chunk's
    marginals are yielded the moment the chunk completes, in *completion*
    order.  Workers return marginals only: the parent's
    :class:`~repro.engine.cache.BallCache` is never touched, and each
    worker keeps its own compiled balls warm.  The parent can therefore
    consume radius-``r`` results while radius-``r + 1`` balls are still compiling in
    the workers, which is exactly the overlap of the paper's barrier-free
    LOCAL model.

    Parameters
    ----------
    instance : SamplingInstance
        The conditioned instance to query (shipped as its spec).
    tasks : sequence of (node, int)
        ``(center, radius)`` pairs; radii may differ between tasks.
    chunk_size : int, optional
        Tasks per submitted chunk (default: see :func:`_chunk_target`).
    transport : ForkedWorkers or ClusterCoordinator
        Where the chunks run, and so how many workers there are: a
        coordinator's TCP workers, or the forked workers a process runtime
        passes (through a coordinator of their own; see :func:`_session`).
        Each worker receives the spec once and a dead worker's chunks are
        requeued.  With one forked worker (or one chunk) the stream runs
        in-process on the spec's reconstruction, and nothing forks.

    Yields
    ------
    ((node, int), dict)
        ``((center, radius), marginal)`` pairs in completion order.

    Raises
    ------
    RuntimeError
        When a chunk fails, naming the chunk and chaining the worker
        exception; remaining chunks are cancelled.  Abandoning the generator
        early (``close()``) likewise cancels everything still pending.
    """
    tasks = list(tasks)
    if not tasks:
        return
    chunks = _chunk_tasks(tasks, _chunk_target(transport), chunk_size)
    session = _session(transport, instance, len(chunks))
    work = [(chunk, {"tasks": chunk}) for chunk in chunks]
    for marginals in _scatter(session, "ball_marginals", work, "ball shard"):
        yield from marginals.items()


def stream_padded_ball_marginals(
    instance: SamplingInstance,
    centers: Sequence[Node],
    radius: int,
    chunk_size: Optional[int] = None,
    *,
    transport,
) -> Iterator[Tuple[Node, Dict[Value, float]]]:
    """Stream Theorem 5.1 marginals at many centers of one radius.

    A single-radius convenience wrapper over
    :func:`stream_ball_marginal_tasks` yielding ``(center, marginal)`` pairs
    in completion order, as each shard arrives.  Per-ball results are
    bit-identical to the serial
    :func:`repro.inference.ssm_inference.padded_ball_marginal` loop.
    ``transport`` is as for :func:`stream_ball_marginal_tasks`.
    """
    for (center, _), marginal in stream_ball_marginal_tasks(
        instance,
        [(center, radius) for center in centers],
        chunk_size=chunk_size,
        transport=transport,
    ):
        yield center, marginal


def run_chain_blocks(
    instance: SamplingInstance,
    kernel_name: str,
    count: int,
    seeds: Sequence,
    initial=None,
    stats: bool = False,
    *,
    transport,
) -> List[Dict[Node, Value]]:
    """Run independent chains as batched blocks on the workers.

    The distributed leg of the unified chain path
    (:meth:`repro.runtime.executor.Runtime.run_chains`): the seed list is
    split into one contiguous block per worker of ``transport``, each block
    executes the registered ``chain_block`` task body on a worker, and the
    per-block results concatenate back in seed order.  With one block or
    one forked worker the body runs in-process -- same body, same results.

    ``transport`` is as for :func:`stream_ball_marginal_tasks`; a process
    runtime passes its :class:`ForkedWorkers`, so the blocks run on the
    same long-lived workers as its ball streams.  Every block returns its
    final code matrix on every transport; the matrices stack in seed order
    and decode once here, with the
    :meth:`~repro.runtime.chains.ChainBatch.configurations` rule
    (:func:`~repro.runtime.chains.decode_configurations`).

    A failing block raises the body's own exception on every transport
    (e.g. the ``ValueError`` of a stuck initial configuration), so
    :meth:`~repro.runtime.executor.Runtime.run_chains` fails as it does
    inline.  A dead worker's block is requeued on another; losing every
    worker raises a :class:`~repro.cluster.coordinator.ClusterError`.

    Returns
    -------
    list of dict
        Final configurations, one per seed, bit-identical to the kernel's
        serial chains.  With ``stats=True``: ``(configurations, counts)``,
        where ``counts`` are the per-chain failure counts of gated kernels
        (zeros for ungated ones).

    Raises
    ------
    ValueError
        For an unknown kernel, before anything is submitted.
    """
    from repro.runtime.chains import decode_configurations
    from repro.sampling.kernels import get_kernel

    get_kernel(kernel_name)  # fail fast on unknown kernels, caller-side
    seeds = list(seeds)
    if not seeds:
        return ([], []) if stats else []
    blocks = _chunk_tasks(seeds, _fleet(transport))
    base = {
        "kernel": kernel_name,
        "count": count,
        "initial": dict(initial) if initial is not None else None,
    }
    if stats:
        base["stats"] = True
    matrices: List[np.ndarray] = []
    counts: List[int] = []
    work = [(block, dict(base, seeds=block)) for block in blocks]
    session = _session(transport, instance, len(blocks))
    for result in _scatter(session, "chain_block", work, ordered=True):
        codes, block_counts = result if stats else (result, ())
        matrices.append(codes)
        counts.extend(block_counts)
    spec = session.spec
    results = decode_configurations(np.concatenate(matrices), spec.nodes, spec.alphabet)
    return (results, counts) if stats else results
