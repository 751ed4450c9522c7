"""The ``Runtime`` facade: *how* work executes, separate from *what* it is.

Four backends:

``serial``
    Today's behaviour -- every loop runs in-process, one item at a time.
    This is the default everywhere, so ``runtime=None`` changes nothing.
``batched``
    Chain workloads run on the batched code-matrix runner of
    :mod:`repro.runtime.chains`: ``n_chains`` independent chains advance
    per step with one set of vectorised gathers.  Bit-identical per chain
    to the serial samplers under the spawned-seed convention.
``process``
    Per-node LOCAL computations (ball compilation, boundary extension, ball
    marginals) and chain blocks shard across runtime-owned cluster workers
    forked on socket pairs (:class:`~repro.runtime.shards.ForkedWorkers`,
    forked on first use and kept until :meth:`Runtime.shutdown`) via
    :mod:`repro.runtime.shards`.  The sharding is *streaming*:
    :meth:`Runtime.stream_ball_marginals` and
    :meth:`Runtime.stream_ball_marginal_tasks` hand results back as shards
    complete, so parent-side work overlaps with in-flight shards instead of
    idling at a ``pool.map`` barrier.
``cluster``
    The same shard workloads (plus batched chain blocks) run on *worker
    processes reached over TCP* (:mod:`repro.cluster`): the picklable
    ``InstanceSpec`` ships once per worker connection, the coordinator
    dispatches least-loaded with heartbeat liveness, and tasks from dead
    workers are requeued transparently.  ``Runtime(backend="cluster",
    addresses=[...])`` targets existing workers (any hosts); plain
    ``runtime="cluster"`` spawns localhost workers on first use.  Results
    are bit-identical to every other backend.  Workers run only the
    registered task bodies, never pickled callables.

Chain workloads of every registered
:class:`~repro.sampling.kernels.ChainKernel` (Glauber, LubyGlauber, JVV
rejection, sequential scan, ...) execute through the single
:meth:`Runtime.run_chains` path on all four backends; the distributed legs
dispatch the registered ``chain_block`` task body of
:data:`repro.runtime.shards.TASK_REGISTRY`, so adding a kernel adds zero
backend plumbing.

The facade is threaded through ``sampling/glauber.py``,
``inference/ssm_inference.py`` and the experiment entry points that run
chains or ball streams (E4's rejection kernel, E5, E12; E13 per row) as a
``runtime=`` parameter that defaults to serial, mirroring how ``engine=``
selects the evaluation backend (see :mod:`repro.engine`).  The two knobs
compose: ``engine`` decides how a single quantity is evaluated, ``runtime``
decides how many of them execute at once.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.engine import resolve_engine
from repro.gibbs.instance import SamplingInstance
from repro.runtime.chains import (
    ChainState,
    PackedBatch,
    as_seed_list,
    chain_seed_sequences,
    make_chain_state,
)
from repro.runtime.shards import (
    ForkedWorkers,
    advance_block,
    run_chain_blocks,
    stream_ball_marginal_tasks,
    stream_padded_ball_marginals,
)
from repro.sampling.kernels import ChainKernel, resolve_kernel

Node = Hashable
Value = Hashable


#: In-process, one item at a time (the default everywhere).
SERIAL_BACKEND = "serial"
#: Many chains as one code matrix (see :mod:`repro.runtime.chains`).
BATCHED_BACKEND = "batched"
#: Per-node work sharded across OS processes (see :mod:`repro.runtime.shards`).
PROCESS_BACKEND = "process"
#: Work dispatched to coordinator-managed TCP workers (see :mod:`repro.cluster`).
CLUSTER_BACKEND = "cluster"

_BACKENDS = (SERIAL_BACKEND, BATCHED_BACKEND, PROCESS_BACKEND, CLUSTER_BACKEND)

#: Chain-update budget (``chains * count``) below which the process backend
#: runs the registered ``chain_block`` task body in-process instead of
#: dispatching to its workers.  Sized when every call forked its own pool: a
#: fresh fork-pool spin-up plus teardown cost ~45-60 ms on the benchmark
#: box, while the batched runner sustains well over 200k single-site
#: updates per second.  Persistent workers removed that per-call cost;
#: the threshold is kept as it was.  Results are bit-identical either way
#: (same task body, same per-chain seed streams); pass
#: ``inline_threshold=0`` to always dispatch.
INLINE_CHAIN_UPDATES = 10_000


class Runtime:
    """An execution policy: backend, chain batch width, worker count.

    Parameters
    ----------
    backend : str
        One of :data:`SERIAL_BACKEND`, :data:`BATCHED_BACKEND`,
        :data:`PROCESS_BACKEND`, :data:`CLUSTER_BACKEND`.
    n_chains : int
        Chain batch width used by the sampling entry points.
    n_workers : int, optional
        Forked workers of the process backend (default: the CPU count).
        For the cluster backend: the number of localhost workers to spawn
        when no ``addresses`` are given (default 2), or the address count.
        Other backends default to 1.
    addresses : sequence, optional
        Cluster backend only: worker addresses as ``(host, port)`` pairs or
        ``"host:port"`` strings.  ``None`` makes the runtime spawn (and own)
        ``n_workers`` localhost workers on first use.
    auth_key : str or bytes, optional
        Cluster backend only: shared HMAC-SHA256 secret authenticating
        every frame between coordinator and workers (see
        :mod:`repro.cluster.protocol`).  Runtime-spawned localhost workers
        inherit the key automatically; for remote workers start each
        ``repro-cluster-worker`` with the same key.  Defaults to the
        ``REPRO_CLUSTER_AUTH_KEY`` environment variable.
    degrade : str, optional
        Cluster backend only: what losing *every* worker does to
        outstanding tasks.  ``"raise"`` (default) fails them with
        :class:`~repro.cluster.coordinator.ClusterError`; ``"local"`` runs
        them in-process instead -- same registered task bodies, hence
        bit-identical results -- after a single :class:`RuntimeWarning`.
    transport : str, optional
        Deprecated and inert: validated as before, it selects nothing.
        Every spec crosses to the process backend's workers by pickle,
        once per worker.
    inline_threshold : int, optional
        Adaptive dispatch guard: chain workloads whose total update budget
        (``chains * count``) does not exceed this run the registered task
        body in-process instead of going to the workers.  Default
        :data:`INLINE_CHAIN_UPDATES`; ``0`` always dispatches.  Results
        are bit-identical either way.
    obs : bool or repro.obs.Observability, optional
        ``True`` enables the process-wide observability handle (metrics +
        span tracing; see :mod:`repro.obs`) for this runtime's lifetime --
        :meth:`shutdown` disables it again, and an already-enabled handle
        is left alone.  Passing an :class:`~repro.obs.Observability`
        installs that handle without taking ownership.  Tracing never
        consumes sampler RNG, so results are bit-identical either way.
        Inspect via :meth:`snapshot`, :func:`repro.obs.events`, or the
        ``repro-trace`` CLI after exporting.

    Notes
    -----
    A ``Runtime`` is cheap to construct: neither construction nor
    :meth:`submit` forks.  The process backend forks its ``n_workers``
    workers at its first call that needs them and keeps them, so a call
    pays neither a fork nor a join; a dead worker's tasks are requeued on
    the others, and after a call that loses every worker the next call
    forks a fresh set.  The cluster backend connects its coordinator lazily on
    first use (spawning localhost workers when no addresses were given);
    :meth:`shutdown` (or use as a context manager) releases everything and
    is safe to call repeatedly -- including while streaming iterators are
    still abandoned mid-iteration, whose pending work it cancels.
    """

    __slots__ = (
        "backend",
        "n_chains",
        "n_workers",
        "addresses",
        "auth_key",
        "degrade",
        "inline_threshold",
        "_cluster",
        "_local_pool",
        "_forked",
        "_obs_owned",
        "_shutdown_lock",
        "_snapshot_sections",
    )

    def __init__(
        self,
        backend: str = SERIAL_BACKEND,
        n_chains: int = 1,
        n_workers: Optional[int] = None,
        addresses: Optional[Sequence] = None,
        auth_key=None,
        degrade: Optional[str] = None,
        transport: Optional[str] = None,
        inline_threshold: Optional[int] = None,
        obs: Union[None, bool, object] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown runtime backend {backend!r}; expected one of {_BACKENDS}"
            )
        if n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if addresses is not None and backend != CLUSTER_BACKEND:
            raise ValueError("addresses only apply to the cluster backend")
        if auth_key is not None and backend != CLUSTER_BACKEND:
            raise ValueError("auth_key only applies to the cluster backend")
        if degrade is not None and backend != CLUSTER_BACKEND:
            raise ValueError("degrade only applies to the cluster backend")
        if degrade not in (None, "raise", "local"):
            raise ValueError(f'degrade must be "raise" or "local", got {degrade!r}')
        if transport not in (None, "pickle", "shm"):
            raise ValueError(
                f"unknown transport {transport!r}; expected 'pickle' or 'shm'"
            )
        if transport == "shm" and backend != PROCESS_BACKEND:
            raise ValueError('transport="shm" applies to the process backend only')
        if inline_threshold is None:
            inline_threshold = INLINE_CHAIN_UPDATES
        if inline_threshold < 0:
            raise ValueError("inline_threshold must be >= 0")
        self.inline_threshold = int(inline_threshold)
        self.auth_key = auth_key
        self.degrade = degrade
        self.backend = backend
        self.n_chains = int(n_chains)
        self.addresses = list(addresses) if addresses is not None else None
        if n_workers is None:
            if backend == PROCESS_BACKEND:
                n_workers = os.cpu_count() or 1
            elif backend == CLUSTER_BACKEND:
                n_workers = len(self.addresses) if self.addresses else 2
            else:
                n_workers = 1
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.n_workers = int(n_workers)
        self._cluster = None
        self._local_pool = None
        # The process backend's workers fork only when a call needs them.
        self._forked = (
            ForkedWorkers(self.n_workers)
            if backend == PROCESS_BACKEND
            else None
        )
        self._shutdown_lock = threading.RLock()
        self._snapshot_sections: Dict[str, Callable[[], object]] = {}
        # obs=True enables the process-wide observability handle for the
        # lifetime of this runtime (shutdown disables it again); an
        # Observability instance installs that handle without ownership;
        # None/False leave the subsystem untouched.
        from repro import obs as obs_api

        self._obs_owned = False
        if obs is True:
            if obs_api.active() is None:
                obs_api.enable()
                self._obs_owned = True
        elif obs is not None and obs is not False:
            if not isinstance(obs, obs_api.Observability):
                raise ValueError(
                    "obs must be True, False, None, or an obs.Observability handle"
                )
            obs_api.install(obs)

    # ------------------------------------------------------------------
    @property
    def is_serial(self) -> bool:
        """Whether this runtime runs the plain in-process loops."""
        return self.backend == SERIAL_BACKEND

    @property
    def is_batched(self) -> bool:
        """Whether chain workloads run on the batched code-matrix runner."""
        return self.backend == BATCHED_BACKEND

    @property
    def is_process(self) -> bool:
        """Whether work shards across forked worker processes."""
        return self.backend == PROCESS_BACKEND

    @property
    def is_cluster(self) -> bool:
        """Whether work is dispatched to TCP workers via a coordinator."""
        return self.backend == CLUSTER_BACKEND

    @property
    def is_distributed(self) -> bool:
        """Whether work may leave this process (the process or cluster backend)."""
        return self.backend in (PROCESS_BACKEND, CLUSTER_BACKEND)

    def _transport(self):
        """What the shard front ends submit to (the ``transport=`` argument
        of :mod:`repro.runtime.shards`): the process backend's forked
        workers, or the cluster backend's coordinator."""
        return self.cluster_client() if self.is_cluster else self._forked

    # ------------------------------------------------------------------
    def cluster_client(self):
        """The coordinator behind the cluster backend (lazy, runtime-owned).

        Connects to :attr:`addresses` on first use; when none were given,
        ``n_workers`` localhost workers are spawned first (and terminated
        again by :meth:`shutdown`).

        Returns
        -------
        repro.cluster.coordinator.ClusterCoordinator
            The live coordinator.

        Raises
        ------
        ValueError
            When called on a non-cluster backend.
        """
        if not self.is_cluster:
            raise ValueError("cluster_client() requires the cluster backend")
        if self._cluster is None:
            from repro.cluster.coordinator import ClusterCoordinator

            addresses = self.addresses
            if addresses is None:
                from repro.cluster.local import spawn_workers

                # Runtime-spawned workers inherit the runtime's auth key,
                # so a keyed localhost cluster needs no extra wiring.
                self._local_pool = spawn_workers(
                    self.n_workers, auth_key=self.auth_key
                )
                addresses = self._local_pool.addresses
            self._cluster = ClusterCoordinator(
                addresses,
                auth_key=self.auth_key,
                degrade=self.degrade if self.degrade is not None else "raise",
            )
        return self._cluster

    # ------------------------------------------------------------------
    def submit(self, function: Callable, *args, **kwargs) -> Future:
        """Run one call in-process, returning a resolved ``Future``.

        The same on every backend: the call runs immediately and the
        returned future is already resolved (its exception captured rather
        than raised), for callers written against the futures interface.

        Parameters
        ----------
        function : callable
            The callable to execute.
        *args, **kwargs
            Forwarded to ``function``.

        Returns
        -------
        concurrent.futures.Future
            Resolved to ``function(*args, **kwargs)``.
        """
        future: Future = Future()
        try:
            future.set_result(function(*args, **kwargs))
        except Exception as error:  # conform: the future carries the failure
            future.set_exception(error)
        # BaseException (KeyboardInterrupt, SystemExit) propagates: a parent
        # pressing Ctrl-C must be able to abort regardless of backend.
        return future

    def shutdown(self) -> None:
        """Release every OS resource this runtime owns (idempotent, thread-safe).

        Closes the connections of the process backend's forked workers
        and of the cluster coordinator (cancelling in-flight tasks --
        streams abandoned mid-iteration included); forked workers exit on
        end-of-file and are reaped in the background.  Also terminates
        localhost workers the runtime spawned itself.  Calling it again --
        or never having created any resource -- is a no-op, and a later
        operation transparently re-creates what it needs (the next call
        that needs workers forks again).  Concurrent callers are safe:
        each resource is detached under a lock and released exactly once.
        Nothing here joins a process, so the serving layer's drain path
        may call it from an asyncio event loop.
        """
        with self._shutdown_lock:
            cluster, self._cluster = self._cluster, None
            local_pool, self._local_pool = self._local_pool, None
            obs_owned, self._obs_owned = self._obs_owned, False
        if self._forked is not None:
            self._forked.shutdown()
        if cluster is not None:
            cluster.shutdown()
        if local_pool is not None:
            local_pool.terminate()
        if obs_owned:
            obs.disable()

    def register_snapshot_section(
        self, name: str, provider: Callable[[], object]
    ) -> None:
        """Attach a named section to :meth:`snapshot` (e.g. ``"serve"``).

        The serving layer uses this to publish its coalescer stats next
        to the built-in ``"obs"`` and ``"cluster"`` blocks; any subsystem
        sharing a runtime can do the same.  Re-registering a name
        replaces its provider.
        """
        self._snapshot_sections[str(name)] = provider

    def unregister_snapshot_section(self, name: str) -> None:
        """Detach a section registered via :meth:`register_snapshot_section`."""
        self._snapshot_sections.pop(str(name), None)

    def snapshot(self) -> Dict[str, object]:
        """A point-in-time observability view of this runtime.

        Always includes the runtime's own shape (``backend``,
        ``n_chains``, ``n_workers``); when the process-wide observability
        handle is enabled (``obs=True`` or :func:`repro.obs.enable`), the
        metrics registry and trace-buffer summary ride along under
        ``"obs"``, and a live coordinator -- the cluster backend's, or the
        process backend's once it has forked its workers -- contributes
        worker liveness/queue counters under ``"cluster"``.  Reading it
        never forks or connects.  Subsystems sharing
        the runtime add their own blocks via
        :meth:`register_snapshot_section` (the serving layer publishes
        ``"serve"``).  Purely a read -- never touches RNG state or
        results.
        """
        out: Dict[str, object] = {
            "backend": self.backend,
            "n_chains": self.n_chains,
            "n_workers": self.n_workers,
        }
        handle = obs.active()
        if handle is not None:
            out["obs"] = handle.snapshot()
        if self._cluster is not None:
            out["cluster"] = self._cluster.snapshot()
        elif self._forked is not None:
            forked = self._forked.snapshot()
            if forked is not None:
                out["cluster"] = forked
        for name, provider in list(self._snapshot_sections.items()):
            try:
                out[name] = provider()
            except Exception as error:  # a read must never raise
                out[name] = {"error": f"{type(error).__name__}: {error}"}
        return out

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def run_chains(
        self,
        kernel: Union[str, ChainKernel],
        instance: SamplingInstance,
        count: int,
        seed=0,
        seeds: Optional[Sequence] = None,
        initial: Optional[Dict[Node, Value]] = None,
        init: Optional[str] = None,
        state: Optional[ChainState] = None,
        return_state: bool = False,
    ):
        """Final states of ``n_chains`` independent chains of one kernel.

        THE chain execution path: every registered
        :class:`~repro.sampling.kernels.ChainKernel` (Glauber, LubyGlauber,
        JVV rejection, sequential scan, ...) runs on every backend through
        this one method.  All backends use the same per-chain seed
        convention (:func:`~repro.runtime.chains.chain_seed_sequences`), so
        the result is bit-identical across backends; only the execution
        strategy differs:

        * ``serial`` loops the kernel's reference ``serial_run`` per seed;
        * ``batched`` advances all chains as one ``(chains, n)`` code
          matrix (:class:`~repro.runtime.chains.ChainBatch`);
        * ``process`` and ``cluster`` split the seeds into contiguous
          blocks, one per worker, and run the registered ``chain_block``
          task body (:data:`~repro.runtime.shards.TASK_REGISTRY`) on each
          through :func:`~repro.runtime.shards.run_chain_blocks` -- over
          forked workers or the coordinator's TCP workers.  The process
          backend runs workloads under :attr:`inline_threshold` updates
          in-process.

        Chains always run on the compiled evaluation engine; the dict
        engine is an evaluation reference only (see :mod:`repro.engine`).

        Parameters
        ----------
        kernel : str or ChainKernel
            The dynamics to advance (registered name or instance).
        instance : SamplingInstance
            The instance every chain targets (several instances advance
            together through :meth:`run_packed`).
        count : int
            Units of the dynamics per chain (steps, rounds, ... -- see the
            kernel's ``unit``).
        seed, seeds
            Root seed to spawn per-chain streams from, or explicit per-chain
            seeds (overrides ``seed``).
        initial : dict, optional
            Shared initial configuration.
        init : str, optional
            Named initial-state strategy.  ``"greedy"`` seeds every chain
            from the deterministic local-search warm start of
            :func:`~repro.sampling.glauber.warm_start_configuration`
            (the SAMaxWalkSAT chain-bootstrap idiom) -- this changes only
            the starting configuration, never the kernel's draw sequence.
            Mutually exclusive with ``initial``.
        state : ChainState, optional
            Resume these chains instead of starting fresh (serial and
            batched backends only).  ``seeds`` /
            ``initial`` / ``init`` must not be combined with a resume;
            ``instance`` may be the original instance or a reweighted twin
            of it (see :meth:`~repro.runtime.chains.ChainBatch.retarget`).
        return_state : bool
            Also return the resumable :class:`~repro.runtime.chains.ChainState`
            -- final per-chain codes plus the live per-chain generators and
            the uniforms buffer of their drawn but unread doubles -- so a
            later ``state=`` call continues the same chains bit-identically
            (for the given segmentation; a LubyGlauber run split into
            segments even equals one whole run).  Serial and batched
            backends only.

        Returns
        -------
        list of dict, or (list of dict, ChainState)
            Final configurations, one per chain, in seed order; with
            ``return_state=True``, the resumable state rides along.
        """
        resolved = resolve_kernel(kernel)
        seeds, initial, chain_state = self._chain_arguments(
            resolved, instance, seed, seeds, initial, init, state, return_state
        )
        if chain_state is None:
            chains, mode = len(seeds), {}
        else:
            chains = chain_state.n_chains
            mode = {"resumed": True} if state is not None else {"stateful": True}
        with obs.span(
            "runtime.run_chains",
            backend=self.backend,
            kernel=resolved.name,
            chains=chains,
            count=count,
            **mode,
        ):
            if chain_state is not None:
                states = chain_state.advance(resolved, instance, count)
            elif self.is_serial:
                states = [
                    resolved.serial_run(instance, count, seed=chain_seed, initial=initial)
                    for chain_seed in seeds
                ]
            else:
                states = self._chain_blocks(resolved, instance, count, seeds, initial)
        return (states, chain_state) if return_state else states

    def _chain_arguments(
        self, kernel, instance, seed, seeds, initial, init, state, return_state
    ):
        """Validate and normalise the arguments of :meth:`run_chains`.

        Returns ``(seeds, initial, chain_state)``: the per-chain seeds and
        shared initial configuration of a fresh run (both ``None`` on a
        resume), and the resumable state to advance -- ``state`` itself, a
        fresh one for ``return_state``, otherwise ``None``.
        """
        if state is not None or return_state:
            if not (self.is_serial or self.is_batched):
                raise ValueError(
                    "resumable chain state requires the serial or batched "
                    f"backend, not {self.backend!r} (the distributed backends "
                    "do not keep per-chain generators in-process)"
                )
        if state is not None:
            if seeds is not None or initial is not None or init is not None:
                raise ValueError(
                    "state= resumes existing chains; seeds/initial/init "
                    "cannot be changed mid-flight"
                )
            return None, None, state
        if init is not None:
            if initial is not None:
                raise ValueError("pass init= or initial=, not both")
            if init != "greedy":
                raise ValueError(f'unknown init strategy {init!r}; expected "greedy"')
            from repro.sampling.glauber import warm_start_configuration

            initial = warm_start_configuration(instance)
        if seeds is None:
            seeds = chain_seed_sequences(seed, self.n_chains)
        else:
            seeds = as_seed_list(seeds)
        if not return_state:
            return seeds, initial, None
        return seeds, initial, make_chain_state(
            kernel,
            instance,
            seeds,
            initial=initial,
            layout="serial" if self.is_serial else "batched",
        )

    def run_packed(
        self,
        kernel: Union[str, ChainKernel],
        requests: Sequence,
        count: int,
    ) -> List[List[Dict[Node, Value]]]:
        """Advance many instances' chains as ONE packed code matrix.

        The multi-instance sibling of :meth:`run_chains`: every request
        group -- possibly
        a *different* registered model -- packs into a single padded
        ``(total_chains, n_max)`` matrix
        (:class:`~repro.runtime.chains.PackedBatch`) so mask-aware kernels
        pay the per-step Python overhead once across all groups instead of
        once per model.  Each group ends bit-identical to its solo
        ``run_chains`` with the same seeds; kernels without a fused step
        (and non-fusable packs, e.g. mixed alphabet sizes) fall back to
        advancing group by group, which *is* solo execution.

        Runs in-process on every backend: packing exists to amortise
        per-step overhead, which distributing would reintroduce.

        Parameters
        ----------
        kernel : str or ChainKernel
            The dynamics every group advances.
        requests : sequence
            One entry per group: ``(instance, seeds)``,
            ``(instance, seeds, initial)``, or a ready
            :class:`~repro.runtime.chains.ChainBatch`.
        count : int
            Units of the dynamics per chain.

        Returns
        -------
        list of list of dict
            Per-group configuration lists, in request order; group ``g``
            equals ``run_chains(kernel, instance_g, count, seeds=seeds_g)``.
        """
        resolved = resolve_kernel(kernel)
        packed = PackedBatch(requests)
        with obs.span(
            "runtime.run_packed",
            backend=self.backend,
            kernel=resolved.name,
            groups=packed.n_groups,
            chains=packed.total_chains,
            count=count,
        ):
            packed.advance(resolved, count)
        return packed.configurations()

    def _chain_blocks(
        self, kernel, instance, count, seeds, initial=None, stats=False
    ):
        """The batched and distributed chain leg of :meth:`run_chains` (and of
        :func:`~repro.sampling.jvv.jvv_chain_stats`, with ``stats``).

        The batched backend, and the process backend below
        :attr:`inline_threshold` chain updates, advance one in-process
        block; otherwise the seeds go out as ``chain_block`` tasks through
        :func:`~repro.runtime.shards.run_chain_blocks`.  Returns what
        ``run_chain_blocks`` returns.
        """
        if self.is_distributed:
            if not (self.is_process and len(seeds) * count <= self.inline_threshold):
                return run_chain_blocks(
                    instance,
                    kernel.name,
                    count,
                    seeds,
                    initial=initial,
                    stats=stats,
                    transport=self._transport(),
                )
            # Adaptive dispatch guard: this workload is under the inline
            # threshold, so run the same batched block (same per-chain
            # streams) in-process -- bit-identical.
            obs.instant(
                "runtime.dispatch.inline",
                backend=self.backend,
                kernel=kernel.name,
                chains=len(seeds),
                count=count,
                threshold=self.inline_threshold,
            )
        batch, counts = advance_block(
            kernel, instance, count, seeds, initial=initial, stats=stats
        )
        configurations = batch.configurations()
        return (configurations, counts) if stats else configurations

    # ------------------------------------------------------------------
    def stream_ball_marginals(
        self,
        instance: SamplingInstance,
        nodes: Sequence[Node],
        radius: int,
        engine: Optional[str] = None,
    ) -> Iterator[Tuple[Node, Dict[Value, float]]]:
        """Stream Theorem 5.1 padded-ball marginals as they complete.

        The process backend shards the per-node ball computations across
        workers and yields each ``(node, marginal)`` pair the moment its
        shard lands, so the consumer overlaps its own work with the
        in-flight shards.  Workers return marginals only: their compiled
        balls stay warm in the workers, and the parent's ball cache is
        left untouched.  The cluster backend does the same over its TCP
        workers (spec shipped once per connection, dead workers' shards
        requeued).  Other backends yield the serial per-node loop lazily,
        in node order.  The shard transport is compiled-only, so an
        explicit ``engine="dict"`` request keeps the serial loop and its
        reference backend.

        Parameters
        ----------
        instance : SamplingInstance
            The conditioned instance to query.
        nodes : sequence of node
            Ball centers.
        radius : int
            Inner ball radius of the Theorem 5.1 computation.
        engine : str, optional
            Evaluation backend (see :mod:`repro.engine`).

        Yields
        ------
        (node, dict)
            ``(center, marginal)`` pairs, in completion order under the
            process backend and node order otherwise; values are
            bit-identical across backends.
        """
        nodes = list(nodes)
        if (
            len(nodes) > 1
            and self.is_distributed
            and resolve_engine(engine) == "compiled"
        ):
            yield from stream_padded_ball_marginals(
                instance,
                nodes,
                radius,
                transport=self._transport(),
            )
            return
        from repro.inference.ssm_inference import padded_ball_marginal

        for node in nodes:
            yield node, padded_ball_marginal(instance, node, radius, engine=engine)

    def stream_ball_marginal_tasks(
        self,
        instance: SamplingInstance,
        tasks: Sequence[Tuple[Node, int]],
        chunk_size: Optional[int] = None,
    ) -> Iterator[Tuple[Tuple[Node, int], Dict[Value, float]]]:
        """Stream Theorem 5.1 marginals for heterogeneous ``(center, radius)`` tasks.

        The multi-radius sibling of :meth:`stream_ball_marginals`, used by
        the overlapped E5 radius sweep
        (:func:`repro.spatialmixing.phase_transition.locality_required`):
        the process backend shards the tasks over its forked workers, the
        cluster backend over its TCP workers, and both yield every arriving
        shard's marginals in completion order; workers return marginals
        only, so the parent's ball cache stays cold.  Serial and batched backends yield the lazy
        in-order loop.  Values are bit-identical across backends.

        Parameters
        ----------
        instance : SamplingInstance
            The conditioned instance to query.
        tasks : sequence of (node, int)
            ``(center, radius)`` pairs; radii may differ between tasks.
        chunk_size : int, optional
            Tasks per dispatched chunk (distributed backends only).

        Yields
        ------
        ((node, int), dict)
            ``((center, radius), marginal)`` pairs.
        """
        tasks = list(tasks)
        if tasks and self.is_distributed:
            yield from stream_ball_marginal_tasks(
                instance,
                tasks,
                chunk_size=chunk_size,
                transport=self._transport(),
            )
            return
        from repro.inference.ssm_inference import padded_ball_marginal

        for center, radius in tasks:
            yield (center, radius), padded_ball_marginal(instance, center, radius)

    def ball_marginals(
        self,
        instance: SamplingInstance,
        nodes: Sequence[Node],
        radius: int,
        engine: Optional[str] = None,
    ) -> Dict[Node, Dict[Value, float]]:
        """Theorem 5.1 padded-ball marginals at many centers (barrier).

        Drains :meth:`stream_ball_marginals` into a per-node dict; see the
        streaming method for the backend semantics.  Callers that can make
        use of partial results should iterate the stream instead.
        """
        return dict(self.stream_ball_marginals(instance, nodes, radius, engine=engine))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = f", addresses={self.addresses!r}" if self.addresses else ""
        return (
            f"Runtime(backend={self.backend!r}, n_chains={self.n_chains}, "
            f"n_workers={self.n_workers}{suffix})"
        )


#: The default runtime: today's serial behaviour.
SERIAL_RUNTIME = Runtime()

#: The shared runtime behind plain ``runtime="cluster"`` requests (lazily
#: created).  Sharing it means string-form callers reuse one coordinator
#: and one set of spawned localhost workers instead of leaking a fresh
#: pool per call; ``shutdown()`` on it is safe -- the next use respawns.
_SHARED_CLUSTER_RUNTIME: Optional[Runtime] = None


def resolve_runtime(runtime: Union[None, str, Runtime] = None) -> Runtime:
    """Normalise a ``runtime=`` argument, rejecting unknown backends.

    Parameters
    ----------
    runtime : None, str or Runtime
        ``None`` means "serial" (the default everywhere), a string selects
        a backend with default parameters, and a :class:`Runtime` passes
        through unchanged.  The string ``"cluster"`` resolves to one shared
        process-wide runtime (which spawns its localhost workers on first
        use); pass an explicit ``Runtime(backend="cluster", addresses=...)``
        to target real worker hosts or to control the lifecycle yourself.

    Returns
    -------
    Runtime
        The resolved execution policy.

    Raises
    ------
    ValueError
        For unknown backend names or other types.
    """
    if runtime is None:
        return SERIAL_RUNTIME
    if isinstance(runtime, Runtime):
        return runtime
    if isinstance(runtime, str):
        if runtime == CLUSTER_BACKEND:
            global _SHARED_CLUSTER_RUNTIME
            if _SHARED_CLUSTER_RUNTIME is None:
                _SHARED_CLUSTER_RUNTIME = Runtime(backend=CLUSTER_BACKEND)
            return _SHARED_CLUSTER_RUNTIME
        return Runtime(backend=runtime)
    raise ValueError(
        f"expected None, a backend name or a Runtime, got {runtime!r}"
    )
