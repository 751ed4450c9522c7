"""The cluster coordinator: task queue, dispatch, heartbeats, requeue.

The coordinator owns one persistent TCP connection per worker (see
:mod:`repro.cluster.worker`) and schedules shard work over them:

* **Dispatch** is least-loaded with a round-robin tie-break: each new
  task goes to the live worker with the fewest in-flight tasks, so a
  straggling worker naturally receives less work while the others drain
  the queue.
* **Spec shipping is lazy and once-per-connection**: a task that needs an
  :class:`~repro.runtime.shards.InstanceSpec` carries the spec id of
  :func:`~repro.runtime.shards.spec_for`; the coordinator sends the
  ``SPEC`` frame to a given worker only the first time that worker is
  handed a task referencing it, and again after a task of that spec ends
  there without a result (the worker may never have restored it).
* **Liveness** combines two signals.  A per-worker reader thread blocks
  on the socket, so a killed worker surfaces immediately as EOF; a
  heartbeat thread additionally pings every worker and declares one dead
  when nothing (echo or result) has been heard for
  ``heartbeat_timeout`` seconds -- catching hung-but-connected workers.
  Workers answer heartbeats from their reader loop even while a long
  task runs, so "busy" is never mistaken for "dead".
* **Requeue**: tasks in flight on a dead worker are re-dispatched to the
  remaining live workers (each task retries at most ``max_attempts``
  times, default one attempt per initially connected worker).  Because
  the task bodies are deterministic functions of the spec, a requeued
  task's result is bit-identical to what the dead worker would have
  produced, so consumers never observe the failure.  A ``RESULT`` frame
  for a task that has already been completed, cancelled or requeued is
  dropped -- results are adopted by task id, in whatever order they
  arrive.

Cancellation reaches the workers: abandoning a stream (or cancelling a
future) removes the tasks coordinator-side *and* sends each affected
worker a ``cancel`` directive, so queued speculative work -- e.g. the
radii past the answer in the E5 sweep -- is skipped rather than ground to
completion.  A coordinator dropped without :meth:`shutdown` stays
garbage-collectable (its service threads hold only weak references) and a
finalizer closes its sockets.

The coordinator is a transport, not a scheduler: the front ends of
:mod:`repro.runtime.shards` (``stream_ball_marginal_tasks``,
``run_chain_blocks``) take it as their ``transport=`` and do the
chunking and the failure naming, submitting each chunk through
:meth:`submit_task` and cancelling abandoned ones through
:meth:`_discard`; the process backend's forked workers are driven by a
coordinator too, over socket pairs.  A failed task raises the body's own
exception; transport failures raise :class:`ClusterError`.  Shutting the
coordinator down cancels everything and closes the sockets, idempotently.
"""

from __future__ import annotations

import itertools
import logging
import random
import socket
import struct
import threading
import time
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import CancelledError, Future, InvalidStateError
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster import protocol
from repro.runtime.shards import cache_spec

_log = obs.get_logger("cluster.coordinator")

Address = Tuple[str, int]


class ClusterError(RuntimeError):
    """A cluster-level failure: no live workers, task exhausted retries, ..."""


def _close_worker_sockets(workers) -> None:
    """Finalizer body: close every connection of a collected coordinator."""
    for worker in workers:
        worker.alive = False
        worker.close()


def _reader_thread(coordinator_ref, worker) -> None:
    """Receive frames from one worker until its connection dies.

    Holds only a weak reference to the coordinator between frames, so an
    abandoned coordinator stays garbage-collectable; its finalizer closes
    the sockets, which wakes this thread out of ``recv`` to exit.
    """
    def touch() -> None:
        # Per-chunk progress refresh: a large RESULT frame streaming in for
        # longer than the heartbeat timeout is liveness, not silence.
        worker.last_seen = time.monotonic()

    while True:
        try:
            kind, payload = protocol.recv_message(
                worker.sock, on_data=touch, key=worker.key
            )
        except (protocol.ProtocolError, OSError) as error:
            coordinator = coordinator_ref()
            if coordinator is not None:
                coordinator._worker_died(worker, error)
            else:
                worker.close()
            return
        worker.last_seen = time.monotonic()
        coordinator = coordinator_ref()
        if coordinator is None:
            worker.close()
            return
        if not coordinator._handle_frame(worker, kind, payload):
            return
        del coordinator  # do not pin the coordinator across the next recv


def _heartbeat_thread(coordinator_ref, interval: float) -> None:
    """Ping workers until the coordinator is closed or collected."""
    while True:
        time.sleep(interval)
        coordinator = coordinator_ref()
        if coordinator is None or not coordinator._heartbeat_tick():
            return
        del coordinator


def _reconnect_thread(coordinator_ref, address: Address, seed: int) -> None:
    """Re-dial a dead worker's address with capped exponential backoff.

    One daemon thread per dead address; each attempt waits
    ``min(base * 2^k, cap)`` seconds, jittered +/-50% (full-jitter style,
    seeded per address so tests are reproducible), then tries a fresh TCP
    connect + handshake.  Success re-registers the address as a live
    worker (empty spec mirror -- specs re-ship lazily on the next task
    that needs them) and exits; a closed or collected coordinator also
    exits.  Holds only a weak reference between attempts, like the other
    service threads.
    """
    rng = random.Random(seed)
    delay = _RECONNECT_BASE_DELAY
    while True:
        time.sleep(delay * (0.5 + rng.random()))
        delay = min(delay * 2.0, _RECONNECT_MAX_DELAY)
        coordinator = coordinator_ref()
        if coordinator is None or coordinator._closed:
            return
        try:
            if coordinator._readmit(address):
                return
        except Exception as error:
            # Connect refused / handshake failed: back off and retry.
            obs.log_event(
                _log, logging.DEBUG, "cluster.reconnect_attempt_failed",
                address=f"{address[0]}:{address[1]}", error=error,
            )
        del coordinator


#: First reconnect attempt fires after ~this many (jittered) seconds.
_RECONNECT_BASE_DELAY = 0.05
#: Backoff ceiling between reconnect attempts to one dead address.
_RECONNECT_MAX_DELAY = 5.0


def parse_address(address) -> Address:
    """Normalise an address given as ``(host, port)`` or ``"host:port"``."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"expected 'host:port', got {address!r}")
        return host, int(port)
    host, port = address
    return str(host), int(port)


class _Worker:
    """Coordinator-side state of one worker connection."""

    __slots__ = (
        "address",
        "sock",
        "send_lock",
        "inflight",
        "specs",
        "alive",
        "last_seen",
        "reader",
        "capacity",
        "key",
        "reconnecting",
        "last_rtt",
    )

    def __init__(
        self,
        address: Address,
        sock: socket.socket,
        capacity: int = 1,
        key: Optional[bytes] = None,
    ) -> None:
        self.address = address
        self.sock = sock
        self.send_lock = threading.Lock()
        #: ``{task_id: _Task}`` currently dispatched to this worker.
        self.inflight: Dict[int, "_Task"] = {}
        #: Spec ids shipped on this connection, mirroring the worker's FIFO
        #: cache (same insertion order, same ``cache_spec`` rule): only the
        #: coordinator sends SPEC frames on the connection, so replaying the
        #: worker's deterministic eviction here tells us exactly when a spec
        #: must be re-shipped; ``False`` marks one it may lack.
        self.specs: "OrderedDict[int, bool]" = OrderedDict()
        self.alive = True
        self.last_seen = time.monotonic()
        self.reader: Optional[threading.Thread] = None
        #: Relative dispatch weight the worker announced in its HELLO.
        self.capacity = max(1, int(capacity))
        self.key = key
        #: A reconnect thread is already backing off toward this address.
        self.reconnecting = False
        #: Seconds the worker's latest heartbeat echo took round-trip.
        self.last_rtt: Optional[float] = None

    def load(self) -> float:
        """Capacity-normalised load for least-loaded dispatch."""
        return len(self.inflight) / self.capacity

    def send(self, kind: int, payload) -> None:
        with self.send_lock:
            protocol.send_message(self.sock, kind, payload, key=self.key)

    def try_send(self, kind: int, payload, timeout: float) -> bool:
        """Send unless the lock is busy (another thread mid-send).

        Used by the heartbeat loop so a long-running send on one worker
        cannot stall liveness checks for the whole cluster; a busy lock
        means traffic is flowing, which is itself a liveness signal.
        """
        if not self.send_lock.acquire(timeout=timeout):
            return False
        try:
            protocol.send_message(self.sock, kind, payload, key=self.key)
        finally:
            self.send_lock.release()
        return True

    def send_task(self, task: "_Task", lock) -> None:
        """Send ``task``, after its SPEC unless the mirror holds it, under
        one send-lock hold: no other SPEC can land between the two frames,
        and the worker caches specs in the mirror's order."""
        with self.send_lock:
            with lock:
                needs_spec = task.spec is not None and not self.specs.get(task.spec[0])
            if needs_spec:
                protocol.send_message(self.sock, protocol.SPEC, task.spec, key=self.key)
                with lock:
                    cache_spec(self.specs, task.spec[0], True)
            protocol.send_message(
                self.sock, protocol.TASK, (task.task_id, task.kind, task.args), key=self.key
            )

    def forget_spec(self, task: "_Task") -> None:
        """Mark ``task``'s spec unheld (lock held): a task ended here without
        a result, so the worker may have read its SPEC only after the call
        unlinked the segment.  The id keeps its FIFO place, as it does there."""
        if task.spec is not None and task.spec[0] in self.specs:
            self.specs[task.spec[0]] = False

    def close(self) -> None:
        # shutdown() before close(): our own reader thread may be blocked in
        # recv() on this socket, and on Linux a plain close() then leaves the
        # in-flight syscall pinning the connection open -- no FIN ever
        # reaches the worker, which (serving one connection at a time) would
        # never return to accept().  shutdown() tears the connection down
        # immediately and wakes the blocked recv with EOF on both ends.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _Task:
    """One unit of work, movable between workers until it resolves."""

    __slots__ = ("task_id", "kind", "args", "spec", "future", "attempts")

    def __init__(self, task_id: int, kind: str, args, spec) -> None:
        self.task_id = task_id
        self.kind = kind
        self.args = args
        #: ``(spec_id, InstanceSpec)`` or ``None`` for spec-free tasks.
        self.spec = spec
        self.future: Future = Future()
        self.attempts = 0


class ClusterCoordinator:
    """Schedule shard work over a set of worker connections.

    Parameters
    ----------
    addresses : sequence
        Worker addresses, each ``(host, port)`` or ``"host:port"``, or a
        connected socket to a worker loop (named ``pid:<pid>``, never
        re-dialled), as the process backend's forked workers are.
    connect_timeout : float
        Seconds to wait for each TCP connect + handshake.
    heartbeat_interval : float
        Seconds between heartbeat pings.
    heartbeat_timeout : float
        Declare a worker dead after this many silent seconds.
    max_attempts : int, optional
        Dispatch attempts per task before it fails with
        :class:`ClusterError` (default: one per connected worker, so a
        task is never bounced around a fully dying cluster forever).
    auth_key : str or bytes, optional
        Shared HMAC-SHA256 secret; frames are then authenticated both
        ways and keyless workers rejected during the handshake.  Defaults
        to :data:`protocol.AUTH_KEY_ENV` from the environment.
    reconnect : bool
        When true (the default), a dead worker's address is re-dialled in
        the background with capped exponential backoff + jitter; a worker
        process that restarts rejoins the cluster automatically, with its
        spec re-shipped lazily.
    degrade : str
        ``"raise"`` (default): losing every worker fails outstanding
        tasks with :class:`ClusterError`.  ``"local"``: tasks that find
        no live worker run *in this process* instead (same registered
        task bodies, hence bit-identical results), with a single
        :class:`RuntimeWarning` -- degraded service beats no service for
        long sweeps.
    """

    def __init__(
        self,
        addresses: Sequence,
        connect_timeout: float = 10.0,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 30.0,
        max_attempts: Optional[int] = None,
        auth_key=None,
        reconnect: bool = True,
        degrade: str = "raise",
    ) -> None:
        parsed = [
            address if isinstance(address, socket.socket) else parse_address(address)
            for address in addresses
        ]
        if not parsed:
            raise ValueError("a cluster needs at least one worker address")
        if degrade not in ("raise", "local"):
            raise ValueError(
                f'degrade must be "raise" or "local", got {degrade!r}'
            )
        self._key = (
            protocol.normalize_auth_key(auth_key)
            if auth_key is not None
            else protocol.auth_key_from_env()
        )
        self.reconnect = bool(reconnect)
        self.degrade = degrade
        self._degraded_warned = False
        self._connect_timeout = float(connect_timeout)
        self._lock = threading.RLock()
        self._closed = False
        self._task_ids = itertools.count()
        self._rotation = itertools.count()
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        #: Number of task re-dispatches caused by worker death (observability
        #: hook; the worker-failure tests assert it moved).
        self.requeued = 0
        #: Tasks absorbed in-process because no worker was live.
        self.degraded_tasks = 0
        self.workers: List[_Worker] = []
        try:
            for address in parsed:
                self.workers.append(self._connect(address, connect_timeout))
        except BaseException:
            for worker in self.workers:
                worker.close()
            raise
        self.max_attempts = (
            int(max_attempts) if max_attempts is not None else max(2, len(parsed))
        )
        # The service threads hold only a weak reference to the coordinator:
        # a coordinator dropped without shutdown() must stay collectable, at
        # which point the finalizer closes the sockets, the blocked reader
        # threads wake with OSError, find their referent gone, and exit.
        self._self_ref = weakref.ref(self)
        self._finalizer = weakref.finalize(
            self, _close_worker_sockets, self.workers
        )
        for worker in self.workers:
            worker.reader = threading.Thread(
                target=_reader_thread, args=(self._self_ref, worker), daemon=True
            )
            worker.reader.start()
        self._heartbeat = threading.Thread(
            target=_heartbeat_thread,
            args=(self._self_ref, self.heartbeat_interval),
            daemon=True,
        )
        self._heartbeat.start()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connect(self, address, timeout: float) -> _Worker:
        key = self._key
        if isinstance(address, socket.socket):
            sock = address
        else:
            sock = socket.create_connection(address, timeout=timeout)
            protocol.set_nodelay(sock)
        sock.settimeout(timeout)
        try:
            protocol.send_message(
                sock,
                protocol.HELLO,
                protocol.hello_payload("coordinator", auth=key is not None),
                key=key,
            )
            # A keyed recv rejects a keyless worker's plaintext ERROR reply
            # without unpickling it (AuthenticationError with the mismatch
            # attributed); a keyless recv surfaces a keyed worker's
            # rejection as the ERROR branch below.
            kind, payload = protocol.recv_message(sock, key=key)
            if kind == protocol.ERROR:
                raise protocol.ProtocolError(f"worker rejected handshake: {payload}")
            if kind != protocol.HELLO:
                raise protocol.ProtocolError(
                    f"expected HELLO, got {protocol.MESSAGE_NAMES[kind]}"
                )
            protocol.check_hello(payload, expected_role="worker", auth=key is not None)
            capacity = int(payload.get("capacity", 1) or 1)
        except BaseException:
            sock.close()
            raise
        if isinstance(address, socket.socket):
            address = ("pid", int(payload.get("pid", 0)))
        sock.settimeout(None)  # reader threads block indefinitely
        # Sends, however, must not: a hung worker that stops draining its
        # socket would otherwise block `sendall` forever (holding the
        # worker's send lock and with it the whole dispatch/heartbeat
        # machinery).  SO_SNDTIMEO bounds only the send side; a timed-out
        # send surfaces as OSError and the worker is declared dead.
        try:
            seconds = int(self.heartbeat_timeout)
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_SNDTIMEO,
                struct.pack("ll", seconds, 0),
            )
        except (OSError, struct.error):  # pragma: no cover - exotic platforms
            pass
        return _Worker(address, sock, capacity=capacity, key=key)

    def _handle_frame(self, worker: _Worker, kind: int, payload) -> bool:
        """Process one received frame; ``False`` once the worker is dead."""
        if kind == protocol.RESULT:
            # ``events`` is None unless the task carried a trace context.
            task_id, result, events = payload
            if events is not None:
                obs.absorb_events(events)
            task = self._take_inflight(worker, task_id)
            if task is not None:
                self._resolve(task, result=result)
            return True
        if kind == protocol.ERROR:
            task_id, error = payload
            if task_id is None:
                self._worker_died(
                    worker, protocol.ProtocolError(f"worker error: {error}")
                )
                return False
            task = self._take_inflight(worker, task_id)
            if task is not None:
                with self._lock:
                    worker.forget_spec(task)
                if not isinstance(error, Exception):
                    error = ClusterError(f"worker task failed: {error}")
                self._resolve(task, error=error)
            return True
        if kind == protocol.HEARTBEAT:
            # The worker echoes our monotonic send stamp back verbatim, so
            # the difference is this connection's round-trip time.
            if isinstance(payload, float):
                rtt = time.monotonic() - payload
                if rtt >= 0.0:
                    worker.last_rtt = rtt
                    handle = obs.active()
                    if handle is not None:
                        handle.metrics.histogram(
                            "cluster.heartbeat_rtt_seconds"
                        ).observe(rtt)
            return True  # last_seen already refreshed
        self._worker_died(
            worker,
            protocol.ProtocolError(f"unexpected {protocol.MESSAGE_NAMES[kind]} frame"),
        )
        return False

    def _heartbeat_tick(self) -> bool:
        """One heartbeat round; ``False`` once the coordinator is closed."""
        with self._lock:
            if self._closed:
                return False
            workers = [worker for worker in self.workers if worker.alive]
        now = time.monotonic()
        for worker in workers:
            if now - worker.last_seen > self.heartbeat_timeout:
                self._worker_died(
                    worker,
                    ClusterError(
                        f"no traffic for {self.heartbeat_timeout:.0f}s "
                        "(heartbeat timeout)"
                    ),
                )
                continue
            try:
                # A busy send lock is itself a liveness signal; never
                # stall the shared heartbeat loop behind one worker.
                worker.try_send(protocol.HEARTBEAT, now, timeout=0.1)
            except OSError as error:
                self._worker_died(worker, error)
        return True

    def _take_inflight(self, worker: _Worker, task_id: int) -> Optional["_Task"]:
        """Pop a task from a worker's in-flight map; ``None`` if it moved on.

        A ``None`` means the task was cancelled, requeued elsewhere or
        already resolved -- the frame is a late arrival and is dropped.
        """
        with self._lock:
            return worker.inflight.pop(task_id, None)

    @staticmethod
    def _resolve(task: "_Task", result=None, error: Optional[Exception] = None) -> None:
        """Complete a task's future, tolerating cancelled/duplicate arrivals."""
        try:
            if not task.future.set_running_or_notify_cancel():
                return  # the consumer cancelled the task; drop the result
            if error is not None:
                task.future.set_exception(error)
            else:
                task.future.set_result(result)
        except InvalidStateError:
            # A duplicate arrival (e.g. a task that raced dispatch-retry and
            # death-requeue) already resolved the future; dropping the copy
            # is correct -- results are equal by construction -- and a reader
            # thread must never die over it.
            pass

    def _worker_died(self, worker: _Worker, reason: Exception) -> None:
        """Mark a worker dead and requeue its in-flight tasks elsewhere."""
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            orphans = list(worker.inflight.values())
            worker.inflight.clear()
            spawn_reconnect = (
                self.reconnect and not self._closed and not worker.reconnecting
            )
            if spawn_reconnect:
                worker.reconnecting = True
        worker.close()
        obs.log_event(
            _log, logging.WARNING, "cluster.worker_died",
            address=f"{worker.address[0]}:{worker.address[1]}",
            reason=reason, orphaned_tasks=len(orphans),
            reconnecting=spawn_reconnect,
        )
        obs.instant(
            "cluster.worker_died",
            address=f"{worker.address[0]}:{worker.address[1]}",
            reason=str(reason), orphaned_tasks=len(orphans),
        )
        if spawn_reconnect:
            # Self-healing: keep trying the address in the background (capped
            # exponential backoff + jitter); a restarted worker process
            # rejoins with a fresh connection and an empty spec mirror.
            threading.Thread(
                target=_reconnect_thread,
                args=(self._self_ref, worker.address, int(worker.address[1])),
                daemon=True,
            ).start()
        if orphans and not self._closed:
            with self._lock:
                self.requeued += len(orphans)
            for task in orphans:
                try:
                    self._dispatch(task)
                except ClusterError as error:
                    self._resolve(
                        task,
                        error=ClusterError(
                            f"worker {worker.address} died ({reason}) and the "
                            f"task could not be requeued: {error}"
                        ),
                    )
        elif orphans:
            for task in orphans:
                task.future.cancel()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _pick_worker(self) -> _Worker:
        """Least-loaded live worker, round-robin among ties (lock held).

        Load is capacity-normalised (:meth:`_Worker.load`): a capacity-2
        worker with two tasks in flight ties a capacity-1 worker with one,
        so announced weights translate directly into dispatch share.
        """
        live = [worker for worker in self.workers if worker.alive]
        if not live:
            raise ClusterError("no live cluster workers")
        rotation = next(self._rotation)
        return min(
            (live[(rotation + offset) % len(live)] for offset in range(len(live))),
            key=_Worker.load,
        )

    def _dispatch(self, task: "_Task") -> None:
        """Assign a task to a worker and put its frames on the wire.

        Retries transparently over the remaining live workers when a send
        fails (the send failure marks that worker dead, which requeues
        whatever else it was running).  With ``degrade="local"``, a task
        that finds no live worker at all runs in-process instead (same
        registered body, bit-identical result) and its future resolves
        immediately.
        """
        while True:
            with self._lock:
                if self._closed:
                    raise ClusterError("the coordinator is shut down")
                if task.attempts >= self.max_attempts:
                    raise ClusterError(
                        f"task {task.task_id} ({task.kind}) exhausted "
                        f"{self.max_attempts} dispatch attempts"
                    )
                try:
                    worker = self._pick_worker()
                except ClusterError:
                    if self.degrade != "local":
                        raise
                    worker = None
                if worker is not None:
                    task.attempts += 1
                    worker.inflight[task.task_id] = task
            if worker is None:
                self._run_degraded(task)
                return
            try:
                worker.send_task(task, self._lock)
                handle = obs.active()
                if handle is not None:
                    handle.metrics.counter("cluster.tasks_dispatched").inc()
                    with self._lock:
                        inflight = sum(
                            len(peer.inflight)
                            for peer in self.workers
                            if peer.alive
                        )
                    handle.metrics.gauge("cluster.tasks_inflight").set(inflight)
                    obs.instant(
                        "cluster.dispatch",
                        task_id=task.task_id, kind=task.kind,
                        worker=f"{worker.address[0]}:{worker.address[1]}",
                        attempt=task.attempts,
                    )
                return
            except OSError as error:
                # Reclaim the task before declaring the worker dead.  If the
                # pop comes back empty, the reader thread's death path beat
                # us to it and now owns the requeue -- retrying here too
                # would dispatch the task twice.
                with self._lock:
                    owner = worker.inflight.pop(task.task_id, None)
                self._worker_died(worker, error)
                if owner is None:
                    return
            except BaseException:
                # E.g. an unpicklable or oversized payload (ProtocolError):
                # send_message pickles and validates *before* the first
                # byte touches the socket, so the worker is fine -- reclaim
                # the task and surface the error to the caller instead of
                # cascading a payload problem into worker deaths.
                with self._lock:
                    worker.inflight.pop(task.task_id, None)
                raise

    def _run_degraded(self, task: "_Task") -> None:
        """Run a task in-process because no worker is live (``degrade="local"``).

        The body comes from the same :data:`~repro.runtime.shards.TASK_REGISTRY`
        the workers use (via :func:`repro.runtime.shards.run_task`), so the
        result is bit-identical to what a worker would have returned -- the
        cluster degrades to the serial backend, it does not change answers.
        """
        from repro.runtime.shards import run_task

        warn = False
        with self._lock:
            self.degraded_tasks += 1
            if not self._degraded_warned:
                self._degraded_warned = True
                warn = True
            dead = sorted(
                f"{worker.address[0]}:{worker.address[1]}"
                for worker in self.workers
                if not worker.alive
            )
            requeued = self.requeued
        if warn:
            warnings.warn(
                "every cluster worker is unreachable "
                f"(dead: {', '.join(dead) or 'none registered'}; "
                f"{requeued} in-flight task(s) absorbed by requeue so far); "
                "degrade='local' is running tasks in-process (results stay "
                "bit-identical, throughput does not)",
                RuntimeWarning,
                stacklevel=4,
            )
            obs.log_event(
                _log, logging.WARNING, "cluster.degraded",
                dead_workers=",".join(dead), requeued=requeued,
            )
            obs.instant("cluster.degraded", dead_workers=dead, requeued=requeued)
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter("cluster.tasks_degraded").inc()
        try:
            result = run_task(
                task.kind,
                task.args,
                spec=task.spec[1] if task.spec is not None else None,
            )
        except Exception as error:
            self._resolve(task, error=error)
        else:
            self._resolve(task, result=result)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _register_worker(self, worker: _Worker) -> None:
        """Attach a freshly connected worker: list entry + reader thread.

        Replaces a dead entry for the same address in-place when there is
        one (keeping ``self.workers`` -- the list object the socket
        finalizer holds -- bounded across arbitrarily many reconnects);
        otherwise appends.
        """
        with self._lock:
            if self._closed:
                worker.close()
                return
            rejoined = False
            for index, existing in enumerate(self.workers):
                if existing.address == worker.address and not existing.alive:
                    self.workers[index] = worker
                    rejoined = True
                    break
            else:
                self.workers.append(worker)
        worker.reader = threading.Thread(
            target=_reader_thread, args=(self._self_ref, worker), daemon=True
        )
        worker.reader.start()
        obs.log_event(
            _log, logging.INFO,
            "cluster.worker_rejoined" if rejoined else "cluster.worker_joined",
            address=f"{worker.address[0]}:{worker.address[1]}",
            capacity=worker.capacity,
        )
        obs.instant(
            "cluster.worker_rejoined" if rejoined else "cluster.worker_joined",
            address=f"{worker.address[0]}:{worker.address[1]}",
        )

    def _readmit(self, address: Address) -> bool:
        """Reconnect-thread body: one attempt to revive a dead address."""
        with self._lock:
            if self._closed:
                return True  # stop retrying either way
            for existing in self.workers:
                if existing.address == address and existing.alive:
                    return True  # someone else already revived it
        worker = self._connect(address, self._connect_timeout)
        self._register_worker(worker)
        self._rebalance(worker)
        return True

    def add_worker(self, address, connect_timeout: Optional[float] = None) -> None:
        """Admit a new worker mid-stream and grant it a share of the queue.

        Connects, handshakes (auth and version checked like any other
        worker), ships nothing up front -- the cached
        :class:`~repro.runtime.shards.InstanceSpec` travels lazily with
        the first task that needs it -- and rebalances: queued tasks are
        stolen from the most loaded workers and re-dispatched, so a
        late-joining worker starts pulling weight immediately instead of
        waiting for the current wave to drain.
        """
        worker = self._connect(
            parse_address(address),
            self._connect_timeout if connect_timeout is None else connect_timeout,
        )
        self._register_worker(worker)
        self._rebalance(worker)

    def _rebalance(self, newcomer: _Worker) -> None:
        """Steal queued work for a newly admitted worker.

        Takes the *most recently dispatched* in-flight tasks (those
        likeliest still sitting in the old worker's queue rather than
        executing) from workers above the post-join fair share, sends the
        old owners a ``cancel`` directive, and re-dispatches.  A task that
        had already started executing runs twice; that is safe -- bodies
        are pure functions of the spec, duplicates are equal, and the
        late RESULT's task id is no longer in the old worker's in-flight
        map, so it is dropped on arrival.
        """
        stolen: List["_Task"] = []
        notify: Dict[_Worker, List[int]] = {}
        with self._lock:
            live = [worker for worker in self.workers if worker.alive]
            total = sum(len(worker.inflight) for worker in live)
            capacity = sum(worker.capacity for worker in live) or 1
            for worker in live:
                if worker is newcomer:
                    continue
                fair = -(-total * worker.capacity // capacity)  # ceil share
                surplus = len(worker.inflight) - fair
                for task_id in list(worker.inflight)[::-1][:max(0, surplus)]:
                    task = worker.inflight.pop(task_id)
                    stolen.append(task)
                    notify.setdefault(worker, []).append(task_id)
        if stolen:
            obs.log_event(
                _log, logging.INFO, "cluster.rebalance",
                newcomer=f"{newcomer.address[0]}:{newcomer.address[1]}",
                stolen=len(stolen),
            )
            obs.instant(
                "cluster.rebalance",
                newcomer=f"{newcomer.address[0]}:{newcomer.address[1]}",
                stolen=len(stolen),
            )
        for worker, task_ids in notify.items():
            try:
                worker.send(protocol.TASK, (None, "cancel", task_ids))
            except (OSError, protocol.ProtocolError) as error:
                # Its reader will notice the dead connection itself.
                obs.log_event(
                    _log, logging.DEBUG, "cluster.cancel_notify_failed",
                    address=f"{worker.address[0]}:{worker.address[1]}",
                    error=error,
                )
        for task in stolen:
            try:
                self._dispatch(task)
            except ClusterError as error:
                self._resolve(
                    task,
                    error=ClusterError(
                        f"task could not be re-dispatched while rebalancing: {error}"
                    ),
                )

    def submit_task(self, kind: str, args, spec=None) -> Future:
        """Schedule one task; the returned future resolves to its result.

        ``spec`` is a ``(spec_id, InstanceSpec)`` pair for spec-bound task
        kinds; it is shipped to each worker at most once.

        When tracing is on and ``args`` is a keyword dict (every spec-bound
        kind), the current trace context rides along as a versioned
        ``_obs`` entry inside the pickled payload -- covered by the frame
        HMAC when authentication is on, ignored by workers that predate
        it.
        """
        if spec is not None and isinstance(args, dict) and "_obs" not in args:
            wire_ctx = obs.wire_context()
            if wire_ctx is not None:
                args = dict(args)
                args["_obs"] = wire_ctx
        task = _Task(next(self._task_ids), kind, args, spec)
        self._dispatch(task)
        return task.future

    def _discard(self, futures: Iterable[Future]) -> None:
        """Cancel pending futures, worker-side included.

        The tail of every streaming generator: pending tasks are cancelled
        coordinator-side (results already on the wire are dropped on
        arrival -- their task id leaves the in-flight maps here) and each
        worker is sent a best-effort ``cancel`` directive so tasks still
        sitting in its queue are skipped instead of ground to completion.
        """
        pending = {id(future) for future in futures if future.cancel()}
        if not pending:
            return
        reclaimed: Dict[_Worker, List[int]] = {}
        with self._lock:
            for worker in self.workers:
                for task_id, task in list(worker.inflight.items()):
                    if id(task.future) in pending:
                        worker.inflight.pop(task_id, None)
                        worker.forget_spec(task)
                        reclaimed.setdefault(worker, []).append(task_id)
        for worker, task_ids in reclaimed.items():
            if not worker.alive:
                continue
            try:
                worker.send(protocol.TASK, (None, "cancel", task_ids))
            except (OSError, protocol.ProtocolError) as error:
                # The reader will notice the dead connection itself.
                obs.log_event(
                    _log, logging.DEBUG, "cluster.cancel_notify_failed",
                    address=f"{worker.address[0]}:{worker.address[1]}",
                    error=error,
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def live_worker_count(self) -> int:
        with self._lock:
            return sum(1 for worker in self.workers if worker.alive)

    def spec_held(self, spec_id: int) -> bool:
        """Whether some worker is live and every live worker's mirror holds
        ``spec_id``, so a task of that spec sends no ``SPEC`` frame now."""
        with self._lock:
            live = [worker for worker in self.workers if worker.alive]
            return bool(live) and all(worker.specs.get(spec_id) for worker in live)

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time cluster state for :meth:`repro.runtime.Runtime.snapshot`."""
        with self._lock:
            workers = [
                {
                    "address": f"{worker.address[0]}:{worker.address[1]}",
                    "alive": worker.alive,
                    "capacity": worker.capacity,
                    "inflight": len(worker.inflight),
                    "specs_cached": sum(worker.specs.values()),
                    "last_rtt": worker.last_rtt,
                }
                for worker in self.workers
            ]
            return {
                "workers": workers,
                "live_workers": sum(1 for entry in workers if entry["alive"]),
                "queue_depth": sum(entry["inflight"] for entry in workers),
                "requeued": self.requeued,
                "degraded_tasks": self.degraded_tasks,
                "degrade": self.degrade,
                "authenticated": self._key is not None,
            }

    def shutdown(self) -> None:
        """Close every connection and cancel outstanding work (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self.workers)
        for worker in workers:
            with self._lock:
                worker.alive = False
                orphans = list(worker.inflight.values())
                worker.inflight.clear()
            for task in orphans:
                if not task.future.cancel():
                    # Already running per future protocol; leave resolved ones be.
                    if not task.future.done():  # pragma: no cover - defensive
                        task.future.set_exception(CancelledError())
            worker.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
