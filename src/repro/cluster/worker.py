"""``repro-cluster-worker``: serve shard work to a cluster coordinator.

A worker is a TCP server speaking the framed-pickle protocol of
:mod:`repro.cluster.protocol`.  It serves one coordinator connection at a
time (the coordinator holds one persistent connection per worker) and
splits each connection across two threads:

* the *reader* loop receives frames and stays responsive no matter how
  long a task runs -- it caches ``SPEC`` payloads, enqueues ``TASK``
  frames, and echoes ``HEARTBEAT`` frames immediately (which is what lets
  the coordinator distinguish "busy on a long task" from "dead");
* the *runner* thread executes queued tasks one at a time, in arrival
  order, and sends back ``RESULT`` or ``ERROR`` frames.  A failed task's
  ``ERROR`` carries the body's own exception (the worker traceback in a
  note) when it pickles, and its text otherwise.

The process backend's forked workers run the same connection loop,
:func:`serve_connection`, on socket pairs
(:class:`~repro.runtime.shards.ForkedWorkers`).  Every task runs through
:func:`~repro.runtime.shards.run_task`, which resolves spec-bound kinds in
the :data:`~repro.runtime.shards.TASK_REGISTRY` of
:mod:`repro.runtime.shards` -- the same bodies the in-process path calls
-- so cluster results are bit-identical to both the process backend and
the serial loop.  A spec crosses the wire at most once per connection
and spec id -- one id per instance and compiled engine
(:func:`~repro.runtime.shards.spec_for`), so a distribution reweighted in
place arrives as a new spec -- and the ball cache of its reconstruction
stays warm across tasks and calls, up to the FIFO limit of
:func:`~repro.runtime.shards.cache_spec`.

Task kinds
----------

``ball_marginals``
    ``{"spec_id", "tasks"}`` -> ``{(center, radius): marginal}``, the
    marginals only; the compiled balls stay warm in this worker's spec
    cache.
``chain_block``
    ``{"spec_id", "kernel", "count", "seeds", "initial"}`` -> the final
    ``(chains, n)`` code matrix of a batched block of chains of any
    registered :class:`~repro.sampling.kernels.ChainKernel` (``count``
    units each), run on the instance reconstructed from the spec
    (:meth:`~repro.runtime.shards.InstanceSpec.to_instance`).
``ping``
    Echoes its payload; used for smoke tests and latency probes.
``cancel``
    ``[task_id, ...]`` -- handled by the *reader* loop (never queued):
    marks queued tasks as cancelled so the runner skips them without a
    reply.  This is how an abandoned coordinator stream stops speculative
    work (e.g. the radii past the answer in the E5 sweep) instead of
    letting it grind to completion.

Run a worker from the command line (also installed as the
``repro-cluster-worker`` console script)::

    python -m repro.cluster --host 127.0.0.1 --port 9000

``--port 0`` binds an ephemeral port; the chosen address is printed as
the first line of stdout, which is how
:func:`repro.cluster.local.spawn_workers` discovers its subprocesses.

``--auth-key`` (or the :data:`repro.cluster.protocol.AUTH_KEY_ENV`
environment variable) arms HMAC-SHA256 frame authentication: keyless or
wrong-key coordinators are rejected with a clean ERROR before any payload
is unpickled.  ``--capacity N`` announces a relative dispatch weight, so
a beefy host can take N times the in-flight tasks of a capacity-1 worker.
A JSON :class:`repro.cluster.chaos.FaultPlan` in the
:data:`repro.cluster.chaos.CHAOS_ENV` environment variable arms
deterministic fault injection (crash after N tasks, stalled heartbeats,
dropped/corrupted frames) -- test harness only.
"""

from __future__ import annotations

import argparse
import logging
import os
import pickle
import queue
import socket
import threading
import traceback
from collections import OrderedDict
from typing import Optional, Tuple

from repro import obs
from repro.cluster import chaos, protocol
from repro.runtime.shards import SPEC_CACHE_LIMIT, InstanceSpec, cache_spec, run_task

_log = obs.get_logger("cluster.worker")

__all__ = ["SPEC_CACHE_LIMIT", "ClusterWorker", "main", "run_task", "serve_connection"]

#: Reset the cancelled-task-id set past this size.  Ids of tasks that had
#: already executed when their cancel directive arrived accumulate here;
#: clearing is harmless (an un-cancelled task just runs and its RESULT is
#: dropped by the coordinator, which no longer tracks the id).
CANCEL_BACKLOG_LIMIT = 65536

#: Sentinel pushed on the task queue to stop the runner thread.
_STOP = object()

#: Cap on the textual error report shipped in an ERROR frame: an exception
#: whose repr embeds a large payload (e.g. a chain block's full argument
#: dict) must never make the failure report itself megabytes on the wire.
_ERROR_TEXT_LIMIT = 64 * 1024


def _error_text(error, with_traceback: bool = False) -> str:
    """A bounded textual error report that always frames cheaply."""
    message = f"{error}\n{traceback.format_exc()}" if with_traceback else str(error)
    if len(message) > _ERROR_TEXT_LIMIT:
        message = message[:_ERROR_TEXT_LIMIT] + "... [error report truncated]"
    return message


def _enable_keepalive(
    connection: socket.socket, idle: int = 60, interval: int = 10, probes: int = 5
) -> None:
    """Arm TCP keepalive so a silently vanished coordinator frees the worker.

    Heartbeats flow coordinator -> worker only, so a coordinator host that
    dies without FIN/RST (power loss, network partition) would otherwise
    leave the single-connection worker blocked in ``recv`` forever and
    unable to serve a replacement coordinator.  With these settings the
    kernel tears the dead connection down after roughly
    ``idle + interval * probes`` seconds of silence.
    """
    try:
        connection.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, idle)
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, interval)
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPCNT, probes)
    except (OSError, AttributeError):  # pragma: no cover - exotic platforms
        pass


class ClusterWorker:
    """A single-connection worker server bound to ``(host, port)``.

    Parameters
    ----------
    host : str
        Interface to bind; default loopback (bind non-loopback interfaces
        only on trusted networks -- the transport pickles).
    port : int
        TCP port; ``0`` picks an ephemeral port (read :attr:`address`).
    auth_key : str or bytes, optional
        Shared HMAC secret; every frame is then authenticated and
        unauthenticated coordinators are rejected with a readable
        plaintext ERROR.  Defaults to :data:`protocol.AUTH_KEY_ENV` from
        the environment (unset/empty means no authentication).  The key
        gates remote code execution -- share it only among mutually
        trusting hosts.
    capacity : int
        Relative dispatch weight announced in the HELLO handshake: a
        capacity-2 worker is offered twice the in-flight tasks of a
        capacity-1 worker by the coordinator's least-loaded policy.
    fault_plan : repro.cluster.chaos.FaultPlan, optional
        Deterministic fault injection (tests only): arms the outgoing
        frame hooks, heartbeat stalling and kill-after-N-tasks.  Defaults
        to :data:`chaos.CHAOS_ENV` from the environment.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_key=None,
        capacity: int = 1,
        fault_plan: Optional[chaos.FaultPlan] = None,
    ) -> None:
        self._key = (
            protocol.normalize_auth_key(auth_key)
            if auth_key is not None
            else protocol.auth_key_from_env()
        )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        if fault_plan is None:
            raw_plan = os.environ.get(chaos.CHAOS_ENV)
            if raw_plan:
                fault_plan = chaos.FaultPlan.from_json(raw_plan)
        self._faults = fault_plan
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        #: The bound ``(host, port)`` pair (the real port when 0 was asked).
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = False

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept coordinator connections until :meth:`close` is called.

        Connections are served one at a time; a coordinator that
        disconnects (cleanly or not) returns the worker to ``accept``,
        with all connection state (spec cache included) discarded.
        """
        while not self._closed:
            try:
                connection, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            obs.log_event(
                _log, logging.INFO, "worker.connection_accepted",
                peer=f"{peer[0]}:{peer[1]}",
            )
            try:
                self._serve_connection(connection)
            except Exception as error:
                # A bad connection must never kill the server.
                obs.log_event(
                    _log, logging.WARNING, "worker.connection_failed",
                    peer=f"{peer[0]}:{peer[1]}", error=error,
                )
            finally:
                try:
                    connection.close()
                except OSError as error:
                    obs.log_event(
                        _log, logging.DEBUG, "worker.connection_close_failed",
                        error=error,
                    )

    def close(self) -> None:
        """Stop accepting connections (idempotent)."""
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "ClusterWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _serve_connection(self, connection: socket.socket) -> None:
        """Tune one accepted TCP connection, then serve it (:func:`serve_connection`)."""
        _enable_keepalive(connection)
        protocol.set_nodelay(connection)
        serve_connection(connection, self._key, self.capacity, self._faults)


def serve_connection(
    connection: socket.socket,
    key: Optional[bytes] = None,
    capacity: int = 1,
    faults: Optional[chaos.FaultPlan] = None,
    proc: str = "cluster-worker",
) -> None:
    """Handshake, then pump frames until the coordinator hangs up.

    The worker loop of both distributed backends: a :class:`ClusterWorker`
    runs it on each TCP connection, a forked worker of the process backend
    on its socket-pair end.  ``proc`` labels shipped trace events.
    """
    send_lock = threading.Lock()

    def send(kind: int, payload) -> None:
        with send_lock:
            protocol.send_message(connection, kind, payload, key=key, faults=faults)

    try:
        kind, payload = protocol.recv_message(connection, key=key)
        if kind != protocol.HELLO:
            raise protocol.ProtocolError(
                f"expected HELLO, got {protocol.MESSAGE_NAMES[kind]}"
            )
        protocol.check_hello(payload, expected_role="coordinator", auth=key is not None)
        send(
            protocol.HELLO,
            protocol.hello_payload("worker", auth=key is not None, capacity=capacity),
        )
    except (protocol.ConnectionClosed, OSError):
        # EOF or a reset (e.g. the coordinator closed with unread data
        # in flight): the peer is gone, go back to accept.
        return
    except protocol.ProtocolError as error:
        _reject(connection, send_lock, error, key)
        return

    #: ``{spec_id: spec}``, mirrored by the coordinator.
    specs: "OrderedDict[int, InstanceSpec]" = OrderedDict()
    #: Task ids cancelled by the coordinator; shared with the runner,
    #: which skips a queued task whose id landed here first.
    cancelled: set = set()
    tasks: "queue.Queue" = queue.Queue()
    runner = threading.Thread(
        target=_run_tasks, args=(tasks, cancelled, send, faults, proc), daemon=True
    )
    runner.start()
    try:
        while True:
            try:
                kind, payload = protocol.recv_message(connection, key=key)
            except (protocol.ConnectionClosed, OSError):
                return  # coordinator hung up (cleanly or by reset)
            except protocol.ProtocolError as error:
                _reject(connection, send_lock, error, key)
                return
            if kind == protocol.SPEC:
                # FIFO eviction (cache_spec); queued tasks are immune: the
                # reader pins each task's spec at enqueue.
                spec_id, spec = payload
                cache_spec(specs, spec_id, spec)
            elif kind == protocol.TASK:
                task_id, task_kind, args = payload
                if task_kind == "cancel":
                    # Handled by the reader, never queued: the whole
                    # point is to leapfrog tasks already in the queue.
                    if len(cancelled) > CANCEL_BACKLOG_LIMIT:
                        cancelled.clear()
                    cancelled.update(args)
                    continue
                # Pin the spec now: a later SPEC frame may evict it from
                # the cache before the runner reaches this task.
                spec = specs.get(args.get("spec_id")) if isinstance(args, dict) else None
                tasks.put((task_id, task_kind, args, spec))
            elif kind == protocol.HEARTBEAT:
                if faults is not None and faults.stall_heartbeat():
                    continue  # injected stall: swallow the echo
                try:
                    send(protocol.HEARTBEAT, payload)
                except OSError:
                    return
            else:
                _reject(
                    connection,
                    send_lock,
                    protocol.ProtocolError(
                        f"unexpected {protocol.MESSAGE_NAMES[kind]} frame"
                    ),
                    key,
                )
                return
    finally:
        tasks.put(_STOP)


def _reject(connection, send_lock, error, key=None) -> None:
    """Best-effort ERROR reply for a connection-level failure, then close.

    The reply is sent *plaintext* when the failure is that the peer
    itself spoke plaintext to a keyed worker
    (:class:`protocol.AuthenticationError` with ``peer_plain``) -- an
    authenticated rejection would be unreadable to exactly the peer it
    is meant to inform.  Every other rejection uses the connection's
    normal framing.
    """
    if isinstance(error, protocol.AuthenticationError) and error.peer_plain:
        key = None
    obs.log_event(
        _log, logging.WARNING, "worker.connection_rejected", error=error,
    )
    try:
        with send_lock:
            protocol.send_message(
                connection, protocol.ERROR, (None, _error_text(error)), key=key
            )
    except (OSError, protocol.ProtocolError) as send_error:
        obs.log_event(
            _log, logging.DEBUG, "worker.reject_reply_failed",
            error=send_error,
        )
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError as shutdown_error:
        obs.log_event(
            _log, logging.DEBUG, "worker.reject_shutdown_failed",
            error=shutdown_error,
        )


def _task_error(error: Exception):
    """A failed task's ERROR payload: the exception itself, with the worker
    traceback as a note, if it round-trips through pickle within a control
    frame; else that traceback text (a ``ClusterError`` at the caller)."""
    text = _error_text(error, with_traceback=True)
    try:
        error.with_traceback(None).add_note(f"worker traceback:\n{text}")
        wire = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(wire)
    except Exception:
        return text
    return error if len(wire) <= protocol.MAX_CONTROL_FRAME_BYTES // 2 else text


def _run_tasks(tasks, cancelled, send, faults=None, proc="cluster-worker") -> None:
    """Runner thread: execute queued tasks in order, one at a time.

    Tasks whose id was cancelled by the coordinator are skipped without
    a reply -- the coordinator dropped their bookkeeping when it sent
    the cancel, so nothing is waiting for a RESULT.

    Every RESULT is ``(task_id, result, events)``.  A task whose args
    carry a valid ``_obs`` trace context runs under a span continuing
    the coordinator's trace, and ``events`` holds the recorded events
    (labelled ``proc``); without the field (or with a foreign-version
    one) it is ``None``.
    """
    while True:
        item = tasks.get()
        if item is _STOP or not _run_task(item, cancelled, send, faults, proc):
            return


def _run_task(item, cancelled, send, faults, proc) -> bool:
    """Run one queued task and reply; ``False`` once the peer is gone."""
    task_id, kind, args, spec = item
    if task_id in cancelled:
        cancelled.discard(task_id)
        return True
    wire_ctx = None
    if isinstance(args, dict) and "_obs" in args:
        args = dict(args)
        wire_ctx = args.pop("_obs")
    try:
        if wire_ctx is not None:
            result, events = obs.record_remote(
                wire_ctx,
                lambda: run_task(kind, args, spec),
                name="worker.task",
                proc=proc,
                kind=kind,
                task_id=task_id,
            )
        else:
            result, events = run_task(kind, args, spec), None
    except Exception as error:
        obs.log_event(
            _log, logging.WARNING, "worker.task_failed",
            task_id=task_id, kind=kind, error=error,
        )
        reply = (protocol.ERROR, (task_id, _task_error(error)))
    else:
        reply = (protocol.RESULT, (task_id, result, events))
    try:
        send(*reply)
    except OSError:
        return False
    if reply[0] == protocol.RESULT and faults is not None and faults.task_completed():
        # Injected hard crash -- no cleanup, no FIN beyond what the
        # kernel sends, exactly like the OOM killer.
        os._exit(17)
    return True


def main(argv: Optional[list] = None) -> int:
    """Command-line entry point (the ``repro-cluster-worker`` script)."""
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description=(
            "Serve repro cluster shard work (padded-ball marginals, batched "
            "chain blocks) to a coordinator over the framed-pickle TCP "
            "protocol."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks an ephemeral port)"
    )
    parser.add_argument(
        "--auth-key",
        default=None,
        help=(
            "shared HMAC-SHA256 secret; frames are then authenticated and "
            f"keyless coordinators rejected (default: ${protocol.AUTH_KEY_ENV})"
        ),
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=1,
        help="relative dispatch weight announced to the coordinator (default 1)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help=(
            "emit structured repro.cluster.* log records to stderr at this "
            "level (default: logging stays silent)"
        ),
    )
    options = parser.parse_args(argv)
    if options.log_level is not None:
        obs.logs.configure(getattr(logging, options.log_level))
    worker = ClusterWorker(
        host=options.host,
        port=options.port,
        auth_key=options.auth_key,
        capacity=options.capacity,
    )
    host, port = worker.address
    # The first stdout line is the discovery contract of
    # repro.cluster.local.spawn_workers -- keep its shape stable.  The
    # structured record carries the same fact for log consumers.
    print(f"repro-cluster-worker listening on {host}:{port}", flush=True)
    obs.log_event(
        _log, logging.INFO, "worker.listening",
        host=host, port=port, capacity=options.capacity,
        authenticated=worker._key is not None,
    )
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        obs.log_event(_log, logging.INFO, "worker.interrupted")
    finally:
        worker.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
