"""Multi-machine execution: a coordinator/worker backend over TCP.

conf_podc_FengY18 studies sampling and counting in the LOCAL model --
computation distributed over a network -- and this package is the
repository's literal counterpart: it extends the execution runtime
beyond one host.  The picklable :class:`~repro.runtime.shards.InstanceSpec`
of the process backend is already a complete, self-contained instance
description; the cluster layer ships it over sockets instead of pipes
and reuses the *same* shard task bodies, so every result is bit-identical
to the serial and process backends.

``protocol``
    The framed length-prefixed pickle wire format (HELLO / SPEC / TASK /
    RESULT / HEARTBEAT / ERROR) with malformed-frame rejection.
``worker``
    The ``repro-cluster-worker`` server loop: caches the spec once per
    connection, answers heartbeats while tasks run, and executes the
    registered task bodies (padded-ball marginals, batched chain blocks)
    and ``ping``.
``coordinator``
    :class:`ClusterCoordinator`: least-loaded + round-robin dispatch,
    heartbeat liveness and automatic requeue of tasks from dead workers.
    Ball tasks return marginals only; the parent's
    :class:`~repro.engine.cache.BallCache` is left untouched.
``local``
    :func:`spawn_workers` -- N localhost worker subprocesses for tests,
    benchmarks and the quickstart (leak-proof: a GC/exit finalizer kills
    abandoned workers).
``chaos``
    :class:`FaultPlan` -- seeded, deterministic fault injection (worker
    crashes, dropped/corrupted/truncated frames, stalled heartbeats) for
    the chaos tests that certify the fault-tolerance layer.

Fault tolerance and security (this layer's contract): frames are
optionally HMAC-SHA256-authenticated (``auth_key=``, or the
``REPRO_CLUSTER_AUTH_KEY`` environment variable) and verified *before*
unpickling; dead workers' tasks requeue deterministically and their
addresses are re-dialled with capped exponential backoff; workers may
join mid-stream (:meth:`ClusterCoordinator.add_worker`) and announce
capacity weights; ``degrade="local"`` trades throughput for availability
when every worker is gone.  See ``docs/ARCHITECTURE.md``.

The ergonomic entry point is the :class:`~repro.runtime.executor.Runtime`
facade: ``Runtime(backend="cluster", addresses=[...])`` (or plain
``runtime="cluster"``, which spawns localhost workers on first use)
conforms to the same ``run_chains`` / ``stream_ball_marginals`` /
``shutdown`` contract as the serial, batched and process backends.
Workers run only ``ping`` and the registered task bodies; no pickled
callable crosses the wire.
"""

from repro.cluster.chaos import CHAOS_ENV, FaultPlan
from repro.cluster.coordinator import ClusterCoordinator, ClusterError, parse_address
from repro.cluster.local import LocalWorkerPool, spawn_workers
from repro.cluster.protocol import (
    AUTH_KEY_ENV,
    AuthenticationError,
    ConnectionClosed,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.cluster.worker import ClusterWorker

__all__ = [
    "AUTH_KEY_ENV",
    "AuthenticationError",
    "CHAOS_ENV",
    "ClusterCoordinator",
    "ClusterError",
    "ClusterWorker",
    "ConnectionClosed",
    "FaultPlan",
    "LocalWorkerPool",
    "ProtocolError",
    "parse_address",
    "recv_message",
    "send_message",
    "spawn_workers",
]
