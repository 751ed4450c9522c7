"""Cluster subsystem tests: protocol, scheduling, failure, conformance.

The contract of :mod:`repro.cluster` extends the runtime contract over a
socket transport:

* the framed-pickle protocol rejects malformed frames before interpreting
  them (magic, type, length, payload all validated);
* the coordinator adopts ``RESULT`` frames by task id in *any* arrival
  order, requeues the in-flight tasks of a dead worker, and cancels
  pending work when a stream is abandoned or the runtime shuts down;
* ``Runtime(backend="cluster")`` passes the same facade-conformance
  checks as the serial/batched/process backends, with every result --
  ball marginals, chain samples, the E5 radius sweep -- bit-identical to
  the serial loop.

In-process :class:`~repro.cluster.worker.ClusterWorker` threads back the
fast tests (no interpreter startup); the ``slow``-marked tests exercise
real subprocess workers via :func:`~repro.cluster.local.spawn_workers`,
including hard kills.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import pytest

from repro.cluster import protocol
from repro.cluster.coordinator import ClusterCoordinator, ClusterError, parse_address
from repro.cluster.local import spawn_workers
from repro.cluster.worker import run_task
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, random_tree
from repro.inference.ssm_inference import TruncatedBallInference, padded_ball_marginal
from repro.models import coloring_model, hardcore_model
from repro.runtime import (
    Runtime,
    resolve_runtime,
    run_chain_blocks,
    stream_ball_marginal_tasks,
    stream_padded_ball_marginals,
)
from repro.runtime.shards import InstanceSpec, spec_for


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
# ``inprocess_workers`` and ``submit_test_task`` live in conftest.py.


def _tasks_sent():
    """TASK frames the coordinators of this process have sent (obs on)."""
    from repro import obs

    return obs.active().metrics.counter("cluster.frames_sent.TASK").value


def _addresses(workers):
    return [worker.address for worker in workers]


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = {"tasks": [(0, 2)], "arrays": (1.5, 2.5)}
            protocol.send_message(left, protocol.TASK, payload)
            kind, received = protocol.recv_message(right)
            assert kind == protocol.TASK and received == payload
        finally:
            left.close()
            right.close()

    def test_bad_magic_is_rejected(self):
        left, right = socket.socketpair()
        try:
            data = pickle.dumps(None)
            left.sendall(struct.pack(">4sBQ", b"XXXX", protocol.TASK, len(data)) + data)
            with pytest.raises(protocol.ProtocolError, match="magic"):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_unknown_type_and_oversized_length_are_rejected(self):
        for kind, length in ((99, 4), (protocol.TASK, protocol.MAX_FRAME_BYTES + 1)):
            left, right = socket.socketpair()
            try:
                left.sendall(struct.pack(">4sBQ", protocol.MAGIC, kind, length) + b"xxxx")
                with pytest.raises(protocol.ProtocolError):
                    protocol.recv_message(right)
            finally:
                left.close()
                right.close()

    def test_control_frames_have_a_tighter_limit(self):
        # A HELLO/HEARTBEAT/ERROR frame claiming a giant payload must be rejected
        # on the header alone -- before any payload byte is read, let alone
        # unpickled (a stray peer cannot force a big allocation during the
        # handshake).  The oversize length here is far below the data-frame
        # limit, so only the per-kind control limit catches it.
        oversize = protocol.MAX_CONTROL_FRAME_BYTES + 1
        assert oversize < protocol.MAX_FRAME_BYTES
        for kind in (protocol.HELLO, protocol.HEARTBEAT, protocol.ERROR):
            left, right = socket.socketpair()
            try:
                left.sendall(struct.pack(">4sBQ", protocol.MAGIC, kind, oversize))
                with pytest.raises(protocol.ProtocolError, match="exceeds"):
                    protocol.recv_message(right)
            finally:
                left.close()
                right.close()

    def test_send_side_enforces_the_per_kind_limit(self):
        left, right = socket.socketpair()
        try:
            blob = b"x" * (protocol.MAX_CONTROL_FRAME_BYTES + 1)
            with pytest.raises(protocol.ProtocolError, match="refusing to send"):
                protocol.send_message(left, protocol.HEARTBEAT, blob)
            # The same payload is fine as a data frame (drain concurrently:
            # it exceeds the socketpair buffer).
            received = []
            reader = threading.Thread(
                target=lambda: received.append(protocol.recv_message(right))
            )
            reader.start()
            protocol.send_message(left, protocol.RESULT, blob)
            reader.join(timeout=10)
            assert received and received[0] == (protocol.RESULT, blob)
        finally:
            left.close()
            right.close()

    def test_frame_limit_per_kind(self):
        for kind in (protocol.HELLO, protocol.HEARTBEAT, protocol.ERROR):
            assert protocol.frame_limit(kind) == protocol.MAX_CONTROL_FRAME_BYTES
        for kind in (protocol.SPEC, protocol.TASK, protocol.RESULT):
            assert protocol.frame_limit(kind) == protocol.MAX_FRAME_BYTES

    def test_worker_error_reports_are_truncated(self):
        from repro.cluster.worker import _ERROR_TEXT_LIMIT, _error_text

        report = _error_text(ValueError("x" * (4 * _ERROR_TEXT_LIMIT)))
        assert len(report) <= _ERROR_TEXT_LIMIT + 64
        assert report.endswith("[error report truncated]")
        assert _error_text(ValueError("short")) == "short"

    def test_eof_raises_connection_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_undecodable_payload_is_rejected(self):
        left, right = socket.socketpair()
        try:
            garbage = b"\x80\x05not-a-pickle"
            left.sendall(
                struct.pack(">4sBQ", protocol.MAGIC, protocol.RESULT, len(garbage))
                + garbage
            )
            with pytest.raises(protocol.ProtocolError, match="undecodable"):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_hello_validation(self):
        payload = protocol.hello_payload("worker")
        assert protocol.check_hello(payload, "worker") is payload
        with pytest.raises(protocol.ProtocolError, match="expected a 'coordinator'"):
            protocol.check_hello(payload, "coordinator")
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.check_hello({"role": "worker", "version": 99}, "worker")
        # Version 2 still carried the generic ``call`` kind.
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.check_hello({"role": "worker", "version": 2}, "worker")

    def test_hello_rejects_a_version_3_peer(self):
        # Version 3 still carried the compile-only ball task kind; version 4
        # still returned chain blocks as decoded configurations.
        for version in (3, 4):
            with pytest.raises(protocol.ProtocolError, match="version"):
                protocol.check_hello({"role": "worker", "version": version}, "worker")

    def test_hello_rejects_a_version_5_peer(self):
        # Version 5 ball tasks still took a memo cap and returned compiled
        # balls and memo deltas; version 6 ERROR frames carried text only,
        # and version 7 carries the task body's exception.
        assert protocol.PROTOCOL_VERSION == 7
        for version in (5, 6):
            with pytest.raises(protocol.ProtocolError, match="version"):
                protocol.check_hello({"role": "worker", "version": version}, "worker")

    def test_parse_address(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address(("localhost", 8000)) == ("localhost", 8000)
        with pytest.raises(ValueError):
            parse_address("no-port")


# ----------------------------------------------------------------------
# worker loop (in-process servers)
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_malformed_frame_gets_error_reply_and_close(self, inprocess_workers):
        worker = inprocess_workers[0]
        with socket.create_connection(worker.address, timeout=10) as sock:
            sock.sendall(b"GARBAGE-THAT-IS-NOT-A-FRAME-" * 4)
            kind, payload = protocol.recv_message(sock)
            assert kind == protocol.ERROR
            task_id, message = payload
            assert task_id is None and "magic" in message
            # The worker closes the rejected connection afterwards.
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(sock)

    def test_worker_survives_a_rejected_connection(self, inprocess_workers):
        worker = inprocess_workers[0]
        with socket.create_connection(worker.address, timeout=10) as sock:
            sock.sendall(b"junk-frame-bytes" * 8)
        # A well-behaved coordinator can still connect and work afterwards.
        with ClusterCoordinator([worker.address]) as coordinator:
            assert coordinator.submit_task("ping", "hi").result(timeout=30) == "hi"

    def test_task_before_spec_fails_cleanly(self, inprocess_workers):
        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            future = coordinator.submit_task(
                "ball_marginals", {"spec_id": 123, "tasks": []}
            )
            with pytest.raises(protocol.ProtocolError, match="unknown spec"):
                future.result(timeout=30)

    def test_run_task_rejects_unknown_kinds(self):
        for kind in ("explode", "call"):
            with pytest.raises(protocol.ProtocolError, match="unknown task kind"):
                run_task(kind, {}, {})


# ----------------------------------------------------------------------
# coordinator scheduling
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_worker_task_exception_carries_traceback(
        self, inprocess_workers, submit_test_task
    ):
        # The body's own exception crosses the wire, the worker's
        # traceback riding along as a note.
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            future = submit_test_task(coordinator, "test-divide")
            with pytest.raises(ZeroDivisionError) as raised:
                future.result(timeout=30)
        (note,) = raised.value.__notes__
        assert note.startswith("worker traceback:") and "ZeroDivisionError" in note

    def test_cancelled_unanswered_tasks_keep_their_spec_shipped(
        self, inprocess_workers, submit_test_task
    ):
        from repro import obs

        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            (worker,) = coordinator.workers
            busy = submit_test_task(coordinator, "test-sleep", seconds=0.5)
            queued = submit_test_task(coordinator, "test-sleep", seconds=0)
            (spec_id,) = worker.specs
            # The queued task never answers, but the worker read its SPEC
            # frame before the TASK: the mirror keeps the id.
            coordinator._discard([queued])
            assert list(worker.specs) == [spec_id]
            busy.result(timeout=30)
            obs.enable()
            try:
                submit_test_task(coordinator, "test-sleep", seconds=0).result(timeout=30)
                frames = obs.active().metrics.counter("cluster.frames_sent.SPEC").value
            finally:
                obs.disable()
            assert frames == 0 and list(worker.specs) == [spec_id]

    def test_an_exception_that_does_not_pickle_arrives_as_text(
        self, inprocess_workers, monkeypatch
    ):
        from repro.runtime import shards

        class Unpicklable(Exception):
            def __init__(self, first, second):
                super().__init__(f"{first}/{second}")

        def body(args, spec):
            raise Unpicklable("left", "right")

        monkeypatch.setitem(shards.TASK_REGISTRY, "test-unpicklable", body)
        entry = spec_for(SamplingInstance(hardcore_model(cycle_graph(4), 1.0)))
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            future = coordinator.submit_task(
                "test-unpicklable", {"spec_id": entry[0]}, spec=entry
            )
            with pytest.raises(ClusterError, match="worker task failed: left/right"):
                future.result(timeout=30)
            # The worker and its connection survive the failed task.
            assert coordinator.submit_task("ping", 3).result(timeout=30) == 3

    def test_both_ends_of_a_connection_disable_nagle(self):
        # A frame is several sendall calls; with Nagle on, each payload
        # would wait for the peer's delayed ACK of its header.
        from repro.cluster.worker import ClusterWorker

        worker = ClusterWorker()
        accepted = []
        serve_connection = worker._serve_connection

        def recording(connection):
            accepted.append(connection)
            serve_connection(connection)

        worker._serve_connection = recording
        threading.Thread(target=worker.serve_forever, daemon=True).start()
        try:
            with ClusterCoordinator([worker.address]) as coordinator:
                # The handshake is over, so the worker has tuned its end.
                assert coordinator.submit_task("ping", 1).result(timeout=30) == 1
                (ours,) = [entry.sock for entry in coordinator.workers]
                (theirs,) = accepted
                for sock in (ours, theirs):
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            worker.close()

    def test_worker_refuses_a_pickled_call_and_keeps_serving(self, inprocess_workers):
        # Workers run registered task bodies only: the retired "call" kind
        # fails as an unknown kind over the wire, and the connection lives.
        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            refused = coordinator.submit_task("call", (pow, (2, 8), {}))
            with pytest.raises(protocol.ProtocolError, match="unknown task kind"):
                refused.result(timeout=30)
            assert coordinator.live_worker_count == 1
            assert coordinator.submit_task("ping", "alive").result(timeout=30) == "alive"

    def test_unpicklable_submit_fails_without_killing_the_worker(
        self, inprocess_workers
    ):
        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            with pytest.raises(Exception):
                coordinator.submit_task("ping", lambda x: x)
            # The connection is untouched: no bytes were sent.
            assert coordinator.live_worker_count == 1
            assert coordinator.submit_task("ping", 7).result(timeout=30) == 7
            assert not any(worker.inflight for worker in coordinator.workers)

    def test_least_loaded_dispatch_spreads_tasks(self, inprocess_workers):
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            futures = [coordinator.submit_task("ping", index) for index in range(6)]
            assert sorted(future.result(timeout=30) for future in futures) == list(
                range(6)
            )

    def test_out_of_order_results_are_adopted_by_task_id(self):
        """A hand-rolled worker answers tasks in reversed order."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        received = []

        def fake_worker():
            connection, _ = listener.accept()
            with connection:
                kind, payload = protocol.recv_message(connection)
                assert kind == protocol.HELLO
                protocol.send_message(
                    connection, protocol.HELLO, protocol.hello_payload("worker")
                )
                while len(received) < 3:
                    kind, payload = protocol.recv_message(connection)
                    if kind == protocol.TASK:
                        received.append(payload)
                # Reply strictly in reverse arrival order.
                for task_id, kind_, args in reversed(received):
                    protocol.send_message(
                        connection, protocol.RESULT, (task_id, f"answer-{args}", None)
                    )
                # Hold the socket open until the coordinator hangs up.
                try:
                    while True:
                        protocol.recv_message(connection)
                except protocol.ProtocolError:
                    pass

        thread = threading.Thread(target=fake_worker, daemon=True)
        thread.start()
        try:
            with ClusterCoordinator([listener.getsockname()[:2]]) as coordinator:
                futures = [
                    coordinator.submit_task("ping", label) for label in ("a", "b", "c")
                ]
                assert [future.result(timeout=30) for future in futures] == [
                    "answer-a",
                    "answer-b",
                    "answer-c",
                ]
        finally:
            listener.close()
            thread.join(timeout=10)

    def test_late_result_for_cancelled_task_is_dropped(self, inprocess_workers):
        from concurrent.futures import FIRST_COMPLETED, wait

        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            futures = [coordinator.submit_task("ping", label) for label in range(4)]
            wait(futures, timeout=30, return_when=FIRST_COMPLETED)
            coordinator._discard(futures)  # cancels what is still pending
            # The connection keeps working; stale RESULT frames (if any) are
            # dropped because their task ids are no longer in flight.
            assert coordinator.submit_task("ping", "still-alive").result(
                timeout=30
            ) == "still-alive"

    def test_cancel_reaches_the_worker_queue(self, inprocess_workers, submit_test_task):
        import time

        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            start = time.monotonic()
            # One blocker occupies the runner; five more sleeps queue behind
            # it.  Discarding them (what an abandoned stream's finally does)
            # cancels the queued sleeps on the worker too, so the follow-up
            # ping must not wait ~5 extra seconds behind work nobody wants.
            blocker = submit_test_task(coordinator, "test-sleep", seconds=1.0)
            sleeps = [
                submit_test_task(coordinator, "test-sleep", seconds=1.0)
                for _ in range(5)
            ]
            coordinator._discard(sleeps)
            assert coordinator.submit_task("ping", "after").result(timeout=30) == (
                "after"
            )
            elapsed = time.monotonic() - start
            assert elapsed < 4.0, f"queued cancelled tasks still ran ({elapsed:.1f}s)"
            assert blocker.result(timeout=30) is None
            assert all(sleep.cancelled() for sleep in sleeps)

    def test_dropped_coordinator_is_collected_and_closes_sockets(
        self, inprocess_workers
    ):
        import gc
        import weakref

        coordinator = ClusterCoordinator([inprocess_workers[0].address])
        assert coordinator.submit_task("ping", 1).result(timeout=30) == 1
        workers = coordinator.workers
        ref = weakref.ref(coordinator)
        del coordinator
        gc.collect()
        assert ref() is None, "service threads pinned the coordinator"
        # The finalizer closed the connection (fileno -1 once closed).
        assert all(worker.sock.fileno() == -1 for worker in workers)

    def test_shutdown_is_idempotent_and_rejects_new_work(self, inprocess_workers):
        coordinator = ClusterCoordinator(_addresses(inprocess_workers))
        coordinator.shutdown()
        coordinator.shutdown()
        with pytest.raises(ClusterError, match="shut down"):
            coordinator.submit_task("ping", 1)

    def test_at_least_one_address_required(self):
        with pytest.raises(ValueError):
            ClusterCoordinator([])


# ----------------------------------------------------------------------
# spec-bound streaming against in-process workers
# ----------------------------------------------------------------------
class TestClusterStreams:
    def test_ball_marginals_match_serial_and_leave_the_parent_cold(
        self, inprocess_workers
    ):
        local = SamplingInstance(coloring_model(cycle_graph(9), 3), {0: 1})
        serial = {node: padded_ball_marginal(local, node, 2) for node in local.free_nodes}
        distribution = coloring_model(cycle_graph(9), 3)
        instance = SamplingInstance(distribution, {0: 1})
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            streamed = dict(
                stream_padded_ball_marginals(
                    instance, instance.free_nodes, 2, chunk_size=2,
                    transport=coordinator,
                )
            )
        assert streamed == serial
        # Workers return marginals only: the parent compiles and keeps nothing.
        cache = distribution.ball_cache()
        assert cache.stats()["compiles"] == 0 and cache.stats()["size"] == 0
        assert not cache.extras

    def test_empty_streams(self, inprocess_workers):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            marginals = stream_ball_marginal_tasks(instance, [], transport=coordinator)
            assert list(marginals) == []

    def test_failed_shard_surfaces_clean_error(self, inprocess_workers):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            with pytest.raises(RuntimeError, match="ball shard failed"):
                list(
                    stream_ball_marginal_tasks(
                        instance, [("no-such-node", 1)], transport=coordinator
                    )
                )

    def test_chain_blocks_match_serial(self, inprocess_workers):
        from repro.runtime import chain_seed_sequences
        from repro.sampling.glauber import glauber_sample, luby_glauber_sample

        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0), {0: 1})
        seeds = chain_seed_sequences(3, 5)
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            glauber = run_chain_blocks(
                instance, "glauber", 60, seeds, transport=coordinator
            )
            luby = run_chain_blocks(
                instance, "luby-glauber", 12, seeds, transport=coordinator
            )
        assert glauber == [glauber_sample(instance, 60, seed=seed) for seed in seeds]
        assert luby == [luby_glauber_sample(instance, 12, seed=seed) for seed in seeds]

    # The every-kernel cluster bit-identity sweep lives in the parametrized
    # conformance harness (tests/test_conformance.py, cluster leg behind
    # the slow marker); this file keeps the coordinator-level semantics.

    def test_chain_samples_rejects_unknown_kernels(self, inprocess_workers):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        with ClusterCoordinator(_addresses(inprocess_workers)) as coordinator:
            with pytest.raises(ValueError, match="unknown chain kernel"):
                run_chain_blocks(
                    instance, "no-such-kernel", 3, [0, 1], transport=coordinator
                )

    def test_spec_reconstruction_is_bit_identical(self):
        instance = SamplingInstance(hardcore_model(random_tree(12, seed=6), 1.4), {0: 0})
        spec = pickle.loads(pickle.dumps(InstanceSpec.from_instance(instance)))
        rebuilt = spec.to_instance()
        assert rebuilt.free_nodes == instance.free_nodes
        assert rebuilt.distribution.nodes == instance.distribution.nodes
        compiled = instance.distribution.compiled_engine()
        clone = rebuilt.distribution.compiled_engine()
        node = instance.free_nodes[2]
        assert clone.marginal(node, {0: 0}) == compiled.marginal(node, {0: 0})
        assert spec.to_instance() is rebuilt  # memoised

    def test_spec_is_reused_across_streams_of_one_instance(self, inprocess_workers):
        distribution = hardcore_model(cycle_graph(9), 1.1)
        instance = SamplingInstance(distribution, {0: 0})
        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            first = dict(
                stream_padded_ball_marginals(
                    instance, instance.free_nodes, 1, transport=coordinator
                )
            )
            second = dict(
                stream_padded_ball_marginals(
                    instance, instance.free_nodes, 2, transport=coordinator
                )
            )
            # One instance, one spec id, shipped to the connection once.
            assert len(coordinator.workers[0].specs) == 1
        assert set(first) == set(second) == set(instance.free_nodes)

    def test_spec_is_reshipped_after_update_factors(self, inprocess_workers):
        distribution = hardcore_model(cycle_graph(9), 1.1)
        instance = SamplingInstance(distribution, {0: 0})
        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            dict(
                stream_padded_ball_marginals(
                    instance, instance.free_nodes, 1, transport=coordinator
                )
            )
            distribution.update_factors(hardcore_model(cycle_graph(9), 4.0).factors)
            serial = {
                node: padded_ball_marginal(instance, node, 1)
                for node in instance.free_nodes
            }
            distribution.ball_cache().clear()
            streamed = dict(
                stream_padded_ball_marginals(
                    instance, instance.free_nodes, 1, transport=coordinator
                )
            )
            # The reweight built a new compiled engine: a new spec id, so
            # the connection received the new weights as a second spec.
            assert len(coordinator.workers[0].specs) == 2
        assert streamed == serial

    def test_spec_evicted_by_worker_cache_is_reshipped(self, inprocess_workers):
        from repro.cluster.worker import SPEC_CACHE_LIMIT

        instances = [
            SamplingInstance(hardcore_model(cycle_graph(6 + extra), 1.0), {0: 0})
            for extra in range(SPEC_CACHE_LIMIT + 2)
        ]
        with ClusterCoordinator([inprocess_workers[0].address]) as coordinator:
            for instance in instances:
                dict(
                    stream_padded_ball_marginals(
                        instance, instance.free_nodes, 1, transport=coordinator
                    )
                )
            # The worker's FIFO cache evicted the early specs; the mirror
            # replayed the eviction, so a fresh stream over the first
            # instance re-ships its spec instead of failing on the worker.
            assert len(coordinator.workers[0].specs) == SPEC_CACHE_LIMIT
            first = instances[0]
            serial = {
                node: padded_ball_marginal(first, node, 1)
                for node in first.free_nodes
            }
            streamed = dict(
                stream_padded_ball_marginals(
                    first, first.free_nodes, 1, transport=coordinator
                )
            )
            assert streamed == serial

    def test_spec_pickle_excludes_reconstruction(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        spec = InstanceSpec.from_instance(instance)
        spec.to_instance()  # would not pickle (closure factors)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone._instance is None
        assert clone.nodes == spec.nodes


# ----------------------------------------------------------------------
# the Runtime facade on the cluster backend (in-process workers)
# ----------------------------------------------------------------------
class TestClusterRuntimeFacade:
    def test_resolve_and_validation(self):
        assert resolve_runtime("cluster").is_cluster
        # The string form resolves to one shared runtime (one worker pool).
        assert resolve_runtime("cluster") is resolve_runtime("cluster")
        runtime = Runtime("cluster", addresses=["10.0.0.1:9000"])
        assert runtime.n_workers == 1 and runtime.addresses == ["10.0.0.1:9000"]
        with pytest.raises(ValueError, match="addresses"):
            Runtime("serial", addresses=["10.0.0.1:9000"])
        with pytest.raises(ValueError, match="cluster"):
            Runtime("serial").cluster_client()

    def test_facade_conformance(self, inprocess_workers):
        with Runtime("cluster", addresses=_addresses(inprocess_workers)) as runtime:
            # submit: a resolved future, as on the in-process backends.
            assert runtime.submit(pow, 3, 4).result(timeout=30) == 81
            failing = runtime.submit(divmod, 1, 0)
            assert failing.exception(timeout=30) is not None

    def test_submit_resolves_without_connecting(self):
        # submit is the resolved-future form on the cluster too: the call
        # runs in-process and the unreachable address is never dialled.
        runtime = Runtime("cluster", addresses=["127.0.0.1:1"])
        future = runtime.submit(pow, 2, 10)
        assert future.done() and future.result() == 1024
        assert isinstance(runtime.submit(divmod, 1, 0).exception(), ZeroDivisionError)
        assert runtime._cluster is None  # no connection was attempted

    def test_experiment_drivers_accept_a_cluster_runtime(self, inprocess_workers):
        # The drivers that keep a runtime= knob (E4's rejection kernel, E5's
        # locality sweep) must return the serial rows unchanged on the
        # cluster backend.
        from repro.experiments import e04_jvv, e05_ssm_inference

        kernel = e04_jvv.run_rejection_kernel(sizes=(8,), chains=6)
        sweep = e05_ssm_inference.run(fugacities=(0.5,), cycle_size=8, radii=(1, 2))
        with Runtime("cluster", addresses=_addresses(inprocess_workers)) as runtime:
            assert e04_jvv.run_rejection_kernel(sizes=(8,), chains=6, runtime=runtime) == kernel
            assert (
                e05_ssm_inference.run(
                    fugacities=(0.5,), cycle_size=8, radii=(1, 2), runtime=runtime
                )
                == sweep
            )

    def test_stream_ball_marginals_matches_serial(self, inprocess_workers):
        distribution = hardcore_model(random_tree(13, seed=2), 1.2)
        instance = SamplingInstance(distribution, {0: 0})
        serial = dict(Runtime().stream_ball_marginals(instance, instance.free_nodes, 2))
        with Runtime("cluster", addresses=_addresses(inprocess_workers)) as runtime:
            streamed = dict(
                runtime.stream_ball_marginals(instance, instance.free_nodes, 2)
            )
        assert streamed == serial

    def test_dict_engine_request_keeps_the_reference_loop(self, inprocess_workers):
        distribution = hardcore_model(cycle_graph(7), 1.1)
        instance = SamplingInstance(distribution, {0: 0})
        reference = TruncatedBallInference(radius=1, engine="dict")
        with Runtime("cluster", addresses=_addresses(inprocess_workers)) as runtime:
            assert reference.marginals(
                instance, 0.05, runtime=runtime
            ) == reference.marginals(instance, 0.05)
            assert dict(
                reference.marginals_stream(instance, 0.05, runtime=runtime)
            ) == reference.marginals(instance, 0.05)
            # Nothing was dispatched: the coordinator was never even made.
            assert "cluster" not in runtime.snapshot()

    # The every-kernel run_chains sweep on the cluster backend lives in
    # the conformance harness (tests/test_conformance.py).

    def test_run_chains_after_update_factors_equals_batched(self, inprocess_workers):
        distribution = hardcore_model(cycle_graph(30), 1.0)
        instance = SamplingInstance(distribution)
        batched = Runtime("batched", n_chains=16)
        with Runtime(
            "cluster",
            addresses=_addresses(inprocess_workers),
            n_chains=16,
            inline_threshold=0,
        ) as runtime:
            before = runtime.run_chains("glauber", instance, 200, seed=3)
            assert before == batched.run_chains("glauber", instance, 200, seed=3)
            # Reweight in place: the workers must not keep sampling the
            # spec of the old weights.
            distribution.update_factors(hardcore_model(cycle_graph(30), 40.0).factors)
            after = runtime.run_chains("glauber", instance, 200, seed=3)
        assert after == batched.run_chains("glauber", instance, 200, seed=3)
        assert after != before

    def test_abandoned_stream_then_shutdown_releases_cleanly(self, inprocess_workers):
        distribution = coloring_model(cycle_graph(10), 3)
        instance = SamplingInstance(distribution, {0: 1})
        runtime = Runtime("cluster", addresses=_addresses(inprocess_workers))
        stream = runtime.stream_ball_marginals(instance, instance.free_nodes, 2)
        next(stream)
        # Abandon the stream mid-iteration, then shut down (twice): neither
        # may hang on pending socket traffic, and the workers stay serviceable
        # for the next runtime.
        runtime.shutdown()
        runtime.shutdown()
        stream.close()
        with Runtime("cluster", addresses=_addresses(inprocess_workers)) as fresh:
            assert fresh.cluster_client().submit_task("ping", 4).result(timeout=30) == 4

    def test_repeated_connect_cycles_never_wedge_a_worker(self, inprocess_workers):
        # Regression: coordinator close() without shutdown(SHUT_RDWR) left
        # the worker's blocked recv pinning the connection (no FIN), so the
        # single-connection worker never returned to accept and the *next*
        # coordinator's handshake timed out.
        distribution = hardcore_model(cycle_graph(12), fugacity=6.0)
        instance = SamplingInstance(distribution, {0: 1})
        for _ in range(3):
            runtime = Runtime("cluster", addresses=_addresses(inprocess_workers))
            stream = runtime.stream_ball_marginals(instance, instance.free_nodes, 3)
            next(stream)
            stream.close()
            runtime.shutdown()
        with ClusterCoordinator(
            _addresses(inprocess_workers), connect_timeout=30
        ) as coordinator:
            assert coordinator.submit_task("ping", "fresh").result(timeout=30) == (
                "fresh"
            )

    def test_ssm_engine_and_locality_required_match_serial(self, inprocess_workers):
        from repro.spatialmixing import locality_required

        distribution = hardcore_model(random_tree(15, seed=8), 1.3)
        instance = SamplingInstance(distribution, {0: 0})
        engine = TruncatedBallInference(radius=2)
        serial = engine.marginals(instance, 0.05)
        e5 = SamplingInstance(hardcore_model(cycle_graph(12), fugacity=6.0), {0: 1})
        serial_radius = locality_required(e5, 6, error=0.05, max_radius=6)
        with Runtime(
            "cluster", addresses=_addresses(inprocess_workers), obs=True
        ) as runtime:
            # Each call must reach the workers, not fall back to the loop.
            assert engine.marginals(instance, 0.05, runtime=runtime) == serial
            sent = _tasks_sent()
            assert sent > 0
            streamed = dict(engine.marginals_stream(instance, 0.05, runtime=runtime))
            assert streamed == serial
            assert _tasks_sent() > sent
            sent = _tasks_sent()
            cluster_radius = locality_required(
                e5, 6, error=0.05, max_radius=6, runtime=runtime
            )
            assert cluster_radius == serial_radius
            assert _tasks_sent() > sent


# ----------------------------------------------------------------------
# subprocess workers: spawn, kill, requeue (the multi-machine rehearsal)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestLocalWorkerPool:
    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_workers(0)

    def test_worker_death_mid_stream_requeues_bit_identically(self):
        distribution = coloring_model(cycle_graph(10), 3)
        instance = SamplingInstance(distribution, {0: 1})
        serial = {
            node: padded_ball_marginal(instance, node, 2)
            for node in instance.free_nodes
        }
        distribution.ball_cache().clear()
        with spawn_workers(2) as pool:
            with ClusterCoordinator(pool.addresses) as coordinator:
                # Pin one worker on a slow task (a ~1 s chain block): its
                # runner executes tasks in order, so the ball chunks queued
                # behind it are *guaranteed* to still be in flight when we
                # kill it (without this, fast workers can drain everything
                # before the kill).
                spec_id, _ = entry = spec_for(instance)
                coordinator.submit_task(
                    "chain_block",
                    {
                        "spec_id": spec_id,
                        "kernel": "glauber",
                        "count": 30_000,
                        "seeds": [0],
                        "initial": None,
                    },
                    spec=entry,
                )
                victim = next(
                    index
                    for index, worker in enumerate(coordinator.workers)
                    if worker.inflight
                )
                stream = stream_ball_marginal_tasks(
                    instance,
                    [(node, 2) for node in instance.free_nodes],
                    chunk_size=1,
                    transport=coordinator,
                )
                merged = {}
                key, marginal = next(stream)  # from the unblocked worker
                merged[key[0]] = marginal
                assert coordinator.workers[victim].inflight
                pool.kill(victim)
                for key, marginal in stream:
                    merged[key[0]] = marginal
                assert coordinator.requeued > 0
                assert coordinator.live_worker_count == 1
        # Bit-identical to the serial loop despite the death + requeue, and
        # the merged BallCache serves the serial replay as cache hits.
        assert merged == serial
        assert {
            node: padded_ball_marginal(instance, node, 2)
            for node in instance.free_nodes
        } == serial

    def test_all_workers_dead_fails_cleanly(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0))
        with spawn_workers(1) as pool:
            with ClusterCoordinator(pool.addresses) as coordinator:
                assert coordinator.submit_task("ping", 1).result(timeout=30) == 1
                pool.kill(0)
                with pytest.raises(RuntimeError, match="ball shard failed|no live"):
                    list(
                        stream_ball_marginal_tasks(
                            instance, [(node, 1) for node in instance.free_nodes],
                            transport=coordinator,
                        )
                    )

    def test_runtime_spawns_and_owns_local_workers(self):
        # No addresses: the runtime spawns localhost workers on first use
        # and terminates them at shutdown.
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0), {0: 0})
        serial = dict(Runtime().stream_ball_marginals(instance, instance.free_nodes, 1))
        with Runtime("cluster", n_workers=2) as runtime:
            streamed = dict(
                runtime.stream_ball_marginals(instance, instance.free_nodes, 1)
            )
            pool = runtime._local_pool
            assert pool is not None and len(pool) == 2
        assert streamed == serial
        assert pool._terminated
