"""Chaos and security tests: the cluster under deterministic injected faults.

The paper's algorithms are Las Vegas: a failure must be locally
certifiable and must never corrupt the output of non-failed nodes.
:mod:`tests.test_failure_injection` enforces that at the algorithm layer;
this suite enforces it for the ``runtime="cluster"`` transport under
*injected* infrastructure faults.  Every scenario asserts one of exactly
two outcomes:

* **bit-identical**: the merged result equals the serial loop, despite
  the fault (worker death, tampered frame, reconnection, rebalancing);
* **clean failure**: an attributed exception (:class:`ClusterError`,
  :class:`ProtocolError`, :class:`AuthenticationError`) *before* any
  untrusted payload is unpickled -- never a hang, never a silent wrong
  answer.

Faults come from the seeded :class:`repro.cluster.chaos.FaultPlan`, so a
failing scenario reproduces byte-for-byte.  In-process
:class:`~repro.cluster.worker.ClusterWorker` threads back the fast tests;
``slow``-marked tests arm real subprocess workers (the only safe place
for ``kill_after_tasks``, which is a hard ``os._exit``).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.cluster import protocol
from repro.cluster.chaos import FaultPlan
from repro.cluster.coordinator import ClusterCoordinator, ClusterError
from repro.cluster.local import spawn_workers
from repro.cluster.protocol import AuthenticationError
from repro.cluster.worker import ClusterWorker
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.inference.ssm_inference import padded_ball_marginal
from repro.models import coloring_model, hardcore_model
from repro.runtime import Runtime, run_chain_blocks, stream_ball_marginal_tasks
from repro.runtime.shards import ForkedWorkers

KEY = "chaos-suite-secret"


def _serve(worker: ClusterWorker) -> threading.Thread:
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    return thread


def _wait_until(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _small_instance():
    distribution = coloring_model(cycle_graph(10), 3)
    return SamplingInstance(distribution, {0: 1})


def _serial_marginals(instance, radius=2):
    serial = {
        node: padded_ball_marginal(instance, node, radius)
        for node in instance.free_nodes
    }
    instance.distribution.ball_cache().clear()
    return serial


def _explode():
    raise AssertionError("untrusted payload was unpickled")


class _Exploding:
    """Pickles fine; unpickling executes :func:`_explode` (the RCE canary)."""

    def __reduce__(self):
        return (_explode, ())


# ----------------------------------------------------------------------
# FaultPlan: the injection harness itself is deterministic
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip_preserves_every_field(self):
        plan = FaultPlan(
            seed=7,
            kill_after_tasks=3,
            stall_heartbeats_after=1,
            drop_frames=(2, 5),
            delay_frames={4: 0.25},
            truncate_frames=(6,),
            corrupt_frames=(7,),
            corrupt_target="magic",
            frame_kinds=(protocol.RESULT, protocol.HEARTBEAT),
        )
        clone = FaultPlan.from_json(plan.to_json())
        for name in (
            "seed",
            "kill_after_tasks",
            "stall_heartbeats_after",
            "drop_frames",
            "delay_frames",
            "truncate_frames",
            "corrupt_frames",
            "corrupt_target",
            "frame_kinds",
        ):
            assert getattr(clone, name) == getattr(plan, name), name
        assert clone == plan
        assert clone != FaultPlan(seed=8)

    def test_frame_actions_fire_on_the_scheduled_frames_only(self):
        plan = FaultPlan(drop_frames=(2,), truncate_frames=(4,))
        actions = [plan.frame_action(protocol.RESULT) for _ in range(5)]
        assert actions[0] is None and actions[2] is None and actions[4] is None
        assert actions[1] == ("drop",)
        assert actions[3][0] == "truncate" and actions[3][1] >= 1

    def test_frame_kinds_filter_what_counts(self):
        plan = FaultPlan(drop_frames=(1,), frame_kinds=(protocol.HEARTBEAT,))
        # RESULT frames neither count nor receive actions.
        assert plan.frame_action(protocol.RESULT) is None
        assert plan.frame_action(protocol.HEARTBEAT) == ("drop",)

    def test_corruption_position_is_seeded(self):
        first = FaultPlan(seed=11, corrupt_frames=(1,)).frame_action(protocol.TASK)
        second = FaultPlan(seed=11, corrupt_frames=(1,)).frame_action(protocol.TASK)
        assert first == second and first[0] == "corrupt"

    def test_kill_and_stall_counters(self):
        plan = FaultPlan(kill_after_tasks=2, stall_heartbeats_after=1)
        assert not plan.task_completed()
        assert plan.task_completed()
        assert not plan.stall_heartbeat()
        assert plan.stall_heartbeat()

    def test_unknown_corrupt_target_is_rejected(self):
        with pytest.raises(ValueError, match="corrupt_target"):
            FaultPlan(corrupt_target="header")


# ----------------------------------------------------------------------
# authenticated frames (HMAC-SHA256) -- fail closed before unpickling
# ----------------------------------------------------------------------
class TestAuthenticatedProtocol:
    def _pair(self):
        return socket.socketpair()

    def test_keyed_round_trip(self):
        left, right = self._pair()
        key = protocol.normalize_auth_key(KEY)
        try:
            protocol.send_message(left, protocol.TASK, {"n": 3}, key=key)
            kind, payload = protocol.recv_message(right, key=key)
            assert kind == protocol.TASK and payload == {"n": 3}
        finally:
            left.close()
            right.close()

    def test_wrong_key_fails_closed(self):
        left, right = self._pair()
        try:
            protocol.send_message(left, protocol.TASK, _Exploding(), key=b"alpha")
            with pytest.raises(AuthenticationError, match="HMAC"):
                protocol.recv_message(right, key=b"beta")
        finally:
            left.close()
            right.close()

    def test_bit_flipped_payload_fails_closed_with_hmac(self):
        # The canary payload would raise AssertionError if unpickled; the
        # tag check must reject the tampered frame first.
        left, right = self._pair()
        key = b"k"
        plan = FaultPlan(seed=3, corrupt_frames=(1,), corrupt_target="payload")
        try:
            protocol.send_message(left, protocol.TASK, _Exploding(), key=key, faults=plan)
            with pytest.raises(AuthenticationError, match="not unpickled"):
                protocol.recv_message(right, key=key)
        finally:
            left.close()
            right.close()

    def test_bit_flipped_magic_is_rejected_with_or_without_hmac(self):
        for key in (None, b"k"):
            left, right = self._pair()
            plan = FaultPlan(corrupt_frames=(1,), corrupt_target="magic")
            try:
                protocol.send_message(left, protocol.TASK, 1, key=key, faults=plan)
                with pytest.raises(protocol.ProtocolError, match="magic"):
                    protocol.recv_message(right, key=key)
            finally:
                left.close()
                right.close()

    def test_plain_frame_rejected_by_keyed_receiver(self):
        left, right = self._pair()
        try:
            protocol.send_message(left, protocol.TASK, _Exploding())
            with pytest.raises(AuthenticationError, match="unauthenticated") as info:
                protocol.recv_message(right, key=b"k")
            assert info.value.peer_plain
        finally:
            left.close()
            right.close()

    def test_auth_frame_rejected_by_keyless_receiver(self):
        left, right = self._pair()
        try:
            protocol.send_message(left, protocol.TASK, _Exploding(), key=b"k")
            with pytest.raises(AuthenticationError, match="no auth key"):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_plain_error_reply_is_reported_without_unpickling(self):
        # The handshake-rejection path: a keyless peer answers a keyed one
        # with a plaintext ERROR.  The keyed receiver must attribute the
        # mismatch WITHOUT unpickling the untrusted payload -- an
        # unauthenticated pickle is an RCE vector, ERROR frames included.
        left, right = self._pair()
        try:
            protocol.send_message(left, protocol.ERROR, (None, _Exploding()))
            with pytest.raises(AuthenticationError, match="discarded unread"):
                protocol.recv_message(right, key=b"k")
        finally:
            left.close()
            right.close()

    def test_oversize_and_truncated_frames_fail_closed_with_hmac(self):
        key = b"k"
        # Oversize: rejected on the header alone, tag never read.
        left, right = self._pair()
        try:
            left.sendall(
                struct.pack(
                    ">4sBQ", protocol.MAGIC_AUTH, protocol.TASK,
                    protocol.MAX_FRAME_BYTES + 1,
                )
            )
            with pytest.raises(protocol.ProtocolError, match="exceeds"):
                protocol.recv_message(right, key=key)
        finally:
            left.close()
            right.close()
        # Truncated: EOF mid-payload is ConnectionClosed, not an unpickle.
        left, right = self._pair()
        try:
            data = pickle.dumps(_Exploding())
            left.sendall(
                struct.pack(">4sBQ", protocol.MAGIC_AUTH, protocol.TASK, len(data))
                + data[: len(data) // 2]
            )
            left.close()
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(right, key=key)
        finally:
            right.close()

    def test_hello_auth_flag_mismatch_is_attributed(self):
        payload = protocol.hello_payload("worker", auth=False)
        with pytest.raises(AuthenticationError, match="HELLO"):
            protocol.check_hello(payload, expected_role="worker", auth=True)

    def test_hello_version_mismatch_is_attributed(self):
        # Version 2 is the last one whose workers ran the generic ``call`` kind.
        for version in (2, 999):
            payload = dict(protocol.hello_payload("worker"), version=version)
            with pytest.raises(protocol.ProtocolError, match="version"):
                protocol.check_hello(payload, expected_role="worker")


# ----------------------------------------------------------------------
# handshake negotiation against a real worker: clean ERROR, never a hang
# ----------------------------------------------------------------------
class TestAuthHandshake:
    def test_keyed_cluster_end_to_end_bit_identical(self):
        instance = _small_instance()
        serial = _serial_marginals(instance)
        workers = [ClusterWorker(auth_key=KEY) for _ in range(2)]
        for worker in workers:
            _serve(worker)
        try:
            with ClusterCoordinator(
                [worker.address for worker in workers], auth_key=KEY
            ) as coordinator:
                merged = {
                    key[0]: marginal
                    for key, marginal in stream_ball_marginal_tasks(
                        instance, [(node, 2) for node in instance.free_nodes],
                        transport=coordinator,
                    )
                }
            assert merged == serial
        finally:
            for worker in workers:
                worker.close()

    def test_keyless_coordinator_rejected_by_keyed_worker(self):
        worker = ClusterWorker(auth_key=KEY)
        _serve(worker)
        try:
            with pytest.raises(protocol.ProtocolError, match="rejected handshake"):
                ClusterCoordinator([worker.address], connect_timeout=10)
        finally:
            worker.close()

    def test_keyed_coordinator_rejects_keyless_worker(self):
        worker = ClusterWorker()
        _serve(worker)
        try:
            with pytest.raises(AuthenticationError):
                ClusterCoordinator([worker.address], connect_timeout=10, auth_key=KEY)
        finally:
            worker.close()

    def test_wrong_key_fails_the_handshake_cleanly(self):
        worker = ClusterWorker(auth_key=KEY)
        _serve(worker)
        try:
            with pytest.raises(protocol.ProtocolError):
                ClusterCoordinator(
                    [worker.address], connect_timeout=10, auth_key="not-the-key"
                )
        finally:
            worker.close()

    def test_version_mismatch_gets_a_clean_error_from_the_worker(self):
        worker = ClusterWorker()
        _serve(worker)
        try:
            with socket.create_connection(worker.address, timeout=10) as sock:
                hello = dict(protocol.hello_payload("coordinator"), version=999)
                protocol.send_message(sock, protocol.HELLO, hello)
                kind, payload = protocol.recv_message(sock)
                assert kind == protocol.ERROR
                assert "version" in payload[1]
        finally:
            worker.close()


# ----------------------------------------------------------------------
# frame faults on a live cluster: requeue keeps results bit-identical
# ----------------------------------------------------------------------
class TestFrameFaults:
    def _cluster(self, plans, key=None):
        workers = [
            ClusterWorker(auth_key=key, fault_plan=plan) for plan in plans
        ]
        for worker in workers:
            _serve(worker)
        return workers

    def test_truncated_result_frame_requeues_bit_identically(self):
        # Worker 0 truncates its first RESULT frame mid-payload and tears
        # the connection down; the coordinator must requeue the task and
        # the merged marginals must still equal the serial loop.
        instance = _small_instance()
        serial = _serial_marginals(instance)
        plan = FaultPlan(truncate_frames=(1,), frame_kinds=(protocol.RESULT,))
        workers = self._cluster([plan, None])
        try:
            with ClusterCoordinator(
                [worker.address for worker in workers], reconnect=False
            ) as coordinator:
                merged = {
                    key[0]: marginal
                    for key, marginal in stream_ball_marginal_tasks(
                        instance,
                        [(node, 2) for node in instance.free_nodes],
                        chunk_size=1,
                        transport=coordinator,
                    )
                }
                assert coordinator.requeued > 0
            assert merged == serial
        finally:
            for worker in workers:
                worker.close()

    def test_corrupted_result_frame_detected_by_hmac_and_requeued(self):
        # A payload bit flip is invisible to the framing but not to the
        # tag: the keyed coordinator rejects the frame before unpickling,
        # declares the worker dead, and requeues -- bit-identical merge.
        instance = _small_instance()
        serial = _serial_marginals(instance)
        plan = FaultPlan(
            seed=5,
            corrupt_frames=(1,),
            corrupt_target="payload",
            frame_kinds=(protocol.RESULT,),
        )
        workers = self._cluster([plan, None], key=KEY)
        try:
            with ClusterCoordinator(
                [worker.address for worker in workers],
                auth_key=KEY,
                reconnect=False,
            ) as coordinator:
                merged = {
                    key[0]: marginal
                    for key, marginal in stream_ball_marginal_tasks(
                        instance,
                        [(node, 2) for node in instance.free_nodes],
                        chunk_size=1,
                        transport=coordinator,
                    )
                }
                assert coordinator.requeued > 0
            assert merged == serial
        finally:
            for worker in workers:
                worker.close()

    def test_stalled_heartbeats_declare_the_worker_dead(self):
        # The worker swallows every heartbeat echo; with no other traffic
        # the coordinator's liveness timeout (not EOF) must catch it.
        workers = self._cluster([FaultPlan(stall_heartbeats_after=0), None])
        try:
            with ClusterCoordinator(
                [worker.address for worker in workers],
                heartbeat_interval=0.1,
                heartbeat_timeout=1.0,
                reconnect=False,
            ) as coordinator:
                _wait_until(
                    lambda: coordinator.live_worker_count == 1,
                    timeout=15,
                    message="heartbeat timeout to fire",
                )
                # The survivor still serves work.
                assert coordinator.submit_task("ping", 9).result(timeout=30) == 9
        finally:
            for worker in workers:
                worker.close()

    def test_dropped_heartbeat_frames_also_trip_the_timeout(self):
        plan = FaultPlan(
            drop_frames=tuple(range(1, 200)), frame_kinds=(protocol.HEARTBEAT,)
        )
        workers = self._cluster([plan])
        try:
            with ClusterCoordinator(
                [workers[0].address],
                heartbeat_interval=0.1,
                heartbeat_timeout=1.0,
                reconnect=False,
            ) as coordinator:
                _wait_until(
                    lambda: coordinator.live_worker_count == 0,
                    timeout=15,
                    message="dropped heartbeats to kill the worker",
                )
                with pytest.raises(ClusterError, match="no live"):
                    coordinator.submit_task("ping", 1)
        finally:
            for worker in workers:
                worker.close()


# ----------------------------------------------------------------------
# elastic membership: reconnect, mid-stream join, restart, degrade
# ----------------------------------------------------------------------
class TestElasticMembership:
    def test_severed_connection_heals_by_reconnection(self):
        # Sever the TCP connection under the coordinator; the backoff
        # thread must re-dial, the worker (back in accept) must rejoin,
        # and spec-bound work must still stream bit-identically -- the
        # spec re-ships lazily on the fresh connection.
        instance = _small_instance()
        serial = _serial_marginals(instance)
        worker = ClusterWorker()
        _serve(worker)
        try:
            with ClusterCoordinator([worker.address]) as coordinator:
                assert coordinator.submit_task("ping", 1).result(timeout=30) == 1
                severed = coordinator.workers[0]
                severed.sock.shutdown(socket.SHUT_RDWR)
                _wait_until(
                    lambda: not severed.alive,
                    timeout=20,
                    message="the severed connection to be declared dead",
                )
                _wait_until(
                    lambda: coordinator.workers[0] is not severed
                    and coordinator.workers[0].alive,
                    timeout=20,
                    message="reconnection",
                )
                merged = {
                    key[0]: marginal
                    for key, marginal in stream_ball_marginal_tasks(
                        instance, [(node, 2) for node in instance.free_nodes],
                        transport=coordinator,
                    )
                }
            assert merged == serial
        finally:
            worker.close()

    def test_worker_joining_mid_stream_takes_queued_work(self, submit_test_task):
        instance = _small_instance()
        serial = _serial_marginals(instance)
        first, second = ClusterWorker(), ClusterWorker()
        _serve(first)
        _serve(second)
        try:
            with ClusterCoordinator([first.address], reconnect=False) as coordinator:
                # Pin the only worker on a slow task so every ball chunk
                # queues up behind it, then admit the newcomer mid-stream
                # (from a timer, while the stream is blocked in
                # as_completed): rebalancing must steal queued chunks, so
                # the first results arrive well before the sleeper
                # unblocks at 2s.
                submit_test_task(coordinator, "test-sleep", seconds=2.0)
                stream = stream_ball_marginal_tasks(
                    instance,
                    [(node, 2) for node in instance.free_nodes],
                    chunk_size=1,
                    transport=coordinator,
                )
                joiner = threading.Timer(
                    0.4, coordinator.add_worker, args=[second.address]
                )
                joiner.start()
                started = time.monotonic()
                first_arrival = None
                merged = {}
                for key, marginal in stream:
                    if first_arrival is None:
                        first_arrival = time.monotonic() - started
                    merged[key[0]] = marginal
                joiner.join()
                assert len(coordinator.workers) == 2
                assert first_arrival is not None and first_arrival < 1.5, (
                    f"first result took {first_arrival}s: the joined worker "
                    "was not given a share of the queue"
                )
            assert merged == serial
        finally:
            first.close()
            second.close()

    def test_coordinator_restart_reconnects_and_reproduces(self):
        # Workers survive their coordinator: a new coordinator over the
        # same addresses handshakes afresh (the worker returned to accept)
        # and reproduces the exact same chain samples.
        instance = SamplingInstance(hardcore_model(cycle_graph(12), 1.5), {0: 0})
        workers = [ClusterWorker() for _ in range(2)]
        for worker in workers:
            _serve(worker)
        addresses = [worker.address for worker in workers]
        try:
            with ClusterCoordinator(addresses) as coordinator:
                before = run_chain_blocks(
                    instance, "glauber", 30, seeds=list(range(4)), transport=coordinator
                )
            with ClusterCoordinator(addresses) as coordinator:
                after = run_chain_blocks(
                    instance, "glauber", 30, seeds=list(range(4)), transport=coordinator
                )
            assert after == before
            serial = Runtime().run_chains(
                "glauber", instance, 30, seeds=list(range(4))
            )
            assert after == serial
        finally:
            for worker in workers:
                worker.close()

    def test_capacity_weights_reach_the_coordinator_and_bias_dispatch(self):
        light, heavy = ClusterWorker(capacity=1), ClusterWorker(capacity=3)
        _serve(light)
        _serve(heavy)
        try:
            with ClusterCoordinator(
                [light.address, heavy.address], reconnect=False
            ) as coordinator:
                assert [worker.capacity for worker in coordinator.workers] == [1, 3]
                # Whitebox: with equal queue depth the capacity-3 worker is
                # the less loaded one and must win dispatch.
                with coordinator._lock:
                    coordinator.workers[0].inflight[10**9] = None
                    coordinator.workers[1].inflight[10**9 + 1] = None
                    picked = coordinator._pick_worker()
                    assert picked is coordinator.workers[1]
                    coordinator.workers[0].inflight.clear()
                    coordinator.workers[1].inflight.clear()
        finally:
            light.close()
            heavy.close()

    def test_all_workers_lost_with_degrade_local_stays_bit_identical(self):
        instance = _small_instance()
        serial = _serial_marginals(instance)
        worker = ClusterWorker()
        _serve(worker)
        with ClusterCoordinator(
            [worker.address], reconnect=False, degrade="local"
        ) as coordinator:
            assert coordinator.submit_task("ping", 1).result(timeout=30) == 1
            worker.close()  # no revival possible
            coordinator.workers[0].sock.shutdown(socket.SHUT_RDWR)
            _wait_until(
                lambda: coordinator.live_worker_count == 0,
                timeout=15,
                message="worker loss",
            )
            with pytest.warns(RuntimeWarning, match="degrade"):
                merged = {
                    key[0]: marginal
                    for key, marginal in stream_ball_marginal_tasks(
                        instance, [(node, 2) for node in instance.free_nodes],
                        transport=coordinator,
                    )
                }
        assert merged == serial

    def test_degrade_raise_is_still_the_default_failure_mode(self):
        worker = ClusterWorker()
        _serve(worker)
        with ClusterCoordinator([worker.address], reconnect=False) as coordinator:
            worker.close()
            coordinator.workers[0].sock.shutdown(socket.SHUT_RDWR)
            _wait_until(
                lambda: coordinator.live_worker_count == 0,
                timeout=15,
                message="worker loss",
            )
            with pytest.raises(ClusterError, match="no live"):
                coordinator.submit_task("ping", 1)

    def test_runtime_degrade_knob_reaches_the_facade(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(10), 1.0), {0: 0})
        serial = Runtime().run_chains("glauber", instance, 25, seeds=[0, 1])
        worker = ClusterWorker()
        _serve(worker)
        with Runtime(
            "cluster", addresses=[worker.address], degrade="local"
        ) as runtime:
            coordinator = runtime.cluster_client()
            assert coordinator.degrade == "local"
            worker.close()
            coordinator.workers[0].sock.shutdown(socket.SHUT_RDWR)
            _wait_until(
                lambda: coordinator.live_worker_count == 0,
                timeout=15,
                message="worker loss",
            )
            with pytest.warns(RuntimeWarning, match="degrade"):
                degraded = runtime.run_chains("glauber", instance, 25, seeds=[0, 1])
        assert degraded == serial

    def test_requeued_tasks_late_result_is_dropped(self, submit_test_task):
        # Out-of-order RESULT for an already-requeued task: simulate the
        # requeue by moving the task off the worker's in-flight map, then
        # let the (now stale) RESULT arrive -- it must be dropped without
        # resolving or crashing anything, and the worker stays usable.
        worker = ClusterWorker()
        _serve(worker)
        try:
            with ClusterCoordinator([worker.address], reconnect=False) as coordinator:
                submit_test_task(coordinator, "test-sleep", seconds=0.5)
                future = coordinator.submit_task("ping", "late")
                with coordinator._lock:
                    [bound] = [
                        task
                        for task in coordinator.workers[0].inflight.values()
                        if task is not None and task.kind == "ping"
                    ]
                    # The requeue path's bookkeeping: the id leaves the map.
                    coordinator.workers[0].inflight.pop(bound.task_id)
                time.sleep(1.0)  # the stale RESULT arrives and is dropped
                assert not future.done()
                assert coordinator.live_worker_count == 1
                assert coordinator.submit_task("ping", "next").result(
                    timeout=30
                ) == "next"
        finally:
            worker.close()


# ----------------------------------------------------------------------
# stats wire upgrade: failure counts distribute across backends
# ----------------------------------------------------------------------
class TestStatsWire:
    def test_jvv_rejection_stats_identical_across_backends(self):
        from repro.sampling.jvv import jvv_chain_stats

        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.2), {0: 0})
        serial = jvv_chain_stats(instance, 40, n_chains=3, seed=5)
        assert sum(serial[1]) > 0  # the scenario actually rejects
        batched = jvv_chain_stats(
            instance, 40, n_chains=3, seed=5, runtime=Runtime("batched", n_chains=3)
        )
        process = jvv_chain_stats(
            instance,
            40,
            n_chains=3,
            seed=5,
            runtime=Runtime("process", n_chains=3, n_workers=2),
        )
        assert batched == serial
        assert process == serial
        workers = [ClusterWorker() for _ in range(2)]
        for worker in workers:
            _serve(worker)
        try:
            with Runtime(
                "cluster", addresses=[worker.address for worker in workers]
            ) as runtime:
                cluster = jvv_chain_stats(
                    instance, 40, n_chains=3, seed=5, runtime=runtime
                )
            assert cluster == serial
        finally:
            for worker in workers:
                worker.close()

    def test_chain_block_stats_flag_round_trips_the_wire(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.2), {0: 0})
        worker = ClusterWorker()
        _serve(worker)
        try:
            with ClusterCoordinator([worker.address]) as coordinator:
                states, counts = run_chain_blocks(
                    instance, "jvv", 30, seeds=[0, 1, 2], stats=True,
                    transport=coordinator,
                )
            assert len(states) == 3 and len(counts) == 3
            assert all(isinstance(count, int) for count in counts)
            plain = Runtime("batched", n_chains=3).run_chains(
                "jvv", instance, 30, seeds=[0, 1, 2]
            )
            assert states == plain
        finally:
            worker.close()

    def test_ungated_kernels_report_zero_counts(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0), {0: 0})
        pool = ForkedWorkers(1)
        try:
            states, counts = run_chain_blocks(
                instance, "glauber", 20, seeds=[0, 1], stats=True, transport=pool
            )
        finally:
            pool.shutdown()
        assert counts == [0, 0]
        assert states == Runtime().run_chains("glauber", instance, 20, seeds=[0, 1])


# ----------------------------------------------------------------------
# subprocess workers: hard crashes and leak-proof cleanup
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSubprocessChaos:
    def test_kill_after_n_tasks_requeues_bit_identically(self):
        # The armed worker hard-exits (os._exit) after two completed
        # tasks -- the OOM-killer scenario.  The merged marginals must
        # still equal the serial loop.
        instance = _small_instance()
        serial = _serial_marginals(instance)
        plans = [FaultPlan(kill_after_tasks=2), None]
        with spawn_workers(2, fault_plans=plans) as pool:
            with ClusterCoordinator(pool.addresses, reconnect=False) as coordinator:
                merged = {
                    key[0]: marginal
                    for key, marginal in stream_ball_marginal_tasks(
                        instance,
                        [(node, 2) for node in instance.free_nodes],
                        chunk_size=1,
                        transport=coordinator,
                    )
                }
                assert coordinator.live_worker_count == 1
            assert not pool.alive(0)
        assert merged == serial

    def test_authenticated_subprocess_cluster_round_trip(self):
        instance = SamplingInstance(hardcore_model(cycle_graph(10), 1.0), {0: 0})
        serial = Runtime().run_chains("glauber", instance, 20, seeds=[0, 1])
        with spawn_workers(2, auth_key=KEY) as pool:
            with ClusterCoordinator(pool.addresses, auth_key=KEY) as coordinator:
                keyed = run_chain_blocks(
                    instance, "glauber", 20, seeds=[0, 1], transport=coordinator
                )
        assert keyed == serial

    def test_abandoned_pool_is_reaped_by_the_finalizer(self):
        import gc

        pool = spawn_workers(1)
        process = pool.processes[0]
        assert pool.alive(0)
        del pool  # nobody called terminate(); the GC finalizer must
        gc.collect()
        _wait_until(
            lambda: process.poll() is not None,
            timeout=15,
            message="the finalizer to reap the abandoned worker",
        )

    def test_double_kill_and_terminate_are_idempotent(self):
        pool = spawn_workers(1)
        pool.kill(0)
        pool.kill(0)  # second kill of a reaped process must not raise
        pool.terminate()
        pool.terminate()
        assert pool._terminated

    def test_spawn_failure_surfaces_worker_stderr(self):
        with pytest.raises(RuntimeError, match="worker stderr"):
            spawn_workers(1, host="256.0.0.1")
