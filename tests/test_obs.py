"""Observability subsystem tests: inertness, stitching, bit-identity.

The contract of :mod:`repro.obs` is threefold:

* **off means off** -- with no handle installed, hot paths see ``None``,
  no trace events or metric objects exist anywhere, and the only logging
  side effect is a ``NullHandler`` on the ``repro`` root logger;
* **on never changes answers** -- sampling results are bit-identical with
  tracing enabled on every backend, because tracing draws ids from
  ``os.urandom`` and never touches NumPy RNG state;
* **spans stitch across processes** -- pool workers and cluster workers
  continue the coordinator's trace context (pool initargs / the ``_obs``
  field inside the TASK payload), so one run yields one trace id across
  every participating pid; a task without the field runs untraced.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.cluster.local import spawn_workers
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import coloring_model, hardcore_model
from repro.obs import logs as obs_logs
from repro.obs.cli import main as trace_cli
from repro.obs.trace import TraceContext, validate_event, validate_events
from repro.runtime import ChainBatch, Runtime


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with observability fully off."""
    obs.disable()
    obs_logs.reset()
    yield
    obs.disable()
    obs_logs.reset()


def _instance():
    return SamplingInstance(hardcore_model(cycle_graph(10), 1.2), {0: 1})


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        handle = obs.enable(tracing=False)
        handle.metrics.counter("c").inc()
        handle.metrics.counter("c").inc(4)
        handle.metrics.gauge("g").set(2.5)
        handle.metrics.gauge("g").add(-0.5)
        hist = handle.metrics.histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        snap = handle.metrics.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 2.0
        assert snap["h"]["count"] == 3
        assert snap["h"]["buckets"] == [1, 1, 1]  # <=1.0, <=10.0, overflow
        assert snap["h"]["min"] == 0.5 and snap["h"]["max"] == 50.0

    def test_kind_mismatch_rejected(self):
        handle = obs.enable(tracing=False)
        handle.metrics.counter("x")
        with pytest.raises(TypeError):
            handle.metrics.gauge("x")

    def test_same_object_on_repeat_lookup(self):
        handle = obs.enable(tracing=False)
        assert handle.metrics.counter("x") is handle.metrics.counter("x")


# ----------------------------------------------------------------------
# spans, ring buffer, wire context
# ----------------------------------------------------------------------
class TestTracing:
    def test_span_nesting_records_parents(self):
        handle = obs.enable()
        with obs.span("outer", depth=0):
            with obs.span("inner", depth=1):
                obs.instant("tick")
        events = {event["name"]: event for event in obs.events()}
        assert events["inner"]["parent"] == events["outer"]["span"]
        assert events["tick"]["parent"] == events["inner"]["span"]
        assert events["outer"]["trace"] == handle.tracer.trace_id
        validate_events(obs.events())

    def test_ring_buffer_bounds_memory(self):
        handle = obs.enable(ring=4)
        for index in range(10):
            obs.instant(f"e{index}")
        assert len(obs.events()) == 4
        assert handle.tracer.dropped == 6

    def test_wire_context_round_trip(self):
        obs.enable()
        with obs.span("parent"):
            wire = obs.wire_context()
        assert wire["v"] == 1
        ctx = TraceContext.from_wire(wire)
        assert ctx.trace_id == wire["trace"] and ctx.span_id == wire["span"]

    def test_foreign_version_and_junk_rejected(self):
        assert TraceContext.from_wire({"v": 99, "trace": "a", "span": "b"}) is None
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire("garbage") is None
        assert TraceContext.from_wire({"trace": "a"}) is None

    def test_record_remote_legacy_context_is_none(self):
        result, events = obs.record_remote(None, lambda: 41 + 1)
        assert result == 42 and events is None

    def test_record_remote_ships_events_under_parent_trace(self):
        obs.enable()
        with obs.span("root"):
            wire = obs.wire_context()
        result, events = obs.record_remote(
            wire, lambda: 7, name="worker.task", proc="fake-worker"
        )
        assert result == 7
        assert events and all(e["trace"] == wire["trace"] for e in events)
        assert events[-1]["parent"] == wire["span"]
        absorbed = obs.absorb_events(events)
        assert absorbed == len(events)

    def test_exporters_and_validation(self, tmp_path):
        obs.enable()
        with obs.span("work", items=3):
            obs.instant("mark")
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        assert obs.export_jsonl(str(jsonl)) == 2
        assert obs.export_chrome(str(chrome)) == 2
        for line in jsonl.read_text().splitlines():
            validate_event(json.loads(line))
        payload = json.loads(chrome.read_text())
        phases = {entry["ph"] for entry in payload["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_validate_event_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            validate_event({"name": "x"})
        good = dict(
            name="x", cat="span", trace="t", span="s", parent=None,
            ts=1.0, dur=0.0, pid=1, tid=1, proc="main", attrs={},
        )
        validate_event(good)
        with pytest.raises(ValueError):
            validate_event({**good, "dur": -1.0})

    def test_trace_cli_reads_both_formats(self, tmp_path, capsys):
        obs.enable()
        with obs.span("cli-span"):
            pass
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        obs.export_jsonl(str(jsonl))
        obs.export_chrome(str(chrome))
        for path in (jsonl, chrome):
            assert trace_cli([str(path), "--validate"]) == 0
            assert "schema OK" in capsys.readouterr().out
        assert trace_cli([str(jsonl)]) == 0
        assert "cli-span" in capsys.readouterr().out


# ----------------------------------------------------------------------
# off means off
# ----------------------------------------------------------------------
class TestObsOffInert:
    def test_module_level_noops(self):
        assert obs.active() is None
        assert obs.events() == []
        assert obs.snapshot() == {}
        assert obs.wire_context() is None
        assert obs.drain_events() == []
        assert obs.absorb_events([{"name": "x"}]) == 0
        with obs.span("ignored", anything=1):
            obs.instant("also ignored")
        assert obs.events() == []
        with pytest.raises(RuntimeError):
            obs.export_jsonl("/tmp/nope.jsonl")

    def test_span_off_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_logging_side_effects_are_null_only(self):
        root = logging.getLogger("repro")
        assert all(
            isinstance(handler, logging.NullHandler) for handler in root.handlers
        )
        assert obs_logs.installed_handler() is None
        # Emitting through the hierarchy with obs off must not print
        # (no lastResort fallback) and must not raise.
        obs.log_event(
            obs.get_logger("cluster.test"), logging.WARNING, "event", key="value"
        )

    def test_runs_leave_no_trace_state(self):
        runtime = Runtime(backend="serial")
        try:
            runtime.run_chains("glauber", _instance(), 10, seeds=range(2))
        finally:
            runtime.shutdown()
        assert obs.active() is None
        assert obs.events() == []

    def test_ball_cache_stats_without_obs(self):
        instance = _instance()
        cache = instance.distribution.ball_cache()
        for node in (1, 2, 3, 1):
            cache.compiled_ball(node, 1)
        stats = cache.stats()
        assert stats["compiles"] == 3
        assert stats["hits"] == 1
        assert stats["misses"] == 3
        assert stats["size"] >= 3
        assert set(stats) == {
            "hits", "misses", "compiles", "drops", "size",
        }


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestStructuredLogs:
    def test_configure_formats_event_records(self, capsys):
        import io

        stream = io.StringIO()
        obs_logs.configure(logging.INFO, stream=stream)
        obs.log_event(
            obs.get_logger("cluster.worker"), logging.INFO,
            "worker.listening", port=9000, host="x",
        )
        text = stream.getvalue()
        assert "repro.cluster.worker" in text
        assert "worker.listening" in text and "port=9000" in text

    def test_configure_never_stacks_handlers(self):
        obs_logs.configure(logging.INFO)
        second = obs_logs.configure(logging.DEBUG)
        assert obs_logs.installed_handler() is second
        root = logging.getLogger("repro")
        real = [
            handler for handler in root.handlers
            if not isinstance(handler, logging.NullHandler)
        ]
        assert len(real) == 1
        obs_logs.reset()
        assert obs_logs.installed_handler() is None

    def test_caplog_sees_cluster_records(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            obs.log_event(
                obs.get_logger("cluster.coordinator"), logging.WARNING,
                "cluster.worker_died", address="h:1", reason="test",
            )
        assert any("cluster.worker_died" in rec.message for rec in caplog.records)


# ----------------------------------------------------------------------
# bit-identity across backends
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "batched", "process"])
    def test_results_identical_with_tracing(self, backend):
        instance = _instance()
        kwargs = {"n_chains": 2} if backend != "serial" else {}
        baseline = Runtime(backend=backend, **kwargs)
        try:
            expected = baseline.run_chains("glauber", instance, 30, seeds=range(4))
        finally:
            baseline.shutdown()
        traced = Runtime(backend=backend, obs=True, **kwargs)
        try:
            observed = traced.run_chains("glauber", instance, 30, seeds=range(4))
            events = obs.events()
            assert events, "tracing on must record events"
            assert len({event["trace"] for event in events}) == 1
            snap = traced.snapshot()
            assert snap["backend"] == backend and "obs" in snap
        finally:
            traced.shutdown()
        assert observed == expected
        assert obs.active() is None  # shutdown released the owned handle

    def test_jvv_waves_identical_with_tracing_and_reported(self):
        from repro.graphs import torus_graph
        from repro.sampling.jvv import jvv_chain_stats

        instance = SamplingInstance(hardcore_model(cycle_graph(12), 1.2), {0: 1})
        stuck = SamplingInstance(coloring_model(torus_graph(4, 4), 3))
        expected = jvv_chain_stats(instance, 40, seed=5, runtime="batched")
        obs.enable()
        try:
            observed = jvv_chain_stats(instance, 40, seed=5, runtime="batched")
            batch = ChainBatch(instance, n_chains=2, seed=1)
            batch.advance("jvv", 11, statistic=lambda codes: codes.sum(axis=1))
            ChainBatch(stuck, n_chains=2, seed=1).advance("jvv", 20)
            events = obs.events()
        finally:
            obs.disable()
        # States and failure counts are unchanged by tracing.
        assert observed == expected
        schedules = [
            event["attrs"] for event in events if event["name"] == "runtime.scan.schedule"
        ]
        assert [(attrs["steps"], attrs["per_step"]) for attrs in schedules] == [
            (40, None),
            (11, "statistic"),
            (20, "may_stick"),
        ]
        assert all(attrs["kernel"] == "jvv" for attrs in schedules)
        assert schedules[0]["waves"] < 40
        assert [attrs["waves"] for attrs in schedules[1:]] == [11, 20]
        validate_events(events)

    def test_process_backend_stitches_pool_worker_spans(self):
        instance = SamplingInstance(coloring_model(cycle_graph(8), 3), {0: 0})
        # inline_threshold=0: this small workload must reach the real pool
        # (the point is the worker-side spans), not the in-process guard.
        runtime = Runtime(
            backend="process", n_chains=2, n_workers=2, obs=True, inline_threshold=0
        )
        try:
            runtime.run_chains("glauber", instance, 25, seeds=range(4))
            events = obs.events()
            procs = {event["proc"] for event in events}
            assert len({event["trace"] for event in events}) == 1
            # Pool workers shipped their spans back to the parent ring.
            assert "pool-worker" in procs and "main" in procs
            validate_events(events)
        finally:
            runtime.shutdown()


    def test_table_build_instant_names_the_mode(self):
        from repro.graphs import star_graph

        in_cap = SamplingInstance(coloring_model(cycle_graph(8), 3), {0: 0})
        over_cap = SamplingInstance(coloring_model(star_graph(8), 3), {1: 0})
        runtime = Runtime(backend="batched", n_chains=2, obs=True)
        try:
            for instance in (in_cap, over_cap, in_cap):
                runtime.run_chains("glauber", instance, 10, seeds=range(2))
            events = obs.events()
        finally:
            runtime.shutdown()
        built = [
            event["attrs"] for event in events if event["name"] == "runtime.tables.built"
        ]
        # One build per model: the third call reuses the engine's tables.
        assert [attrs["mode"] for attrs in built] == ["blanket", "gather"]
        assert built[0]["tables"] == 1 and built[0]["rows"] == 9
        assert built[1]["tables"] == 0 and built[1]["rows"] == 0
        assert all(attrs["bytes"] > 0 for attrs in built)
        tables = in_cap.distribution.compiled_engine().batched_tables
        # The weight rows, their cumulative sums and the lookup records.
        assert built[0]["bytes"] == 2 * tables.rows.nbytes + tables.lookup.nbytes
        validate_events(events)

    def test_packed_path_instant_names_fused_and_groupwise(self):
        from repro.runtime import PackedBatch

        hardcore = _instance()
        other = SamplingInstance(hardcore_model(cycle_graph(7), 0.8))
        coloring = SamplingInstance(coloring_model(cycle_graph(6), 3), {0: 0})
        packs = [
            ("glauber", [hardcore, other]),  # one alphabet, free nodes: fused
            ("glauber", [hardcore, coloring]),  # mixed alphabets: groupwise
            ("luby-glauber", [hardcore, other]),  # no fused step: groupwise
        ]

        def advance_all():
            return [
                PackedBatch(
                    [(instance, [g, g + 10]) for g, instance in enumerate(instances)]
                )
                .advance(kernel, 6)
                .configurations()
                for kernel, instances in packs
            ]

        plain = advance_all()
        obs.enable()
        try:
            traced = advance_all()
            events = obs.events()
        finally:
            obs.disable()
        paths = [
            (event["attrs"]["path"], event["attrs"]["kernel"], event["attrs"]["groups"])
            for event in events
            if event["name"] == "runtime.chains.packed_path"
        ]
        assert paths == [
            ("fused", "glauber", 2),
            ("groupwise", "glauber", 2),
            ("groupwise", "luby-glauber", 2),
        ]
        assert traced == plain
        validate_events(events)


# ----------------------------------------------------------------------
# cluster stitching
# ----------------------------------------------------------------------
class TestClusterTracing:
    def test_cluster_round_trip_one_trace_id(self):
        instance = _instance()
        with spawn_workers(2, auth_key="obs-test-key") as pool:
            baseline = Runtime(
                backend="cluster", addresses=pool.addresses,
                auth_key="obs-test-key",
            )
            try:
                expected = baseline.run_chains(
                    "glauber", instance, 30, seeds=range(4)
                )
            finally:
                baseline.shutdown()
            traced = Runtime(
                backend="cluster", addresses=pool.addresses,
                auth_key="obs-test-key", obs=True,
            )
            try:
                observed = traced.run_chains(
                    "glauber", instance, 30, seeds=range(4)
                )
                events = obs.events()
                procs = {event["proc"] for event in events}
                names = {event["name"] for event in events}
                assert len({event["trace"] for event in events}) == 1
                assert "cluster-worker" in procs and "main" in procs
                assert "worker.task" in names  # worker-side span shipped back
                validate_events(events)

                # A no-context frame while tracing is on: the worker
                # answers (task_id, result, None), and the echo resolves
                # normally.
                future = traced._cluster.submit_task("ping", ("untraced",))
                assert future.result(timeout=30) == ("untraced",)

                snap = traced.snapshot()
                assert snap["cluster"]["live_workers"] == 2
                assert snap["cluster"]["authenticated"] is True
            finally:
                traced.shutdown()
        assert observed == expected
