"""End-to-end tests of the sampling-as-a-service layer (repro.serve).

Every test drives the real asyncio server over a real localhost socket
through the bundled client (``asyncio.run`` inside plain test functions
-- no pytest plugin dependency).  The load-bearing guarantees:

* a served sample is *bit-identical* to the same ``Runtime.run_chains``
  call made directly with the same seed -- solo and coalesced alike;
* N concurrent requests coalesce into at most ``ceil(N / max_batch)``
  batches (asserted via the obs counters AND the batch ids the
  responses carry), with one coalescer per model and with one shared
  coalescer for every model (``cross_model=True``), where requests for
  different models share one packed batch;
* operational behaviour: deadline -> 504 with the queued work cancelled,
  queue cap -> 429, graceful drain completes in-flight requests,
  registry errors -> 404/400.
"""

import asyncio
import json
import math
import threading
import time

import pytest

from repro import obs
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.inference.ssm_inference import padded_ball_marginal
from repro.models import coloring_model, hardcore_model
from repro.runtime import PackedBatch, Runtime, chain_seed_sequences
from repro.serve import ModelRegistry, SamplingServer, encode_state
from repro.serve.client import (
    request_json,
    request_ndjson,
    sample_payload,
)


def _registry():
    instance = SamplingInstance(
        hardcore_model(cycle_graph(10), fugacity=1.2), {0: 1}
    )
    registry = ModelRegistry()
    registry.register_instance("hc", instance)
    return registry


def _expected_states(entry, kernel, count, seed, n_chains):
    """The JSON-level solo baseline: run_chains + the canonical encoding."""
    with Runtime("batched", n_chains=n_chains) as runtime:
        states = runtime.run_chains(kernel, entry.instance, count, seed=seed)
    return json.loads(
        json.dumps([encode_state(entry.nodes, state) for state in states])
    )


def _serve(test_body, **server_kwargs):
    """Start a server, run ``test_body(host, port, server)``, close."""

    async def main():
        registry = server_kwargs.pop("registry", None) or _registry()
        server = SamplingServer(registry, **server_kwargs)
        host, port = await server.start()
        try:
            return await test_body(host, port, server)
        finally:
            await server.close()

    return asyncio.run(main())


CROSS_MODEL = pytest.mark.parametrize(
    "cross_model", [False, True], ids=["per-model", "cross-model"]
)


class TestSampleEndpoint:
    def test_solo_request_is_bit_identical_to_direct_run_chains(self):
        registry = _registry()
        entry = registry.get("hc")

        async def body(host, port, server):
            status, response = await request_json(
                host,
                port,
                "POST",
                "/v1/sample",
                sample_payload("hc", "glauber", 25, seed=7, n_chains=3),
            )
            assert status == 200
            assert response["states"] == _expected_states(
                entry, "glauber", 25, 7, 3
            )
            assert response["n_chains"] == 3 and len(response["states"]) == 3
            assert response["batch_size"] == 1

        _serve(body, registry=registry)

    def test_every_registered_kernel_serves_bit_identically(self):
        registry = _registry()
        entry = registry.get("hc")
        from repro.sampling import registered_kernels

        async def body(host, port, server):
            for kernel in sorted(registered_kernels()):
                status, response = await request_json(
                    host,
                    port,
                    "POST",
                    "/v1/sample",
                    sample_payload("hc", kernel, 12, seed=3, n_chains=2),
                )
                assert status == 200, (kernel, response)
                assert response["states"] == _expected_states(
                    entry, kernel, 12, 3, 2
                ), f"served {kernel} diverges from the direct run"

        _serve(body, registry=registry)

    @CROSS_MODEL
    def test_concurrent_requests_coalesce_and_stay_bit_identical(self, cross_model):
        """16 concurrent requests, max_batch=4: <= 4 batches
        (obs counters AND response batch ids agree), every response
        bit-identical to its solo baseline."""
        registry = _registry()
        entry = registry.get("hc")
        n_requests, max_batch = 16, 4
        obs.enable()
        try:
            handle = obs.active()
            batches_before = handle.metrics.counter("serve.batches").value
            coalesced_before = handle.metrics.counter(
                "serve.coalesced_requests"
            ).value

            async def body(host, port, server):
                tasks = [
                    request_json(
                        host,
                        port,
                        "POST",
                        "/v1/sample",
                        sample_payload("hc", "glauber", 20, seed=100 + i),
                    )
                    for i in range(n_requests)
                ]
                return await asyncio.gather(*tasks)

            results = _serve(
                body,
                registry=registry,
                max_batch=max_batch,
                max_wait_ms=250,
                cross_model=cross_model,
            )
            batches = (
                handle.metrics.counter("serve.batches").value - batches_before
            )
            coalesced = (
                handle.metrics.counter("serve.coalesced_requests").value
                - coalesced_before
            )
        finally:
            obs.disable()
        assert batches <= math.ceil(n_requests / max_batch)
        assert coalesced == n_requests
        batch_ids = {response["batch_id"] for status, response in results}
        assert len(batch_ids) == batches
        assert sum(response["batch_size"] for _, response in results) >= n_requests
        for i, (status, response) in enumerate(results):
            assert status == 200
            assert response["states"] == _expected_states(
                entry, "glauber", 20, 100 + i, 1
            ), f"request {i} lost bit-identity inside its coalesced batch"

    @CROSS_MODEL
    def test_deadline_returns_504_and_cancels_queued_work(self, cross_model):
        """A lone request in a never-filling bucket times out -> 504, and
        the all-cancelled bucket is dropped without running a batch."""

        async def body(host, port, server):
            status, response = await request_json(
                host,
                port,
                "POST",
                "/v1/sample",
                sample_payload("hc", "glauber", 10, deadline_ms=80),
            )
            assert status == 504, response
            # Give the (cancelled) bucket's timer a chance to fire, then
            # confirm no batch ever ran for the abandoned request.
            await asyncio.sleep(0.1)
            coalescer = server._coalescers["hc"]
            assert coalescer.batches == 0
            assert coalescer.outstanding == 0

        # max_batch larger than the request count and a long window: the
        # request can only be answered by the timer, which outlives the
        # deadline.
        _serve(body, max_batch=64, max_wait_ms=10_000, cross_model=cross_model)

    @CROSS_MODEL
    def test_queue_cap_returns_429(self, cross_model):
        async def body(host, port, server):
            first = [
                asyncio.ensure_future(
                    request_json(
                        host,
                        port,
                        "POST",
                        "/v1/sample",
                        sample_payload("hc", "glauber", 10, seed=i),
                    )
                )
                for i in range(2)
            ]
            # Wait until both are admitted (queued in the coalescer).
            for _ in range(200):
                await asyncio.sleep(0.01)
                coalescer = server._coalescers.get("hc")
                if coalescer is not None and coalescer.outstanding >= 2:
                    break
            status, response = await request_json(
                host,
                port,
                "POST",
                "/v1/sample",
                sample_payload("hc", "glauber", 10, seed=99),
            )
            assert status == 429, response
            assert "outstanding" in response["error"]
            # Unblock the queued pair so close() drains clean.
            results = await asyncio.gather(*first)
            assert all(status == 200 for status, _ in results)

        _serve(
            body,
            max_batch=64,
            max_wait_ms=3_000,
            max_queue=2,
            cross_model=cross_model,
        )

    @CROSS_MODEL
    def test_graceful_drain_completes_in_flight_requests(self, cross_model):
        """Requests queued when close() is called still get 200 + correct
        states: the drain flushes them as one final batch."""
        registry = _registry()
        entry = registry.get("hc")

        async def body(host, port, server):
            tasks = [
                asyncio.ensure_future(
                    request_json(
                        host,
                        port,
                        "POST",
                        "/v1/sample",
                        sample_payload("hc", "glauber", 15, seed=40 + i),
                    )
                )
                for i in range(3)
            ]
            for _ in range(200):
                await asyncio.sleep(0.01)
                coalescer = server._coalescers.get("hc")
                if coalescer is not None and coalescer.outstanding >= 3:
                    break
            await server.close()  # idempotent with the fixture's close
            results = await asyncio.gather(*tasks)
            for i, (status, response) in enumerate(results):
                assert status == 200
                assert response["states"] == _expected_states(
                    entry, "glauber", 15, 40 + i, 1
                )
            # After the drain, new requests are refused.
            status, response = await request_json(
                host, port, "GET", "/v1/healthz"
            )

        # The post-drain connection attempt may fail outright (listener
        # closed) -- both outcomes are a correct refusal.
        async def wrapped(host, port, server):
            try:
                await body(host, port, server)
            except OSError:
                pass

        _serve(
            wrapped,
            registry=registry,
            max_batch=64,
            max_wait_ms=5_000,
            cross_model=cross_model,
        )


class TestPackedBatches:
    """Requests for several pack groups (models, or one model under
    several initials) in one window ride one batch, and every response
    equals its solo ``run_chains``."""

    def _two_model_batch(self, other_name, other_instance, fused):
        registry = _registry()
        registry.register_instance(other_name, other_instance)
        entries = [registry.get("hc"), registry.get(other_name)]
        # The pack shape this pair takes inside run_packed.
        pack = PackedBatch(
            [(entry.instance, chain_seed_sequences(1, 2)) for entry in entries]
        )
        assert pack.fusable() is fused
        obs.enable()
        try:
            handle = obs.active()
            packed_before = handle.metrics.counter("serve.packed_batches").value

            async def body(host, port, server):
                return await asyncio.gather(
                    *(
                        request_json(
                            host,
                            port,
                            "POST",
                            "/v1/sample",
                            sample_payload(
                                entry.name, "glauber", 30, seed=60 + i, n_chains=3
                            ),
                        )
                        for i, entry in enumerate(entries)
                    )
                )

            results = _serve(
                body,
                registry=registry,
                max_batch=2,
                max_wait_ms=5_000,
                cross_model=True,
            )
            packed = (
                handle.metrics.counter("serve.packed_batches").value - packed_before
            )
        finally:
            obs.disable()
        assert packed == 1
        assert len({response["batch_id"] for _, response in results}) == 1
        for i, (entry, (status, response)) in enumerate(zip(entries, results)):
            assert status == 200, response
            assert response["batch_size"] == 2
            assert response["states"] == _expected_states(
                entry, "glauber", 30, 60 + i, 3
            ), f"{entry.name} lost bit-identity inside the packed batch"

    @pytest.mark.parametrize("kernel", ["glauber", "luby-glauber", "jvv"])
    def test_one_model_under_two_initials_shares_one_batch(self, kernel):
        """Same model, different ``initial``: one batch of two pack groups
        (per-model server), each equal to its solo run."""
        registry = _registry()
        entry = registry.get("hc")
        initial = {node: 0 for node in entry.nodes}
        initial[0] = 1
        payloads = [
            sample_payload("hc", kernel, 9, seed=5, n_chains=2),
            {**sample_payload("hc", kernel, 9, seed=6, n_chains=2), "initial": initial},
        ]

        async def body(host, port, server):
            return await asyncio.gather(
                *(
                    request_json(host, port, "POST", "/v1/sample", payload)
                    for payload in payloads
                )
            )

        results = _serve(body, registry=registry, max_batch=2, max_wait_ms=5_000)
        assert len({response["batch_id"] for _, response in results}) == 1
        with Runtime("batched", n_chains=2) as runtime:
            solo = [
                runtime.run_chains(kernel, entry.instance, 9, seed=5),
                runtime.run_chains(kernel, entry.instance, 9, seed=6, initial=initial),
            ]
        for (status, response), states in zip(results, solo):
            assert status == 200, response
            assert response["states"] == json.loads(
                json.dumps([encode_state(entry.nodes, state) for state in states])
            )

    @CROSS_MODEL
    def test_malformed_initial_is_400_and_never_joins_a_batch(self, cross_model):
        """A partial, over-full or out-of-alphabet ``initial`` is refused at
        admission; a valid request in the same window still matches its
        solo run."""
        registry = _registry()
        entry = registry.get("hc")
        full = {str(node): 0 for node in entry.nodes}
        bad_initials = [
            {"0": 99},
            {node: 0 for node in list(full)[1:]},
            {**full, "0": 99},
            {**full, "0": [1]},
            {**full, "77": 0},
        ]

        async def body(host, port, server):
            valid = sample_payload("hc", "glauber", 9, seed=4, n_chains=2)
            return await asyncio.gather(
                request_json(host, port, "POST", "/v1/sample", valid),
                *(
                    request_json(
                        host,
                        port,
                        "POST",
                        "/v1/sample",
                        {**sample_payload("hc", "glauber", 9, seed=i), "initial": bad},
                    )
                    for i, bad in enumerate(bad_initials)
                ),
            )

        (status, response), *rejected = _serve(
            body,
            registry=registry,
            max_batch=len(bad_initials) + 1,
            max_wait_ms=50,
            cross_model=cross_model,
        )
        assert status == 200, response
        assert response["batch_size"] == 1
        assert response["states"] == _expected_states(entry, "glauber", 9, 4, 2)
        for (status, error), bad in zip(rejected, bad_initials):
            assert status == 400, (bad, error)
            assert "initial" in error["error"]

    @CROSS_MODEL
    def test_a_failing_group_fails_alone(self, cross_model):
        """An initial colouring luby-glauber cannot move from fails its own
        request; the request it shared a packed batch with (same model, or
        another model under ``cross_model``) still matches its solo run."""
        registry = _registry()
        grid = SamplingInstance(coloring_model(grid_graph(3, 3), num_colors=3))
        registry.register_instance("grid", grid)
        # Node (1, 1) sees all three colours among its neighbours.
        stuck = {node: 0 for node in registry.get("grid").nodes}
        stuck[(1, 0)], stuck[(1, 2)] = 1, 2
        with Runtime("batched", n_chains=2) as runtime:
            with pytest.raises(ValueError, match="no feasible value"):
                runtime.run_chains("luby-glauber", grid, 6, seed=1, initial=stuck)
        other = registry.get("hc" if cross_model else "grid")

        async def body(host, port, server):
            return await asyncio.gather(
                request_json(
                    host,
                    port,
                    "POST",
                    "/v1/sample",
                    sample_payload(other.name, "luby-glauber", 6, seed=8, n_chains=2),
                ),
                request_json(
                    host,
                    port,
                    "POST",
                    "/v1/sample",
                    {
                        **sample_payload("grid", "luby-glauber", 6, seed=1, n_chains=2),
                        "initial": {f"{r},{c}": v for (r, c), v in stuck.items()},
                    },
                ),
            )

        (status, response), (failed, error) = _serve(
            body,
            registry=registry,
            max_batch=2,
            max_wait_ms=5_000,
            cross_model=cross_model,
        )
        assert failed == 400 and "no feasible value" in error["error"], error
        assert status == 200, response
        assert response["batch_size"] == 2
        assert response["states"] == _expected_states(other, "luby-glauber", 6, 8, 2)

    def test_two_hardcore_models_share_one_fused_batch(self):
        other = SamplingInstance(hardcore_model(path_graph(9), fugacity=1.1))
        self._two_model_batch("hc2", other, fused=True)

    def test_hardcore_and_colouring_take_the_groupwise_fallback(self):
        other = SamplingInstance(coloring_model(cycle_graph(6), num_colors=3), {0: 0})
        self._two_model_batch("col", other, fused=False)


class TestRegistryEndpoints:
    def test_unknown_model_is_404(self):
        async def body(host, port, server):
            status, response = await request_json(
                host, port, "POST", "/v1/sample", sample_payload("nope", count=5)
            )
            assert status == 404
            assert "unknown model" in response["error"]

        _serve(body)

    def test_unknown_kernel_and_malformed_payloads_are_400(self):
        async def body(host, port, server):
            cases = [
                {"model": "hc", "kernel": "bogus", "count": 5},
                {"model": "hc", "count": 0},
                {"model": "hc", "count": 5, "n_chains": 0},
                {"model": "hc", "count": 5, "deadline_ms": -3},
                {"count": 5},
                [{"model": "hc", "count": 5}],
                "hc",
                {"model": "hc", "count": 1e400},
                {"model": "hc", "count": 5, "seed": 1e400},
                {"model": "hc", "count": 5, "n_chains": 1e400},
                {"model": "hc", "count": 5, "deadline_ms": "nan"},
                {"model": "hc", "count": 5, "deadline_ms": "inf"},
            ]
            for payload in cases:
                status, response = await request_json(
                    host, port, "POST", "/v1/sample", payload
                )
                assert status == 400, (payload, response)
            marginal_cases = [
                [{"model": "hc", "radius": 1}],
                "hc",
                {"model": "hc", "radius": 1e400},
                {"model": "hc", "radius": 1, "deadline_ms": "nan"},
                {"model": "hc", "radius": 1, "deadline_ms": -3},
            ]
            for payload in marginal_cases:
                status, response = await request_json(
                    host, port, "POST", "/v1/marginal", payload
                )
                assert status == 400, (payload, response)

        _serve(body)

    def test_put_registers_a_model_and_serves_it(self):
        async def body(host, port, server):
            spec = {
                "family": "hardcore",
                "graph": {"kind": "cycle", "n": 8},
                "fugacity": 1.5,
                "pinning": {"0": 1},
            }
            status, response = await request_json(
                host, port, "PUT", "/v1/models/put-model", spec
            )
            assert status == 200
            assert response["registered"]["name"] == "put-model"
            status, listing = await request_json(host, port, "GET", "/v1/models")
            assert "put-model" in [m["name"] for m in listing["models"]]
            status, sampled = await request_json(
                host,
                port,
                "POST",
                "/v1/sample",
                sample_payload("put-model", "glauber", 10, seed=2),
            )
            assert status == 200
            # Bit-identity against an instance built locally from the
            # same declarative payload.
            from repro.serve import build_instance
            from repro.serve.registry import ModelRegistry as _Reg

            local = _Reg()
            entry = local.register_instance(
                "local", build_instance(spec)[0]
            )
            assert sampled["states"] == _expected_states(
                entry, "glauber", 10, 2, 1
            )

        _serve(body)

    def test_invalid_registrations_are_400(self):
        cycle = {"kind": "cycle", "n": 5}

        async def body(host, port, server):
            cases = [
                ("bad..name!!", {"family": "hardcore", "graph": {"kind": "cycle", "n": 5}}),
                ("ok", {"family": "nope", "graph": {"kind": "cycle", "n": 5}}),
                ("ok", {"family": "hardcore", "graph": {"kind": "moebius", "n": 5}}),
                ("ok", {"family": "coloring", "graph": {"kind": "cycle", "n": 5}}),
                ("ok", {"family": "hardcore"}),
                ("ok", []),
                # JSON's non-finite numbers (Python's json emits and accepts
                # NaN, Infinity and -Infinity).
                ("ok", {"family": "ising", "graph": cycle, "interaction": math.inf}),
                ("ok", {"family": "ising", "graph": cycle, "interaction": -math.inf}),
                ("ok", {"family": "hardcore", "graph": cycle, "fugacity": math.nan}),
                ("ok", {"family": "matching", "graph": cycle, "edge_weight": math.inf}),
                ("ok", {"family": "hardcore", "graph": cycle, "fugacity": "Infinity"}),
            ]
            for name, payload in cases:
                status, response = await request_json(
                    host, port, "PUT", f"/v1/models/{name}", payload
                )
                assert status == 400, (name, payload, response)
            # Infeasible pinning: two adjacent occupied hardcore nodes.
            status, response = await request_json(
                host,
                port,
                "PUT",
                "/v1/models/ok",
                {
                    "family": "hardcore",
                    "graph": {"kind": "cycle", "n": 5},
                    "pinning": {"0": 1, "1": 1},
                },
            )
            assert status == 400

        _serve(body)

    def test_registration_can_be_disabled(self):
        async def body(host, port, server):
            status, response = await request_json(
                host,
                port,
                "PUT",
                "/v1/models/denied",
                {"family": "hardcore", "graph": {"kind": "cycle", "n": 5}},
            )
            assert status == 405

        _serve(body, allow_register=False)


class TestMarginalEndpoint:
    def test_streamed_marginals_match_the_serial_loop(self):
        registry = _registry()
        instance = registry.get("hc").instance
        expected = {
            node: padded_ball_marginal(instance, node, 1)
            for node in instance.free_nodes
        }

        async def body(host, port, server):
            status, lines = await request_ndjson(
                host, port, "/v1/marginal", {"model": "hc", "radius": 1}
            )
            assert status == 200
            served = {
                line["node"]: {value: p for value, p in line["marginal"]}
                for line in lines
            }
            assert served == expected

        _serve(body, registry=registry)

    @CROSS_MODEL
    def test_marginals_run_on_the_thread_that_samples_the_model(
        self, cross_model, monkeypatch
    ):
        """One thread per instance: the marginal stream of a model runs on
        the executor of the coalescer that serves its samples."""
        threads = {}
        for method, work in [
            ("run_chains", "sample"),
            ("run_packed", "sample"),
            ("stream_ball_marginals", "marginal"),
        ]:

            def traced(*args, _original=getattr(Runtime, method), _work=work, **kwargs):
                threads.setdefault(_work, set()).add(threading.current_thread().name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(Runtime, method, traced)

        async def body(host, port, server):
            status, _ = await request_json(
                host, port, "POST", "/v1/sample", sample_payload("hc", count=5)
            )
            assert status == 200
            status, lines = await request_ndjson(
                host, port, "/v1/marginal", {"model": "hc", "radius": 1}
            )
            assert status == 200 and lines

        _serve(body, cross_model=cross_model)
        assert len(threads["sample"]) == 1
        assert threads["marginal"] == threads["sample"]

    def test_marginal_stream_stops_at_its_deadline(self, monkeypatch):
        import repro.inference.ssm_inference as ssm_inference

        computed = []
        original = ssm_inference.padded_ball_marginal

        def counted(instance, center, radius, **kwargs):
            computed.append(center)
            return original(instance, center, radius, **kwargs)

        monkeypatch.setattr(ssm_inference, "padded_ball_marginal", counted)

        async def body(host, port, server):
            # A deadline of one microsecond on a large radius has passed by
            # the time the first ball lands: the stream stops there and ends
            # with its error line instead of computing the other balls.
            status, lines = await request_ndjson(
                host,
                port,
                "/v1/marginal",
                {"model": "hc", "radius": 6, "deadline_ms": 0.001},
            )
            assert status == 200
            assert len(lines) == 1 and "deadline" in lines[0]["error"], lines
            assert len(computed) == 1, computed
            status, lines = await request_ndjson(
                host, port, "/v1/marginal", {"model": "hc", "radius": 1}
            )
            assert status == 200 and len(lines) == 9

        _serve(body)

    def test_marginal_stream_stops_when_its_client_disconnects(self, monkeypatch):
        import repro.inference.ssm_inference as ssm_inference

        computed = []
        original = ssm_inference.padded_ball_marginal

        def counted(instance, center, radius, **kwargs):
            computed.append(center)
            time.sleep(0.01)  # leaves the event loop time to see the hang-up
            return original(instance, center, radius, **kwargs)

        monkeypatch.setattr(ssm_inference, "padded_ball_marginal", counted)
        registry = ModelRegistry()
        registry.register_instance(
            "grid", SamplingInstance(hardcore_model(grid_graph(12, 12), 1.0), {})
        )

        async def body(host, port, server):
            # The client reads the first marginal line and hangs up: the
            # handler stops the pump at its next landed ball instead of
            # computing the other 143 on the model's executor thread.
            reader, writer = await asyncio.open_connection(host, port)
            payload = json.dumps({"model": "grid", "radius": 3}).encode("utf-8")
            writer.write(
                b"POST /v1/marginal HTTP/1.1\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode("latin-1")
                + payload
            )
            await writer.drain()
            while (await reader.readline()) not in (b"\r\n", b""):
                pass  # status line and headers
            await reader.readline()  # the first chunk's size line
            assert "marginal" in json.loads(await reader.readline())
            writer.close()
            # The same model's executor thread runs this request after the
            # pump has returned.
            status, response = await request_json(
                host, port, "POST", "/v1/sample", sample_payload("grid", count=5)
            )
            assert status == 200 and len(response["states"]) == 1
            assert len(computed) < 144, len(computed)

        _serve(body, registry=registry)

    def test_marginal_validation_errors(self):
        async def body(host, port, server):
            status, _ = await request_json(
                host, port, "POST", "/v1/marginal", {"model": "nope", "radius": 1}
            )
            assert status == 404
            status, _ = await request_json(
                host, port, "POST", "/v1/marginal", {"model": "hc", "radius": -1}
            )
            assert status == 400
            status, _ = await request_json(
                host,
                port,
                "POST",
                "/v1/marginal",
                {"model": "hc", "radius": 1, "nodes": ["77"]},
            )
            assert status == 400

        _serve(body)


class TestOperational:
    @CROSS_MODEL
    def test_healthz_and_snapshot_serving_block(self, cross_model):
        async def body(host, port, server):
            status, before = await request_json(host, port, "GET", "/v1/healthz")
            assert status == 200 and before["status"] == "ok"
            await request_json(
                host,
                port,
                "POST",
                "/v1/sample",
                sample_payload("hc", "glauber", 5, seed=1),
            )
            status, after = await request_json(host, port, "GET", "/v1/healthz")
            # One block per coalescer, keyed by its name: a shared
            # coalescer's totals are reported once, not once per model.
            name = "*" if cross_model else "hc"
            assert list(after["serving"]) == [name]
            serving = after["serving"][name]
            assert serving["batches"] == 1
            assert serving["served"] == 1
            assert serving["served_by_model"] == {"hc": 1}
            assert serving["outstanding"] == 0
            assert serving["model"] == name
            # The coalescer's runtime snapshot carries the serving block.
            snapshot = server._coalescers["hc"].runtime.snapshot()
            assert snapshot["serve"] == serving

        _serve(body, cross_model=cross_model)

    def test_unknown_route_is_404_and_bad_json_is_400(self):
        async def body(host, port, server):
            status, _ = await request_json(host, port, "GET", "/v1/nothing")
            assert status == 404
            from repro.serve.client import request as raw_request

            status, _, body_bytes = await raw_request(
                host, port, "POST", "/v1/sample", payload=None
            )
            # Empty body decodes as {} -> missing model -> 400.
            assert status == 400
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /v1/sample HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson"
            )
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()
            await writer.wait_closed()

        _serve(body)

    def test_request_ids_and_batch_span_are_stitched(self):
        """Each request gets its own id; the coalesced batch's span lists
        every request id it served (the trace stitch)."""
        obs.enable()
        try:

            async def body(host, port, server):
                tasks = [
                    request_json(
                        host,
                        port,
                        "POST",
                        "/v1/sample",
                        sample_payload("hc", "glauber", 10, seed=i),
                    )
                    for i in range(4)
                ]
                return await asyncio.gather(*tasks)

            results = _serve(body, max_batch=4, max_wait_ms=250)
            request_ids = {response["request_id"] for _, response in results}
            assert len(request_ids) == 4
            batch_events = [
                event
                for event in obs.events()
                if event.get("name") == "serve.batch"
            ]
            served = set()
            for event in batch_events:
                served.update(event["attrs"]["requests"].split(","))
            assert request_ids <= served
            trace_ids = {event["trace"] for event in obs.events()}
            assert len(trace_ids) == 1
        finally:
            obs.disable()

    def test_batch_size_histogram_observes_every_batch(self):
        """One coalescer, a batch of 1 then a batch of 3: the
        ``serve.batch_size`` histogram sees both, once each."""
        from repro.serve.coalesce import RequestCoalescer

        instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
        runtime = Runtime("batched")
        handle = obs.enable()

        async def main():
            coalescer = RequestCoalescer("hc", runtime, max_batch=3, max_wait=0.05)
            try:
                solo = await coalescer.sample("hc", instance, "glauber", 10, seed=1)
                trio = await asyncio.gather(
                    *(
                        coalescer.sample("hc", instance, "glauber", 10, seed=seed)
                        for seed in (2, 3, 4)
                    )
                )
            finally:
                await coalescer.drain()
            return [solo[2]] + [size for _, _, size in trio]

        try:
            sizes = asyncio.run(main())
            histogram = handle.metrics.histogram("serve.batch_size").snapshot()
        finally:
            obs.disable()
            runtime.shutdown()
        assert sizes == [1, 3, 3, 3]
        assert histogram["count"] == 2
        assert (histogram["min"], histogram["max"], histogram["total"]) == (1, 3, 4)


# ----------------------------------------------------------------------
# the flush rule, driven step by step
# ----------------------------------------------------------------------
class _GatedRuntime:
    """A batched runtime whose first ``run_chains`` call blocks until released."""

    def __init__(self):
        self.inner = Runtime("batched")
        self.started = threading.Event()
        self.release = threading.Event()
        #: Chains per ``run_chains`` call, in call order.
        self.calls = []

    def run_chains(self, kernel, instance, count, **kwargs):
        self.calls.append(len(kwargs["seeds"]))
        if len(self.calls) == 1:
            self.started.set()
            assert self.release.wait(30), "the gated run was never released"
        return self.inner.run_chains(kernel, instance, count, **kwargs)

    def shutdown(self):
        self.release.set()
        self.inner.shutdown()


def _policy_instance():
    return SamplingInstance(hardcore_model(cycle_graph(6), 1.0))


def _solo(instance, seed, n_chains=1):
    with Runtime("batched") as runtime:
        return runtime.run_chains(
            "glauber", instance, 10, seeds=chain_seed_sequences(seed, n_chains)
        )


async def _until_started(gated):
    started = await asyncio.get_running_loop().run_in_executor(
        None, gated.started.wait, 30
    )
    assert started, "the gated run never started"


async def _admitted(coalescer, instance, seeds):
    """Admit one request per seed as a task; return once all are queued."""
    tasks = [
        asyncio.ensure_future(coalescer.sample("hc", instance, "glauber", 10, seed=seed))
        for seed in seeds
    ]
    for _ in range(3):
        await asyncio.sleep(0)
    return tasks


async def _scripted_flushes(instance):
    """One flush of every reason: idle, full, after_batch, window, drain."""
    from repro.serve.coalesce import RequestCoalescer

    gated = _GatedRuntime()
    busy = RequestCoalescer("hc", gated, max_batch=2)
    try:
        (first,) = await _admitted(busy, instance, [0])  # idle
        await _until_started(gated)
        pair = await _admitted(busy, instance, [1, 2])  # full
        held = await _admitted(busy, instance, [3])  # after_batch
        assert busy.batches == 2
        gated.release.set()
        await asyncio.gather(first, *pair, *held)
    finally:
        await busy.drain()
        gated.shutdown()
    assert gated.calls == [1, 2, 1]
    with Runtime("batched") as runtime:
        windowed = RequestCoalescer("hc", runtime, max_wait=0.01)
        try:
            await windowed.sample("hc", instance, "glauber", 10, seed=4)  # window
        finally:
            await windowed.drain()
    with Runtime("batched") as runtime:
        draining = RequestCoalescer("hc", runtime, max_wait=60.0)
        (queued,) = await _admitted(draining, instance, [5])
        await draining.drain()  # drain
        await queued


class TestFlushPolicy:
    def test_the_default_window_is_zero(self):
        from repro.serve.coalesce import RequestCoalescer

        with Runtime("batched") as runtime:
            assert RequestCoalescer("hc", runtime).max_wait == 0.0
        assert SamplingServer().max_wait == 0.0

    def test_a_lone_request_on_an_idle_coalescer_runs_without_a_timer(
        self, monkeypatch
    ):
        from repro.serve.coalesce import RequestCoalescer

        made = []
        timer_init = asyncio.TimerHandle.__init__

        def counting_init(self, *args, **kwargs):
            made.append(args)
            timer_init(self, *args, **kwargs)

        monkeypatch.setattr(asyncio.TimerHandle, "__init__", counting_init)
        instance = _policy_instance()
        handle = obs.enable(tracing=False)

        async def main():
            with Runtime("batched") as runtime:
                coalescer = RequestCoalescer("hc", runtime)
                try:
                    return await coalescer.sample("hc", instance, "glauber", 10, seed=5)
                finally:
                    await coalescer.drain()

        try:
            states, _, size = asyncio.run(main())
            flushes = {
                name: value
                for name, value in handle.metrics.snapshot().items()
                if name.startswith("serve.flush.")
            }
        finally:
            obs.disable()
        assert made == [], "an idle coalescer armed a timer for a lone request"
        assert size == 1 and states == _solo(instance, 5)
        assert flushes == {"serve.flush.idle": 1}

    def test_arrivals_during_a_run_form_one_batch(self):
        """Three requests admitted while the first batch runs merge into
        one batch of 3 once it ends, each bit-identical to a solo run."""
        from repro.serve.coalesce import RequestCoalescer

        instance = _policy_instance()
        gated = _GatedRuntime()

        async def main():
            coalescer = RequestCoalescer("hc", gated)
            try:
                (first,) = await _admitted(coalescer, instance, [0])
                await _until_started(gated)
                trio = await _admitted(coalescer, instance, [1, 2, 3])
                await asyncio.sleep(0.05)
                # Held, not dispatched: the first batch is still running.
                assert coalescer.batches == 1 and coalescer.outstanding == 4
                gated.release.set()
                return await first, await asyncio.gather(*trio)
            finally:
                await coalescer.drain()

        try:
            first, trio = asyncio.run(main())
        finally:
            gated.shutdown()
        assert gated.calls == [1, 3]
        assert first[2] == 1
        assert [size for _, _, size in trio] == [3, 3, 3]
        assert len({batch_id for _, batch_id, _ in trio}) == 1
        for seed, (states, _, _) in zip((1, 2, 3), trio):
            assert states == _solo(instance, seed)

    def test_a_held_request_past_its_deadline_never_runs(self):
        from repro.serve.coalesce import RequestCoalescer

        instance = _policy_instance()
        gated = _GatedRuntime()

        async def main():
            coalescer = RequestCoalescer("hc", gated)
            try:
                (first,) = await _admitted(coalescer, instance, [0])
                await _until_started(gated)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        coalescer.sample("hc", instance, "glauber", 10, seed=1),
                        timeout=0.05,
                    )
                gated.release.set()
                await first
                # The batch has ended; give a stray flush a chance to run.
                for _ in range(3):
                    await asyncio.sleep(0)
                return coalescer.batches, coalescer.outstanding
            finally:
                await coalescer.drain()

        try:
            batches, outstanding = asyncio.run(main())
        finally:
            gated.shutdown()
        assert (batches, outstanding) == (1, 0)
        assert gated.calls == [1]

    def test_every_flush_counts_under_its_reason(self):
        instance = _policy_instance()
        handle = obs.enable(tracing=False)
        try:
            asyncio.run(_scripted_flushes(instance))
            snapshot = handle.metrics.snapshot()
        finally:
            obs.disable()
        flushes = {
            name: value for name, value in snapshot.items() if name.startswith("serve.flush.")
        }
        assert flushes == {
            "serve.flush.idle": 1,
            "serve.flush.full": 1,
            "serve.flush.after_batch": 1,
            "serve.flush.window": 1,
            "serve.flush.drain": 1,
        }
        assert snapshot["serve.batches"] == sum(flushes.values())

    def test_flushes_create_no_metric_with_obs_off(self, monkeypatch):
        from repro.obs import metrics

        created = []
        counter_init = metrics.Counter.__init__

        def recording_init(self, name):
            created.append(name)
            counter_init(self, name)

        monkeypatch.setattr(metrics.Counter, "__init__", recording_init)
        obs.disable()
        asyncio.run(_scripted_flushes(_policy_instance()))
        assert created == []


# ----------------------------------------------------------------------
# inline dispatch: short batches run on the event-loop thread
# ----------------------------------------------------------------------
class _ThreadRecordingRuntime:
    """A batched runtime that records the thread of every chain call."""

    def __init__(self):
        self.inner = Runtime("batched")
        self.threads = []

    def run_chains(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        return self.inner.run_chains(*args, **kwargs)

    def run_packed(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        return self.inner.run_packed(*args, **kwargs)

    def shutdown(self):
        self.inner.shutdown()


async def _dispatch_sequence(runtime, instance):
    """Three lone glauber batches of one model, then one packed batch of two."""
    from repro.serve.coalesce import RequestCoalescer

    other = SamplingInstance(hardcore_model(path_graph(5), 1.0))
    coalescer = RequestCoalescer("*", runtime, max_batch=2, max_wait=0.01)
    try:
        for seed in range(3):
            await coalescer.sample("hc", instance, "glauber", 10, seed=seed)
        # Two models in one window: a full bucket, one packed batch.
        await asyncio.gather(
            coalescer.sample("hc", instance, "glauber", 10, seed=3),
            coalescer.sample("path", other, "glauber", 10, seed=4),
        )
    finally:
        await coalescer.drain()


class TestInlineDispatch:
    def test_after_its_kinds_first_batch_a_short_batch_runs_on_the_loop_thread(self):
        from repro.serve.coalesce import RequestCoalescer

        instance = _policy_instance()
        _solo(instance, 0)  # compile the engine and its tables outside the batches
        recording = _ThreadRecordingRuntime()

        async def main():
            coalescer = RequestCoalescer("hc", recording)
            try:
                await coalescer.sample("hc", instance, "glauber", 200, seed=1, n_chains=3)
                return await coalescer.sample(
                    "hc", instance, "glauber", 10, seed=2, n_chains=3
                )
            finally:
                await coalescer.drain()

        try:
            short, _, _ = asyncio.run(main())
        finally:
            recording.shutdown()
        loop_thread = threading.current_thread()
        first, second = recording.threads
        assert first is not loop_thread, "the first batch of a kind ran inline"
        assert second is loop_thread, "a short batch went to the executor"
        assert short == _solo(instance, 2, n_chains=3)

    def test_a_batch_of_a_chain_total_never_measured_goes_to_the_executor(self):
        """A one-chain measurement predicts nothing for 512 chains at the same count."""
        from repro.serve.coalesce import RequestCoalescer

        instance = _policy_instance()
        _solo(instance, 0)
        recording = _ThreadRecordingRuntime()

        async def main():
            coalescer = RequestCoalescer("hc", recording)
            try:
                for seed in (1, 2):
                    await coalescer.sample("hc", instance, "glauber", 10, seed=seed)
                return await coalescer.sample(
                    "hc", instance, "glauber", 10, seed=3, n_chains=512
                )
            finally:
                await coalescer.drain()

        try:
            wide, _, _ = asyncio.run(main())
        finally:
            recording.shutdown()
        loop_thread = threading.current_thread()
        first, second, third = recording.threads
        assert first is not loop_thread and second is loop_thread
        assert third is first, "a 512-chain batch ran inline on a 1-chain estimate"
        assert wide == _solo(instance, 3, n_chains=512)

    def test_a_distributed_runtime_s_batches_never_run_inline(self):
        """Its calls wait on workers, which the loop thread must not do."""
        from repro.serve.coalesce import RequestCoalescer

        instance = _policy_instance()
        recording = _ThreadRecordingRuntime()
        recording.is_distributed = True

        async def main():
            coalescer = RequestCoalescer("hc", recording)
            try:
                for seed in range(3):
                    await coalescer.sample("hc", instance, "glauber", 10, seed=seed)
            finally:
                await coalescer.drain()

        try:
            asyncio.run(main())
        finally:
            recording.shutdown()
        assert len(recording.threads) == 3
        assert threading.current_thread() not in recording.threads

    def test_no_batch_runs_inline_while_a_marginal_stream_holds_the_executor(
        self, monkeypatch
    ):
        registry = _registry()
        entry = registry.get("hc")
        expected = _expected_states(entry, "glauber", 5, 3, 1)  # also warms the engine
        started, release = threading.Event(), threading.Event()
        threads = []
        stream, run_chains = Runtime.stream_ball_marginals, Runtime.run_chains

        def gated_stream(self, *args, **kwargs):
            started.set()
            assert release.wait(30), "the gated stream was never released"
            yield from stream(self, *args, **kwargs)

        def recorded_run(self, *args, **kwargs):
            threads.append(threading.current_thread())
            return run_chains(self, *args, **kwargs)

        monkeypatch.setattr(Runtime, "stream_ball_marginals", gated_stream)
        monkeypatch.setattr(Runtime, "run_chains", recorded_run)

        async def body(host, port, server):
            def sample(seed):
                return request_json(
                    host, port, "POST", "/v1/sample", sample_payload("hc", count=5, seed=seed)
                )

            try:
                for seed in (1, 2):
                    status, _ = await sample(seed)
                    assert status == 200
                marginal = asyncio.ensure_future(
                    request_ndjson(host, port, "/v1/marginal", {"model": "hc", "radius": 1})
                )
                assert await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                ), "the marginal stream never started"
                held = asyncio.ensure_future(sample(3))
                await asyncio.sleep(0.1)
                assert not held.done(), "a batch ran while the stream held the executor"
            finally:
                release.set()
            (status, lines), (held_status, response) = await asyncio.gather(marginal, held)
            assert status == 200 and lines and held_status == 200
            return response

        response = _serve(body, registry=registry)
        loop_thread = threading.current_thread()
        assert threads[0] is not loop_thread and threads[1] is loop_thread
        assert threads[2] is threads[0], "the held batch did not wait for the executor"
        assert response["states"] == expected

    def test_each_batch_counts_once_under_one_dispatch_counter(self):
        instance = _policy_instance()
        _solo(instance, 0)
        handle = obs.enable(tracing=False)
        try:
            with Runtime("batched") as runtime:
                asyncio.run(_dispatch_sequence(runtime, instance))
            asyncio.run(_scripted_flushes(instance))
            snapshot = handle.metrics.snapshot()
        finally:
            obs.disable()
        dispatched = {
            name: value for name, value in snapshot.items() if name.startswith("serve.dispatch.")
        }
        assert set(dispatched) == {"serve.dispatch.inline", "serve.dispatch.executor"}
        # 4 batches of the sequence and 5 scripted flushes.
        assert snapshot["serve.batches"] == sum(dispatched.values()) == 9
        assert snapshot["serve.packed_batches"] == 1

    def test_dispatch_creates_no_metric_with_obs_off(self, monkeypatch):
        from repro.obs import metrics

        instance = _policy_instance()
        _solo(instance, 0)
        created = []
        counter_init = metrics.Counter.__init__

        def recording_init(self, name):
            created.append(name)
            counter_init(self, name)

        monkeypatch.setattr(metrics.Counter, "__init__", recording_init)
        obs.disable()
        recording = _ThreadRecordingRuntime()
        try:
            asyncio.run(_dispatch_sequence(recording, instance))
        finally:
            recording.shutdown()
        assert created == []
        # The sequence did run batches inline.
        assert threading.current_thread() in recording.threads


# ----------------------------------------------------------------------
# draining with kept-alive connections
# ----------------------------------------------------------------------
async def _read_response_head(reader):
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5)
    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    await asyncio.wait_for(reader.readexactly(length), timeout=5)
    return head


async def _left_idle(server, timeout=5.0):
    """Wait until the server's one connection is reading its next request."""
    deadline = time.monotonic() + timeout
    while not server._connections or server._idle:
        assert time.monotonic() < deadline, "the connection never left its idle read"
        await asyncio.sleep(0.001)


async def _idled(server, timeout=5.0):
    """Wait until the server's one connection idles between requests."""
    deadline = time.monotonic() + timeout
    while not server._idle:
        assert time.monotonic() < deadline, "the connection never went idle"
        await asyncio.sleep(0.001)


class TestKeepAliveDrain:
    def test_close_returns_while_a_kept_alive_connection_idles(self):
        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                head = await _read_response_head(reader)
                assert head.startswith(b"HTTP/1.1 200")
                assert b"Connection: keep-alive" in head
                await asyncio.wait_for(server.close(), timeout=5)
                # The server hung up the idle connection.
                assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            finally:
                writer.close()

        _serve(body)

    def test_a_request_being_read_when_the_drain_begins_is_answered(self):
        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET /v1/healthz HTTP/1.1\r\n")
                await _left_idle(server)  # the server reads the head's start
                closing = asyncio.ensure_future(server.close())
                await asyncio.sleep(0.05)
                assert not closing.done(), "the drain did not wait for the request"
                writer.write(b"Host: test\r\n\r\n")
                head = await _read_response_head(reader)
                assert head.startswith(b"HTTP/1.1 200")
                assert b"Connection: close" in head
                await asyncio.wait_for(closing, timeout=5)
            finally:
                writer.close()

        _serve(body)

    def test_a_request_already_buffered_when_the_drain_begins_is_answered(
        self, monkeypatch
    ):
        """Bytes in the reader's buffer, its read not yet resumed: answered, not cut."""
        readers = []
        on_connection = SamplingServer._on_connection

        async def recording(self, reader, writer):
            readers.append(reader)
            await on_connection(self, reader, writer)

        monkeypatch.setattr(SamplingServer, "_on_connection", recording)

        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                await _read_response_head(reader)
                await _idled(server)
                # The drain's first step is queued before the read this
                # feed wakes (as a socket read would): the bytes are
                # buffered, the read not yet resumed, when the drain begins.
                closing = asyncio.ensure_future(server.close())
                readers[0].feed_data(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                await asyncio.wait_for(closing, timeout=5)
                head = await _read_response_head(reader)
                assert head.startswith(b"HTTP/1.1 200")
                assert b"Connection: close" in head
            finally:
                writer.close()

        _serve(body)


# ----------------------------------------------------------------------
# /v1/sample bodies joined from per-model fragments
# ----------------------------------------------------------------------
def _string_node_instance():
    import networkx as nx

    # Quotes, backslashes and non-ASCII text exercise the JSON escapes.
    labels = {index: f'v"{index}\\ν' for index in range(8)}
    return SamplingInstance(hardcore_model(nx.relabel_nodes(cycle_graph(8), labels), 1.0))


def _dict_body(entry, head, states):
    """The response body as it was built before fragments: one dict."""
    from repro.serve.registry import jsonable_node

    return {
        **head,
        "nodes": [jsonable_node(node) for node in entry.nodes],
        "states": [encode_state(entry.nodes, state) for state in states],
    }


class TestResponseEncoding:
    HEAD = {
        "model": "m",
        "kernel": "glauber",
        "count": 10,
        "seed": 3,
        "n_chains": 1,
        "request_id": "0123456789abcdef",
        "batch_id": "fedcba9876543210",
        "batch_size": 2,
    }

    @pytest.mark.parametrize("n_chains", [1, 8])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: SamplingInstance(hardcore_model(cycle_graph(10), 1.2), {0: 1}),
            lambda: SamplingInstance(coloring_model(grid_graph(3, 3), num_colors=4)),
            _string_node_instance,
        ],
        ids=["int-nodes", "tuple-nodes", "string-nodes"],
    )
    def test_fragment_body_is_byte_identical_to_the_dict_body(self, build, n_chains):
        from repro.serve.http import json_response
        from repro.serve.server import sample_body

        entry = ModelRegistry().register_instance("m", build())
        with Runtime("batched") as runtime:
            states = runtime.run_chains(
                "glauber", entry.instance, 10, seeds=chain_seed_sequences(3, n_chains)
            )
        head = dict(self.HEAD, n_chains=n_chains)
        assert json_response(200, sample_body(entry.encoding, head, states)) == (
            json_response(200, _dict_body(entry, head, states))
        )

    def test_fragments_follow_a_re_registered_model(self):
        from repro.serve.http import json_response
        from repro.serve.server import sample_body

        registry = ModelRegistry()
        before = registry.register_instance(
            "m", SamplingInstance(hardcore_model(cycle_graph(5), 1.0))
        )
        registry.register_instance("m", _string_node_instance())
        entry = registry.get("m")
        assert entry is not before
        assert json.loads(entry.encoding.nodes) == [
            f'v"{index}\\ν' for index in range(8)
        ]
        with Runtime("batched") as runtime:
            states = runtime.run_chains("glauber", entry.instance, 10, seed=1)
        assert json_response(200, sample_body(entry.encoding, self.HEAD, states)) == (
            json_response(200, _dict_body(entry, self.HEAD, states))
        )

    def test_a_served_re_registered_model_answers_with_its_new_nodes(self):
        async def body(host, port, server):
            responses = []
            for spec in (
                {"family": "hardcore", "graph": {"kind": "cycle", "n": 5}},
                {"family": "coloring", "graph": {"kind": "grid", "rows": 2, "cols": 3},
                 "num_colors": 4},
            ):
                status, _ = await request_json(host, port, "PUT", "/v1/models/m", spec)
                assert status == 200
                status, response = await request_json(
                    host, port, "POST", "/v1/sample", sample_payload("m", "glauber", 10)
                )
                assert status == 200
                responses.append(response)
            return responses

        first, second = _serve(body)
        assert first["nodes"] == list(range(5))
        assert second["nodes"] == [[row, col] for row in range(2) for col in range(3)]
        assert all(len(state) == 6 for state in second["states"])
