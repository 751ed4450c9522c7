"""Benchmarks: serial vs batched vs process execution backends.

Times the :mod:`repro.runtime` backends on chain workloads shaped like the
baseline-comparison experiment (E12: many independent LubyGlauber/Glauber
chains of a hardcore instance, one sample per chain):

* ``luby_chains`` -- 64 LubyGlauber chains, the E12 access pattern: the
  serial baseline loops ``luby_glauber_sample`` once per seed, the batched
  backend advances all chains as one ``(chains, n)`` code matrix.  Both
  produce bit-identical samples per seed, so the speedup is pure execution
  strategy.
* ``glauber_chains`` -- 256 single-site Glauber chains, same comparison.
* ``jvv_chains`` -- 128 JVV rejection-resampling chains
  (:class:`repro.sampling.jvv.JVVKernel`, the E12 jvv-kernel row): the
  serial baseline loops ``jvv_rejection_sample`` once per seed, the
  batched backend advances all chains as one code matrix with per-chain
  acceptance masks.  Bit-identity (states *and* per-chain failure counts)
  is asserted before any timing.

  The three chain rows, like ``obs_overhead_batched`` (the Glauber row's
  batched workload with observability off vs on), time their two sides in
  alternation and record each side's median with its spread, the
  host-speed probe and an environment stamp (see ``spread.py``).
* ``process_ball_shards`` / ``process_ball_shards_shm`` -- the E5/E8
  per-node ball computations (Theorem 5.1 marginals at every node) serial
  vs sharded over a 2-worker process runtime, once over the default
  pickle transport and once with ``transport="shm"`` (the
  ``InstanceSpec`` dense arrays cross as shared-memory descriptors
  instead of by value).  The runtime's workers are forked once, by the
  correctness gate, and reused by every timed call, as a long-lived
  runtime reuses them.  Recorded for observability; on a small host the
  shard can still be *slower* than serial, which is exactly what the
  JSON should document.  Every timed call queries the same instance, so
  it carries the same spec id: each worker receives the spec once and
  its reconstruction's ball cache stays warm across calls (only the
  parent's cache is cleared per call).  Each side's median is recorded
  with its spread and the host-speed probe.  Only the batched chain
  workloads feed ``min_batched_speedup``.
* ``process_ball_shards_cold`` -- the cold cost of a ball stream, the
  perfbench ``sharded`` traffic: Theorem 5.1 marginals at radius 1 on a
  fresh hardcore distribution per call (a 100-node 3-regular graph), the
  serial loop vs a 2-worker process runtime with ``transport="shm"``.
  Each call is a new instance and so a new spec id: the workers decode
  the spec and compile every ball cold, and ship back the marginals
  only.  Bit-identity to the serial loop is asserted before timing; the
  row records each side's median with its spread, the host-speed probe
  and an environment stamp (see ``spread.py``).
* ``process_repeated_chains`` / ``process_repeated_chains_shm`` -- the
  repeated-call shape of a long-lived runtime: 10 Glauber ``run_chains``
  calls of 48 chains x 300 steps on one 8x8 torus 6-colouring, batched vs
  a 2-worker process runtime with ``inline_threshold=0`` (every call goes
  to the workers), per transport.  All calls on the unchanged instance
  carry one spec id, so each worker receives the spec once and hits its
  spec cache on every later call.  Every call is asserted bit-identical to the
  batched backend before any timing; the row records the median seconds
  per call, with its spread over the repeats and an environment stamp
  (see ``spread.py``).
* ``process_shard_phase_residual`` -- the same workload split per phase
  (spawn / compute / tail) for both transports: where the 2-worker shard
  spends its time.  One real ``stream_ball_marginal_tasks`` call on a
  process runtime whose workers are already forked is traced with
  :mod:`repro.obs` and cut at the workers' task spans: spawn runs from
  the call to the first task starting on a worker (the spec snapshot,
  packing it -- by value under pickle, as descriptors under shm -- the
  first submissions, the SPEC frames and the first worker's restore of
  the spec), compute from there to the last task ending (the parent
  collects landed marginals meanwhile), tail from there to the end of
  the stream (the last result's trip back, segment unlink; nothing is
  forked or joined).  Each traced run is asserted bit-identical to the serial loop
  before its timings are recorded; the row keeps each phase's median,
  its spread over the repeats and an environment stamp.
* ``packed_multi_instance`` -- many small same-alphabet models advanced
  as ONE padded ``(total_chains, n_max)`` code matrix
  (``Runtime.run_packed``) vs looping one batched ``run_chains`` call per
  model (the pre-packing serving path).  Every packed group is asserted
  bit-identical to the kernel's serial chains before any timing; the
  recorded speedup is the cross-model batching win a ``repro-serve
  --cross-model`` batch rides.  The two sides are timed in alternation
  and each side's median is recorded with its spread and the host-speed
  probe.
* ``streaming_ball_shards`` -- the same E5-style workload on the barrier
  API (``Runtime.ball_marginals``, which returns nothing until every
  shard lands) vs the streaming API (``Runtime.stream_ball_marginals``,
  which yields each shard as its future completes), on one process
  runtime and its one set of forked workers.  The headline number is
  *time to first shard result*: the streaming consumer starts measuring
  while the remaining balls are still compiling, so its first result must
  land strictly before the barrier call returns at all.  Streamed marginals
  are asserted bit-identical to the serial loop before timing.
* ``cluster_ball_shards_2w`` / ``cluster_ball_shards_4w`` -- the same
  workload dispatched over 2 (resp. 4) *localhost cluster workers* (real
  ``repro-cluster-worker`` subprocesses behind the framed-pickle TCP
  transport of :mod:`repro.cluster`) vs a 2-worker process runtime.
  Recorded for observability.  Both sides run the same coordinator and
  worker loop -- the process runtime's over socket pairs to forked
  workers, the cluster's over TCP -- and both keep the ``InstanceSpec``
  of one instance, and their ball memos, warm across calls (each
  connection receives the spec once); extra workers beyond the core
  count just add scheduling and framing tax on one host -- the sharing a
  multi-machine deployment fixes with real hardware.  Cluster marginals
  are asserted bit-identical to the serial loop before timing; worker
  spawn/connect time is excluded (a deployment pays it once).  Each
  side's median is recorded with its spread and the host-speed probe.
* ``cluster_auth_overhead_2w`` -- the same workload over 2 localhost
  cluster workers with the transport plain vs HMAC-SHA256-authenticated
  (``auth_key=`` on both sides: every frame carries a 32-byte tag,
  verified before unpickling).  Records what frame authentication costs
  on the wire; both sides are asserted bit-identical to the serial loop
  before timing -- authentication must never change answers.
* ``serve_coalescing`` -- 16 concurrent HTTP sample requests against one
  in-process :mod:`repro.serve` server, ``max_batch=1`` (every request is
  its own ``run_chains`` call) vs ``max_batch=16`` (the coalescer folds
  the burst into one batched code-matrix call).  The per-request seed
  contract keeps every coalesced response bit-identical to a solo
  request; identity and the batch count are asserted on real JSON
  responses before any timing.  Each side's burst time is recorded as a
  median with its spread and the host-speed probe (see ``spread.py``).
* ``chain_seeding`` -- the per-chain generators of one 200-chain call from
  an int root: numpy's own path (``SeedSequence(root).spawn(200)`` and one
  ``default_rng`` per child) vs :func:`repro.runtime.chains.chain_generators`
  over the lazy ``chain_seed_sequences(root, 200)``, which derives every
  PCG64 state in one vectorised pass.  Every generator's first draws are
  asserted equal before timing; the row records the median seconds per
  call with its spread and the host-speed probe.

Every row above that records a spread for two timed sides, except
``serve_coalescing`` (whose bursts each start and close a server), times
the sides in alternation, repeat by repeat (``spread.timed_pair``), so a
slow stretch of the host falls on both alike; bit-identity is asserted
before the first repeat.

Run directly to (re)record the JSON baseline::

    PYTHONPATH=src python benchmarks/bench_runtime.py  # writes BENCH_runtime.json

or under pytest (with the other benchmarks) for a quick regression check.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, random_tree, torus_graph
from repro.models import coloring_model, hardcore_model
from repro.runtime import Runtime, chain_seed_sequences, stream_padded_ball_marginals
from repro.runtime.chains import chain_generators
from repro.sampling.glauber import glauber_sample, luby_glauber_sample
from spread import Samples, environment, spread, timed_pair

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

#: The batched backend: one in-process code-matrix block per call.
BATCHED = Runtime("batched")


def _best_of(function, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _luby_chain_workload(chains: int = 64, rounds: int = 60, size: int = 48):
    instance = SamplingInstance(hardcore_model(cycle_graph(size), fugacity=1.2))
    seeds = chain_seed_sequences(9, chains)
    # Correctness gate before any timing (this also pays the one-time
    # compilation and table build): every batched chain equals the serial
    # chain of its seed.
    assert BATCHED.run_chains("luby-glauber", instance, rounds, seeds=seeds) == [
        luby_glauber_sample(instance, rounds, seed=seed) for seed in seeds
    ], "batched LubyGlauber chains diverge from the serial chain"

    def serial() -> None:
        for seed in seeds:
            luby_glauber_sample(instance, rounds, seed=seed)

    def batched() -> None:
        BATCHED.run_chains("luby-glauber", instance, rounds, seeds=seeds)

    return {"chains": chains, "rounds": rounds, "n": size}, serial, batched


def _glauber_chain_workload(chains: int = 256, steps: int = 1200, size: int = 64):
    instance = SamplingInstance(hardcore_model(cycle_graph(size), fugacity=1.2))
    seeds = chain_seed_sequences(5, chains)
    # Correctness gate before any timing: every batched chain equals the
    # serial chain of its seed.
    assert BATCHED.run_chains("glauber", instance, steps, seeds=seeds) == [
        glauber_sample(instance, steps, seed=seed) for seed in seeds
    ], "batched Glauber chains diverge from the serial chain"

    def serial() -> None:
        for seed in seeds:
            glauber_sample(instance, steps, seed=seed)

    def batched() -> None:
        BATCHED.run_chains("glauber", instance, steps, seeds=seeds)

    return {"chains": chains, "steps": steps, "n": size}, serial, batched


def _jvv_chain_workload(chains: int = 128, scans: int = 20, size: int = 64):
    from repro.runtime import ChainBatch
    from repro.sampling.jvv import JVV_KERNEL, jvv_rejection_sample

    instance = SamplingInstance(hardcore_model(cycle_graph(size), fugacity=1.2))
    seeds = chain_seed_sequences(13, chains)
    steps = scans * len(instance.free_nodes)
    glauber_sample(instance, 1, seed=0)  # pay the one-time compilation

    # Correctness gate before any timing: the batched rejection chains must
    # be bit-identical to the serial kernel -- final states AND per-chain
    # failure counts (the acceptance contract of ISSUE 5).
    reference = [
        jvv_rejection_sample(instance, steps, seed=seed, return_failures=True)
        for seed in seeds
    ]
    batch = ChainBatch(instance, seeds=seeds)
    batch.advance(JVV_KERNEL, steps)
    assert batch.configurations() == [state for state, _ in reference], (
        "batched JVV states diverge from the serial chain"
    )
    assert JVV_KERNEL.failure_counts(batch).tolist() == [
        failures for _, failures in reference
    ], "batched JVV failure counts diverge from the serial chain"

    def serial() -> None:
        for seed in seeds:
            jvv_rejection_sample(instance, steps, seed=seed)

    def batched() -> None:
        fresh = ChainBatch(instance, seeds=seeds)
        fresh.advance(JVV_KERNEL, steps)
        fresh.configurations()

    return {"chains": chains, "steps": steps, "n": size}, serial, batched


def _obs_overhead_workload(chains: int = 256, steps: int = 1200, size: int = 64):
    """The batched-chains workload with observability off vs on.

    Prices the repro.obs contract on the hottest instrumented path: with
    no handle installed, the guarded call sites in run_chains /
    ChainBatch.advance must be near-free (the "off" leg is the
    instrumented code, obs disabled), and enabling metrics + tracing must
    never change the sampled states -- bit-identity is asserted before
    any timing.
    """
    from repro import obs

    instance = SamplingInstance(hardcore_model(cycle_graph(size), fugacity=1.2))
    seeds = chain_seed_sequences(5, chains)
    runtime = Runtime("batched", n_chains=chains)
    reference = runtime.run_chains("glauber", instance, steps, seeds=seeds)

    # Correctness gate before any timing: tracing draws ids from
    # os.urandom, never from NumPy streams, so states must match exactly.
    obs.enable()
    try:
        traced = runtime.run_chains("glauber", instance, steps, seeds=seeds)
    finally:
        obs.disable()
    assert traced == reference, "observability changed the sampled states"

    def off() -> None:
        runtime.run_chains("glauber", instance, steps, seeds=seeds)

    def on() -> None:
        obs.enable()
        try:
            runtime.run_chains("glauber", instance, steps, seeds=seeds)
        finally:
            obs.disable()

    return {"chains": chains, "steps": steps, "n": size}, off, on


def _serve_coalescing_workload(
    n_requests: int = 16, count: int = 600, size: int = 64, max_batch: int = 16
):
    """The serving layer's cross-request coalescing win (ISSUE 8).

    ``n_requests`` concurrent HTTP clients hit one ``repro-serve`` model.
    With ``max_batch=1`` every request is its own ``run_chains`` call
    (the no-coalescing control); with ``max_batch=n_requests`` the
    coalescer folds the burst into one batched code-matrix call.  The
    seed contract makes both paths bit-identical to a solo request, so
    the speedup is pure batching -- and it is asserted (together with
    the batch count) on real JSON responses before any timing.
    """
    import asyncio

    from repro.serve.client import request_json, sample_payload
    from repro.serve.registry import ModelRegistry, build_instance, encode_state
    from repro.serve.server import SamplingServer

    spec = {
        "family": "hardcore",
        "graph": {"kind": "cycle", "n": size},
        "fugacity": 1.2,
        "pinning": {"0": 1},
    }
    instance, _ = build_instance(spec)
    nodes = list(instance.distribution.graph)

    # Solo baseline: each request's seed through run_chains on its own.
    with Runtime("batched") as runtime:
        solo = {
            seed: json.loads(
                json.dumps(
                    [
                        encode_state(nodes, state)
                        for state in runtime.run_chains(
                            "glauber", instance, count, seed=seed
                        )
                    ]
                )
            )
            for seed in range(n_requests)
        }

    def burst(batch_limit: int, check: bool = False) -> float:
        async def go() -> float:
            registry = ModelRegistry()
            registry.register_payload("hc", spec)
            server = SamplingServer(
                registry=registry,
                max_batch=batch_limit,
                max_wait_ms=100.0 if batch_limit > 1 else 0.0,
                max_queue=4 * n_requests,
            )
            host, port = await server.start()
            try:
                # Warm the connection path and the compiled engine.
                await request_json(
                    host, port, "POST", "/v1/sample",
                    sample_payload("hc", count=1, seed=999),
                )
                start = time.perf_counter()
                responses = await asyncio.gather(
                    *[
                        request_json(
                            host, port, "POST", "/v1/sample",
                            sample_payload("hc", count=count, seed=seed),
                        )
                        for seed in range(n_requests)
                    ]
                )
                elapsed = time.perf_counter() - start
                if check:
                    batches = set()
                    for seed, (status, body) in enumerate(responses):
                        assert status == 200, f"seed {seed}: HTTP {status}: {body}"
                        assert body["states"] == solo[seed], (
                            f"coalesced response for seed {seed} is not "
                            "bit-identical to the solo run"
                        )
                        batches.add(body["batch_id"])
                    limit = -(-n_requests // batch_limit)  # ceil
                    assert len(batches) <= limit, (
                        f"{n_requests} requests ran {len(batches)} batches "
                        f"(limit {limit} at max_batch={batch_limit})"
                    )
                return elapsed
            finally:
                await server.close()

        return asyncio.run(go())

    # Correctness gate before any timing (the acceptance contract): the
    # coalesced path must coalesce AND stay bit-identical.
    burst(max_batch, check=True)

    def solo_serving() -> float:
        return burst(1)

    def coalesced_serving() -> float:
        return burst(max_batch)

    shape = {
        "requests": n_requests,
        "count": count,
        "n": size,
        "max_batch": max_batch,
    }
    return shape, solo_serving, coalesced_serving


def _chain_seeding_workload(chains: int = 200, calls: int = 20):
    """One chain call's generators: numpy's spawn-and-seed loop vs one derived pass.

    Both sides build ``chains`` generators from each of ``calls`` int
    roots.  Every generator's first draws are asserted equal for three
    roots (one of them three entropy words long) before any timing.
    """

    def spawned(root):
        return [
            np.random.default_rng(seed)
            for seed in np.random.SeedSequence(root).spawn(chains)
        ]

    def derived(root):
        return chain_generators(chain_seed_sequences(root, chains))

    for root in (0, 7, 2**64 + 5):
        assert [rng.random(4).tolist() for rng in spawned(root)] == [
            rng.random(4).tolist() for rng in derived(root)
        ], f"derived generators differ from numpy's for root {root}"

    def spawned_calls() -> None:
        for root in range(calls):
            spawned(root)

    def derived_calls() -> None:
        for root in range(calls):
            derived(root)

    return {"chains": chains, "calls": calls}, spawned_calls, derived_calls


def _cd_negative_phase_workload(
    size: int = 16,
    samples: int = 200,
    burn_in: int = 150,
    max_iter: int = 10,
    n_negative: int = 64,
    k: int = 5,
):
    """Contrastive-divergence fits, serial vs batched negative phase (ISSUE 9).

    The CD estimator's inner loop is ``Runtime.run_chains`` over
    ``n_negative`` short chains per gradient step; this times a whole short
    fit with that negative phase looped serially vs advanced as one
    ``(chains, n)`` code matrix.  The per-iteration seed contract makes the
    two fits produce bit-identical weights -- asserted before any timing.
    """
    from repro.learning import IsingFamily, Trainer, encode_configurations
    from repro.models import ising_model

    graph = cycle_graph(size)
    truth = ising_model(graph, interaction=0.4, external_field=0.25)
    data = Runtime("batched", n_chains=samples).run_chains(
        "glauber", SamplingInstance(truth, {}), burn_in, seed=42
    )
    family = IsingFamily(graph)
    codes = encode_configurations(family.template().compiled_engine(), data)
    options = dict(method="cd", max_iter=max_iter, n_negative=n_negative, k=k, seed=0)

    # Correctness gate before any timing (the acceptance contract): the
    # fitted weights must be bit-identical across the two backends.
    serial_theta = Trainer(family, runtime="serial", **options).fit(codes).theta
    batched_theta = Trainer(family, runtime="batched", **options).fit(codes).theta
    assert np.array_equal(serial_theta, batched_theta), (
        "CD fitted weights diverge between the serial and batched runtimes"
    )

    def serial() -> None:
        Trainer(family, runtime="serial", **options).fit(codes)

    def batched() -> None:
        Trainer(family, runtime="batched", **options).fit(codes)

    shape = {
        "samples": samples,
        "n": size,
        "iterations": max_iter,
        "negative_chains": n_negative,
        "k": k,
    }
    return shape, serial, batched


def _process_shard_workload(
    size: int = 40, radius: int = 3, n_workers: int = 2, transport: str = "pickle"
):
    from repro.inference.ssm_inference import padded_ball_marginal

    distribution = hardcore_model(random_tree(size, seed=2), fugacity=1.0)
    instance = SamplingInstance(distribution, {0: 0})
    nodes = instance.free_nodes
    runtime = Runtime("process", n_workers=n_workers, transport=transport)

    # Correctness gate before any timing (it also forks the runtime's
    # workers): the sharded marginals, and the shm transport in
    # particular, must never change answers.
    serial_reference = {
        node: padded_ball_marginal(instance, node, radius) for node in nodes
    }
    distribution.ball_cache().clear()
    assert runtime.ball_marginals(instance, nodes, radius) == serial_reference, (
        f"transport={transport!r} shard diverges from the serial loop"
    )

    def serial() -> None:
        distribution.ball_cache().clear()
        for node in nodes:
            padded_ball_marginal(instance, node, radius)

    def sharded() -> None:
        distribution.ball_cache().clear()
        runtime.ball_marginals(instance, nodes, radius)

    shape = {
        "nodes": len(nodes),
        "radius": radius,
        "workers": n_workers,
        "transport": transport,
    }
    return shape, serial, sharded, runtime.shutdown


def _cold_shard_workload(
    size: int = 100, degree: int = 3, radius: int = 1, n_workers: int = 2
):
    """Theorem 5.1 marginals of a FRESH distribution per call, serial vs process.

    Every call builds a new hardcore distribution on one fixed
    ``degree``-regular graph, so nothing is warm: the serial loop compiles
    every ball, and the 2-worker shm process runtime ships a new spec (a
    new spec id) that each worker decodes and compiles cold -- the
    perfbench ``sharded`` stream.  The workers are forked once, by the
    correctness gate, which asserts the streamed marginals bit-identical
    to the serial loop on a fresh distribution before any timing.  Returns
    ``(shape, serial, process, teardown)``.
    """
    from repro.graphs import random_regular_graph
    from repro.inference.ssm_inference import padded_ball_marginal

    graph = random_regular_graph(degree, size, seed=1)
    runtime = Runtime("process", n_workers=n_workers, transport="shm")

    def fresh() -> SamplingInstance:
        return SamplingInstance(hardcore_model(graph, fugacity=1.0), {0: 0})

    def serial() -> Dict:
        instance = fresh()
        return {
            node: padded_ball_marginal(instance, node, radius)
            for node in instance.free_nodes
        }

    def process() -> Dict:
        instance = fresh()
        return runtime.ball_marginals(instance, instance.free_nodes, radius)

    assert process() == serial(), "cold shm ball stream diverges from the serial loop"
    shape = {
        "nodes": size,
        "degree": degree,
        "radius": radius,
        "workers": n_workers,
        "transport": "shm",
    }
    return shape, serial, process, runtime.shutdown


def _repeated_chain_workload(
    calls: int = 10,
    chains: int = 48,
    steps: int = 300,
    side: int = 8,
    n_workers: int = 2,
    transport: str = "pickle",
):
    """``calls`` Glauber ``run_chains`` calls on one instance, batched vs process.

    The process runtime has ``inline_threshold=0``, so every call goes to
    its workers; the calls share one spec id
    (``repro.runtime.shards.spec_for``).  Every process call is asserted
    bit-identical to the batched backend before any timing (this also
    forks the workers).  Returns ``(shape,
    batched, process, teardown)``; the two timed functions run all calls.
    """
    instance = SamplingInstance(coloring_model(torus_graph(side, side), 6))
    batched = Runtime("batched", n_chains=chains)
    runtime = Runtime(
        "process",
        n_chains=chains,
        n_workers=n_workers,
        transport=transport,
        inline_threshold=0,
    )
    for seed in range(calls):
        assert runtime.run_chains("glauber", instance, steps, seed=seed) == (
            batched.run_chains("glauber", instance, steps, seed=seed)
        ), f"transport={transport!r} call {seed} diverges from batched"

    def batched_calls() -> None:
        for seed in range(calls):
            batched.run_chains("glauber", instance, steps, seed=seed)

    def process_calls() -> None:
        for seed in range(calls):
            runtime.run_chains("glauber", instance, steps, seed=seed)

    shape = {
        "calls": calls,
        "chains": chains,
        "steps": steps,
        "torus": side,
        "colors": 6,
        "workers": n_workers,
        "transport": transport,
    }
    return shape, batched_calls, process_calls, runtime.shutdown


def _shard_phase_residual(size: int = 40, radius: int = 3, n_workers: int = 2):
    """Per-phase residual of the sharded ball workload, per transport.

    Traces one real ``stream_ball_marginal_tasks`` call on a process
    runtime whose workers are already forked, with :mod:`repro.obs`, and
    cuts it at the workers' ``worker.task`` spans (wall-clock stamps,
    comparable across processes on one host): spawn (call start to the
    first task starting on a worker -- the spec snapshot, packing the
    :class:`InstanceSpec` by value under pickle or as shared-memory
    descriptors under shm, the first submissions and SPEC frames and the
    first worker's restore of the spec), compute (first task start to
    last task end, with the parent collecting landed marginals meanwhile)
    and tail (last task end to the end of the stream: the last result's
    trip back, segment unlink).  Every traced run is asserted bit-identical
    to the serial loop before its timings count.  Returns ``(shape,
    phases, teardown)``.
    """
    from repro import obs
    from repro.inference.ssm_inference import padded_ball_marginal

    distribution = hardcore_model(random_tree(size, seed=2), fugacity=1.0)
    instance = SamplingInstance(distribution, {0: 0})
    nodes = instance.free_nodes
    tasks = [(node, radius) for node in nodes]
    serial_reference = {
        node: padded_ball_marginal(instance, node, radius) for node in nodes
    }

    runtimes = {
        transport: Runtime("process", n_workers=n_workers, transport=transport)
        for transport in ("pickle", "shm")
    }
    for runtime in runtimes.values():
        distribution.ball_cache().clear()
        runtime.ball_marginals(instance, nodes, radius)  # forks the workers

    def phases(transport: str) -> Dict[str, float]:
        distribution.ball_cache().clear()
        obs.enable()
        try:
            start = time.time()
            results = {
                center: marginal
                for (center, _), marginal in runtimes[transport].stream_ball_marginal_tasks(
                    instance, tasks
                )
            }
            end = time.time()
            chunks = [
                event for event in obs.events() if event["name"] == "worker.task"
            ]
        finally:
            obs.disable()
        assert results == serial_reference, (
            f"traced {transport!r} shard diverges from the serial loop"
        )
        first = min(event["ts"] for event in chunks)
        last = max(event["ts"] + event["dur"] for event in chunks)
        return {
            "spawn_seconds": first - start,
            "compute_seconds": last - first,
            "tail_seconds": end - last,
            "total_seconds": end - start,
        }

    def teardown() -> None:
        for runtime in runtimes.values():
            runtime.shutdown()

    shape = {"nodes": len(nodes), "radius": radius, "workers": n_workers}
    return shape, phases, teardown


def _packed_multi_instance_workload(
    models: int = 8, chains: int = 8, steps: int = 400, size: int = 24
):
    """Many small same-alphabet models in ONE padded code matrix (ISSUE 10).

    The loop leg advances one batched ``run_chains`` call per model (the
    pre-packing serving path); the packed leg folds all models into a
    single padded ``(total_chains, n_max)`` code matrix via
    ``Runtime.run_packed``.  Sizes differ per model so the pack really
    pads and masks.  Every packed group is asserted bit-identical to the
    kernel's serial chains before any timing.
    """
    from repro.sampling import get_kernel

    instances = [
        SamplingInstance(
            hardcore_model(cycle_graph(size + group), fugacity=1.0 + group / 20)
        )
        for group in range(models)
    ]
    seeds = [chain_seed_sequences(17 + group, chains) for group in range(models)]
    runtime = Runtime("batched")
    kernel = get_kernel("glauber")

    # Correctness gate before any timing (the acceptance contract): chain c
    # of packed group g == the kernel's serial chain with seed seeds[g][c].
    # This also pays each model's one-time engine compilation.
    reference = [
        [kernel.serial_run(instance, steps, seed=seed) for seed in seeds[group]]
        for group, instance in enumerate(instances)
    ]
    packed = runtime.run_packed("glauber", list(zip(instances, seeds)), steps)
    assert packed == reference, "packed groups diverge from the serial chains"

    def loop() -> None:
        for group, instance in enumerate(instances):
            runtime.run_chains("glauber", instance, steps, seeds=seeds[group])

    def packed_run() -> None:
        runtime.run_packed("glauber", list(zip(instances, seeds)), steps)

    shape = {
        "models": models,
        "chains_per_model": chains,
        "steps": steps,
        "n_min": size,
        "n_max": size + models - 1,
    }
    return shape, loop, packed_run


def _streaming_shard_workload(size: int = 40, radius: int = 3, n_workers: int = 2):
    from repro.inference.ssm_inference import padded_ball_marginal

    distribution = hardcore_model(random_tree(size, seed=2), fugacity=1.0)
    instance = SamplingInstance(distribution, {0: 0})
    nodes = instance.free_nodes

    # Correctness gate before any timing: streamed per-ball results must be
    # bit-identical to the serial backend (the acceptance contract).
    serial_reference = {
        node: padded_ball_marginal(instance, node, radius) for node in nodes
    }
    runtime = Runtime("process", n_workers=n_workers)
    distribution.ball_cache().clear()
    streamed = dict(runtime.stream_ball_marginals(instance, nodes, radius))
    assert streamed == serial_reference, "streamed results diverge from serial"

    def barrier() -> None:
        distribution.ball_cache().clear()
        runtime.ball_marginals(instance, nodes, radius)

    def streaming() -> tuple:
        distribution.ball_cache().clear()
        start = time.perf_counter()
        first = None
        for _ in runtime.stream_ball_marginals(instance, nodes, radius):
            if first is None:
                first = time.perf_counter() - start
        return first, time.perf_counter() - start

    shape = {"nodes": len(nodes), "radius": radius, "workers": n_workers}
    return shape, barrier, streaming, runtime.shutdown


def _cluster_shard_workload(
    n_workers: int, size: int = 40, radius: int = 3, process_workers: int = 2
):
    """Forked process workers vs ``n_workers`` localhost cluster workers, E5 workload."""
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.local import spawn_workers
    from repro.inference.ssm_inference import padded_ball_marginal

    distribution = hardcore_model(random_tree(size, seed=2), fugacity=1.0)
    instance = SamplingInstance(distribution, {0: 0})
    nodes = instance.free_nodes

    runtime = Runtime("process", n_workers=process_workers)
    pool = spawn_workers(n_workers)
    try:
        coordinator = ClusterCoordinator(pool.addresses)

        # Correctness gate before any timing (the acceptance contract).
        serial_reference = {
            node: padded_ball_marginal(instance, node, radius) for node in nodes
        }
        distribution.ball_cache().clear()
        clustered = dict(
            stream_padded_ball_marginals(
                instance, nodes, radius, transport=coordinator
            )
        )
        assert clustered == serial_reference, "cluster results diverge from serial"
        distribution.ball_cache().clear()
        assert runtime.ball_marginals(instance, nodes, radius) == serial_reference, (
            "process results diverge from serial"
        )
    except BaseException:
        # The caller only learns about teardown() on success; release the
        # workers (and the coordinator, if it connected) ourselves.
        try:
            coordinator.shutdown()
        except NameError:
            pass
        pool.terminate()
        runtime.shutdown()
        raise

    def process() -> None:
        distribution.ball_cache().clear()
        runtime.ball_marginals(instance, nodes, radius)

    def cluster() -> None:
        distribution.ball_cache().clear()
        dict(stream_padded_ball_marginals(instance, nodes, radius, transport=coordinator))

    def teardown() -> None:
        coordinator.shutdown()
        pool.terminate()
        runtime.shutdown()

    shape = {
        "nodes": len(nodes),
        "radius": radius,
        "cluster_workers": n_workers,
        "process_workers": process_workers,
    }
    return shape, process, cluster, teardown


def _cluster_auth_workload(n_workers: int = 2, size: int = 40, radius: int = 3):
    """Plain vs HMAC-authenticated cluster transport, same E5 workload."""
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.local import spawn_workers
    from repro.inference.ssm_inference import padded_ball_marginal

    distribution = hardcore_model(random_tree(size, seed=2), fugacity=1.0)
    instance = SamplingInstance(distribution, {0: 0})
    nodes = instance.free_nodes
    key = "bench-hmac-secret"

    serial_reference = {
        node: padded_ball_marginal(instance, node, radius) for node in nodes
    }

    stack: List[object] = []
    try:
        plain_pool = spawn_workers(n_workers)
        stack.append(plain_pool.terminate)
        plain = ClusterCoordinator(plain_pool.addresses)
        stack.append(plain.shutdown)
        keyed_pool = spawn_workers(n_workers, auth_key=key)
        stack.append(keyed_pool.terminate)
        keyed = ClusterCoordinator(keyed_pool.addresses, auth_key=key)
        stack.append(keyed.shutdown)

        # Correctness gate before any timing: authentication is transport
        # dressing -- both sides must reproduce the serial loop exactly.
        for coordinator in (plain, keyed):
            distribution.ball_cache().clear()
            result = dict(
                stream_padded_ball_marginals(
                    instance, nodes, radius, transport=coordinator
                )
            )
            assert result == serial_reference, (
                "cluster results diverge from serial"
            )
    except BaseException:
        for release in reversed(stack):
            release()
        raise

    def plain_run() -> None:
        distribution.ball_cache().clear()
        dict(stream_padded_ball_marginals(instance, nodes, radius, transport=plain))

    def hmac_run() -> None:
        distribution.ball_cache().clear()
        dict(stream_padded_ball_marginals(instance, nodes, radius, transport=keyed))

    def teardown() -> None:
        for release in reversed(stack):
            release()

    shape = {"nodes": len(nodes), "radius": radius, "cluster_workers": n_workers}
    return shape, plain_run, hmac_run, teardown


def run(
    repeats: int = 3,
    cluster: bool = True,
    serve: bool = True,
) -> List[Dict[str, object]]:
    """Time the backends; report the best of ``repeats`` per side.

    The chain rows (``luby_chains``, ``glauber_chains``, ``jvv_chains``),
    ``obs_overhead_batched``, ``packed_multi_instance``, the process,
    cluster and serve rows, the seeding row and the phase-residual row
    instead run ``3 * repeats`` times and record the median with its
    spread and the host-speed probe beside it.  Every such row with two
    timed sides but ``serve_coalescing`` alternates them repeat by repeat
    (:func:`spread.timed_pair`).
    """
    spread_repeats = 3 * repeats
    rows: List[Dict[str, object]] = []
    for name, factory in (
        ("luby_chains", _luby_chain_workload),
        ("glauber_chains", _glauber_chain_workload),
        ("jvv_chains", _jvv_chain_workload),
    ):
        shape, serial, batched = factory()
        serial_spread, batched_spread = timed_pair(serial, batched, spread_repeats)
        rows.append(
            {
                "workload": name,
                "backend_pair": "serial-vs-batched",
                "shape": shape,
                "serial_seconds": serial_spread["median"],
                "batched_seconds": batched_spread["median"],
                "speedup": serial_spread["median"] / batched_spread["median"],
                "spread": {"serial": serial_spread, "batched": batched_spread},
                "environment": environment(),
                "bit_identical_to_serial": True,
            }
        )
    shape, cd_serial, cd_batched = _cd_negative_phase_workload()
    cd_serial_seconds = _best_of(cd_serial, repeats)
    cd_batched_seconds = _best_of(cd_batched, repeats)
    rows.append(
        {
            "workload": "cd_negative_phase",
            "backend_pair": "cd-serial-vs-batched",
            "shape": shape,
            "serial_seconds": cd_serial_seconds,
            "batched_seconds": cd_batched_seconds,
            "speedup": cd_serial_seconds / cd_batched_seconds,
            "bit_identical_across_backends": True,
        }
    )
    shape, obs_off, obs_on = _obs_overhead_workload()
    off, on = timed_pair(obs_off, obs_on, spread_repeats)
    rows.append(
        {
            "workload": "obs_overhead_batched",
            "backend_pair": "obs-off-vs-on",
            "shape": shape,
            "off_seconds": off["median"],
            "on_seconds": on["median"],
            "overhead": on["median"] / off["median"],
            "spread": {"off": off, "on": on},
            "environment": environment(),
            "bit_identical_to_serial": True,
        }
    )
    if serve:
        shape, solo_serving, coalesced_serving = _serve_coalescing_workload()
        # A burst returns its own time (server start and close excluded);
        # the host-speed probes still bracket every call.
        serve_spread = {}
        for side, burst in (("solo", solo_serving), ("coalesced", coalesced_serving)):
            probed = Samples()
            bursts = [probed.time(burst) for _ in range(spread_repeats)]
            serve_spread[side] = spread(bursts, probed.probes)
        rows.append(
            {
                "workload": "serve_coalescing",
                "backend_pair": "solo-vs-coalesced",
                "shape": shape,
                "solo_seconds": serve_spread["solo"]["median"],
                "coalesced_seconds": serve_spread["coalesced"]["median"],
                "speedup": serve_spread["solo"]["median"]
                / serve_spread["coalesced"]["median"],
                "spread": serve_spread,
                "environment": environment(),
                "bit_identical_to_solo": True,
            }
        )
    shape, spawned_calls, derived_calls = _chain_seeding_workload()
    spawned, derived = timed_pair(
        spawned_calls, derived_calls, spread_repeats, per=shape["calls"]
    )
    rows.append(
        {
            "workload": "chain_seeding",
            "backend_pair": "spawned-vs-derived",
            "shape": shape,
            "spawned_seconds_per_call": spawned["median"],
            "derived_seconds_per_call": derived["median"],
            "speedup": spawned["median"] / derived["median"],
            "spread": {"spawned": spawned, "derived": derived},
            "environment": environment(),
            "bit_identical_to_numpy": True,
        }
    )
    shape, loop, packed_run = _packed_multi_instance_workload()
    loop_spread, packed_spread = timed_pair(loop, packed_run, spread_repeats)
    rows.append(
        {
            "workload": "packed_multi_instance",
            "backend_pair": "loop-vs-packed",
            "shape": shape,
            "loop_seconds": loop_spread["median"],
            "packed_seconds": packed_spread["median"],
            "speedup": loop_spread["median"] / packed_spread["median"],
            "spread": {"loop": loop_spread, "packed": packed_spread},
            "environment": environment(),
            "bit_identical_to_serial": True,
        }
    )
    for transport in ("pickle", "shm"):
        shape, serial, sharded, teardown = _process_shard_workload(transport=transport)
        try:
            serial_spread, process_spread = timed_pair(serial, sharded, spread_repeats)
        finally:
            teardown()
        rows.append(
            {
                "workload": (
                    "process_ball_shards"
                    if transport == "pickle"
                    else "process_ball_shards_shm"
                ),
                "backend_pair": "serial-vs-process",
                "shape": shape,
                "serial_seconds": serial_spread["median"],
                "process_seconds": process_spread["median"],
                "speedup": serial_spread["median"] / process_spread["median"],
                "spread": {"serial": serial_spread, "process": process_spread},
                "environment": environment(),
                "bit_identical_to_serial": True,
            }
        )
    shape, serial, process, teardown = _cold_shard_workload()
    try:
        serial_spread, process_spread = timed_pair(serial, process, spread_repeats)
    finally:
        teardown()
    rows.append(
        {
            "workload": "process_ball_shards_cold",
            "backend_pair": "serial-vs-process",
            "shape": shape,
            "serial_seconds": serial_spread["median"],
            "process_seconds": process_spread["median"],
            "speedup": serial_spread["median"] / process_spread["median"],
            "spread": {"serial": serial_spread, "process": process_spread},
            "environment": environment(),
            "bit_identical_to_serial": True,
        }
    )
    for transport in ("pickle", "shm"):
        shape, batched_calls, process_calls, teardown = _repeated_chain_workload(
            transport=transport
        )
        try:
            batched, process = timed_pair(
                batched_calls, process_calls, spread_repeats, per=shape["calls"]
            )
        finally:
            teardown()
        rows.append(
            {
                "workload": (
                    "process_repeated_chains"
                    if transport == "pickle"
                    else "process_repeated_chains_shm"
                ),
                "backend_pair": "batched-vs-process",
                "shape": shape,
                "batched_seconds_per_call": batched["median"],
                "process_seconds_per_call": process["median"],
                "speedup": batched["median"] / process["median"],
                "spread": {"batched": batched, "process": process},
                "environment": environment(),
                "bit_identical_to_batched": True,
            }
        )
    shape, phases, teardown = _shard_phase_residual()
    residual: Dict[str, Dict[str, float]] = {}
    residual_spread: Dict[str, Dict[str, Dict[str, float]]] = {}
    try:
        for transport in ("pickle", "shm"):
            probed = Samples()
            samples = [
                probed.time(lambda: phases(transport)) for _ in range(spread_repeats)
            ]
            residual_spread[transport] = {
                phase: spread([sample[phase] for sample in samples], probed.probes)
                for phase in samples[0]
            }
            residual[transport] = {
                phase: figures["median"]
                for phase, figures in residual_spread[transport].items()
            }
    finally:
        teardown()
    rows.append(
        {
            "workload": "process_shard_phase_residual",
            "backend_pair": "phase-residual",
            "shape": shape,
            "phases": residual,
            "spread": residual_spread,
            "environment": environment(),
            "bit_identical_to_serial": True,
            "note": (
                "where the 2-worker shard spends its time: one traced "
                "stream_ball_marginal_tasks call on a process runtime "
                "whose workers are already forked, cut at the workers' "
                "task spans. spawn runs to the first worker task (the "
                "spec snapshot, packing it -- by value under pickle, as "
                "shared-memory descriptors under shm -- the first "
                "submissions and SPEC frames and the first worker's "
                "restore of the spec), compute to the last task end "
                "(workers compile their tasks' balls and ship back the "
                "marginals only), tail to the end of the stream (the last "
                "result's trip back, segment unlink). No fork and no join "
                "is paid per call"
            ),
        }
    )
    shape, barrier, streaming, teardown = _streaming_shard_workload()
    first_result_seconds = np.inf
    streaming_seconds = np.inf
    try:
        barrier_seconds = _best_of(barrier, repeats)
        for _ in range(repeats):
            first, wall = streaming()
            first_result_seconds = min(first_result_seconds, first)
            streaming_seconds = min(streaming_seconds, wall)
    finally:
        teardown()
    rows.append(
        {
            "workload": "streaming_ball_shards",
            "backend_pair": "barrier-vs-streaming",
            "shape": shape,
            "barrier_wall_seconds": barrier_seconds,
            "time_to_first_result_seconds": first_result_seconds,
            "streaming_wall_seconds": streaming_seconds,
            "first_result_speedup": barrier_seconds / first_result_seconds,
            "bit_identical_to_serial": True,
        }
    )
    if cluster:
        for n_workers in (2, 4):
            shape, process, clustered, teardown = _cluster_shard_workload(n_workers)
            try:
                process_spread, cluster_spread = timed_pair(
                    process, clustered, spread_repeats
                )
            finally:
                teardown()
            row = {
                "workload": f"cluster_ball_shards_{n_workers}w",
                "backend_pair": "process-vs-cluster",
                "shape": shape,
                "process_seconds": process_spread["median"],
                "cluster_seconds": cluster_spread["median"],
                "speedup": process_spread["median"] / cluster_spread["median"],
                "spread": {"process": process_spread, "cluster": cluster_spread},
                "environment": environment(),
                "bit_identical_to_serial": True,
            }
            if n_workers == 4:
                # The coordinator's default chunking used to target ~4
                # chunks per worker regardless of fleet size, so 4 workers
                # split these 39 tasks into 13 tiny chunks and the framing
                # tax sank the 4w run to 0.837x of the 2w process backend
                # (previous recorded baseline).  The chunk count is now
                # capped (8 chunks here) -- this row records the after.
                row["chunk_granularity_fix"] = {
                    "speedup_before": 0.8374,
                    "chunks_before": 13,
                    "chunks_after": 8,
                }
            rows.append(row)
        shape, plain_run, hmac_run, teardown = _cluster_auth_workload()
        try:
            plain_seconds = _best_of(plain_run, repeats)
            hmac_seconds = _best_of(hmac_run, repeats)
        finally:
            teardown()
        rows.append(
            {
                "workload": "cluster_auth_overhead_2w",
                "backend_pair": "plain-vs-hmac",
                "shape": shape,
                "plain_seconds": plain_seconds,
                "hmac_seconds": hmac_seconds,
                "overhead": hmac_seconds / plain_seconds,
                "bit_identical_to_serial": True,
            }
        )
    return rows


def record_baseline(path: Path = BASELINE_PATH, repeats: int = 3) -> Dict[str, object]:
    """Run the benchmark and write the JSON baseline next to the repo root."""
    rows = run(repeats=repeats)
    batched = [row for row in rows if row["backend_pair"] == "serial-vs-batched"]
    streaming = [row for row in rows if row["backend_pair"] == "barrier-vs-streaming"]
    clustered = [row for row in rows if row["backend_pair"] == "process-vs-cluster"]
    payload = {
        "benchmark": "bench_runtime",
        "description": (
            "execution backends of repro.runtime: looped serial chains vs the "
            "batched (chains, n) code-matrix runner for the Glauber, "
            "LubyGlauber and JVV-rejection kernels (batched JVV bit-identity "
            "-- states and per-chain failure counts -- asserted pre-timing), "
            "the 2-worker process shard of the per-node ball computations "
            "on the process runtime's persistent forked workers "
            "(informational), the barrier vs streaming (futures + "
            "as_completed) shard executor on the E5-style workload "
            "(time-to-first-shard-result), and the same workload over 2/4 "
            "localhost repro.cluster TCP workers (single-host transport tax, "
            "bit-identity asserted pre-timing), plus the same cluster "
            "workload with the transport plain vs HMAC-SHA256-authenticated "
            "(per-frame tag verified before unpickling; bit-identity "
            "asserted pre-timing on both sides), plus the batched-chains "
            "workload with observability off vs on (repro.obs metrics + "
            "tracing; the off leg prices the guarded instrumentation "
            "residue, bit-identity asserted pre-timing), plus the serving "
            "layer's cross-request coalescing: 16 concurrent HTTP sample "
            "requests against one repro-serve model with max_batch=1 (one "
            "run_chains call per request) vs max_batch=16 (the burst folds "
            "into one batched code-matrix call); the seed contract keeps "
            "every coalesced response bit-identical to a solo request, "
            "asserted on real JSON responses -- with the batch count -- "
            "before any timing, plus the learning layer's contrastive-"
            "divergence fit with its run_chains negative phase looped "
            "serially vs advanced as one batched code matrix (fitted "
            "weights asserted bit-identical across the backends before "
            "any timing), plus the zero-copy data plane: the "
            "2-worker ball shard over the pickle vs shared-memory "
            "transport (InstanceSpec dense arrays crossing as segment "
            "descriptors; bit-identity asserted pre-timing), the same "
            "workload's per-phase residual (spawn/compute/tail, both "
            "transports, on already forked workers), and packed multi-"
            "instance batching: many small same-alphabet models advanced "
            "as one padded (total_chains, n_max) code matrix via "
            "Runtime.run_packed vs looping one batched run_chains call "
            "per model (every packed group asserted bit-identical to the "
            "kernel's serial chains pre-timing), plus repeated "
            "run_chains calls on one instance, batched vs a 2-worker "
            "process runtime at inline_threshold=0 over both transports "
            "(one spec id per instance, so each worker receives the spec once; "
            "every call asserted bit-identical to batched pre-timing), "
            "plus the cold ball stream: Theorem 5.1 marginals of a fresh "
            "distribution per call, serial vs a 2-worker shm process "
            "runtime whose workers return marginals only (bit-identity "
            "asserted pre-timing; medians with spread and host-speed probe), "
            "plus chain seeding: one 200-chain call's generators from an "
            "int root, numpy's SeedSequence.spawn and default_rng per chain "
            "vs the vectorised derivation of every PCG64 state (first draws "
            "asserted equal pre-timing; medians with spread)"
        ),
        "workloads": rows,
        "min_batched_speedup": min(row["speedup"] for row in batched),
        "streaming_first_result_beats_barrier": all(
            row["time_to_first_result_seconds"] < row["barrier_wall_seconds"]
            for row in streaming
        ),
        "cluster_bit_identical_to_serial": all(
            row["bit_identical_to_serial"] for row in clustered
        ),
        "hmac_bit_identical_to_serial": all(
            row["bit_identical_to_serial"]
            for row in rows
            if row["backend_pair"] == "plain-vs-hmac"
        ),
        "obs_bit_identical": all(
            row["bit_identical_to_serial"]
            for row in rows
            if row["backend_pair"] == "obs-off-vs-on"
        ),
        "serve_bit_identical_to_solo": all(
            row["bit_identical_to_solo"]
            for row in rows
            if row["backend_pair"] == "solo-vs-coalesced"
        ),
        "cd_bit_identical_across_backends": all(
            row["bit_identical_across_backends"]
            for row in rows
            if row["backend_pair"] == "cd-serial-vs-batched"
        ),
        "packed_bit_identical_to_serial": all(
            row["bit_identical_to_serial"]
            for row in rows
            if row["backend_pair"] == "loop-vs-packed"
        ),
        "shm_bit_identical_to_serial": all(
            row["bit_identical_to_serial"]
            for row in rows
            if row["backend_pair"] in ("phase-residual",)
            or row["workload"] == "process_ball_shards_shm"
        ),
        "process_bit_identical_to_serial": all(
            row["bit_identical_to_serial"]
            for row in rows
            if row["backend_pair"] == "serial-vs-process"
        ),
        "repeated_chains_bit_identical_to_batched": all(
            row["bit_identical_to_batched"]
            for row in rows
            if row["backend_pair"] == "batched-vs-process"
        ),
        "seeding_bit_identical_to_numpy": all(
            row["bit_identical_to_numpy"]
            for row in rows
            if row["backend_pair"] == "spawned-vs-derived"
        ),
        "shard_phase_residual_documented": any(
            row["backend_pair"] == "phase-residual" for row in rows
        ),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _print_rows(rows: List[Dict[str, object]]) -> None:
    for row in rows:
        if row["backend_pair"] == "obs-off-vs-on":
            print(
                f"{row['workload']:>22}: off {row['off_seconds'] * 1e3:8.1f} ms   "
                f"on {row['on_seconds'] * 1e3:8.1f} ms   "
                f"overhead {row['overhead']:6.2f}x   {row['shape']}"
            )
            continue
        if row["backend_pair"] == "solo-vs-coalesced":
            print(
                f"{row['workload']:>22}: solo {row['solo_seconds'] * 1e3:8.1f} ms   "
                f"coalesced {row['coalesced_seconds'] * 1e3:8.1f} ms   "
                f"speedup {row['speedup']:6.2f}x   {row['shape']}"
            )
            continue
        if row["backend_pair"] == "spawned-vs-derived":
            print(
                f"{row['workload']:>22}: spawned {row['spawned_seconds_per_call'] * 1e3:8.2f} ms/call   "
                f"derived {row['derived_seconds_per_call'] * 1e3:8.2f} ms/call   "
                f"speedup {row['speedup']:6.2f}x   {row['shape']}"
            )
            continue
        if row["backend_pair"] == "plain-vs-hmac":
            print(
                f"{row['workload']:>22}: plain {row['plain_seconds'] * 1e3:8.1f} ms   "
                f"hmac {row['hmac_seconds'] * 1e3:8.1f} ms   "
                f"overhead {row['overhead']:6.2f}x   {row['shape']}"
            )
            continue
        if row["backend_pair"] == "process-vs-cluster":
            print(
                f"{row['workload']:>22}: process {row['process_seconds'] * 1e3:8.1f} ms   "
                f"cluster {row['cluster_seconds'] * 1e3:8.1f} ms   "
                f"speedup {row['speedup']:6.2f}x   {row['shape']}"
            )
            continue
        if row["backend_pair"] == "batched-vs-process":
            print(
                f"{row['workload']:>22}: batched {row['batched_seconds_per_call'] * 1e3:8.1f} ms/call   "
                f"process {row['process_seconds_per_call'] * 1e3:8.1f} ms/call   "
                f"speedup {row['speedup']:6.2f}x   {row['shape']}"
            )
            continue
        if row["backend_pair"] == "loop-vs-packed":
            print(
                f"{row['workload']:>22}: loop {row['loop_seconds'] * 1e3:8.1f} ms   "
                f"packed {row['packed_seconds'] * 1e3:8.1f} ms   "
                f"speedup {row['speedup']:6.2f}x   {row['shape']}"
            )
            continue
        if row["backend_pair"] == "phase-residual":
            for transport, timings in row["phases"].items():
                print(
                    f"{row['workload']:>22}: [{transport:>6}] "
                    f"spawn {timings['spawn_seconds'] * 1e3:7.1f} ms   "
                    f"compute {timings['compute_seconds'] * 1e3:7.1f} ms   "
                    f"tail {timings['tail_seconds'] * 1e3:6.1f} ms"
                )
            continue
        if row["backend_pair"] == "barrier-vs-streaming":
            print(
                f"{row['workload']:>22}: barrier {row['barrier_wall_seconds'] * 1e3:8.1f} ms   "
                f"first result {row['time_to_first_result_seconds'] * 1e3:8.1f} ms   "
                f"stream wall {row['streaming_wall_seconds'] * 1e3:8.1f} ms   "
                f"ttfr speedup {row['first_result_speedup']:6.2f}x   {row['shape']}"
            )
            continue
        other = row.get("batched_seconds", row.get("process_seconds"))
        print(
            f"{row['workload']:>22}: serial {row['serial_seconds'] * 1e3:8.1f} ms   "
            f"other {other * 1e3:8.1f} ms   speedup {row['speedup']:6.2f}x   "
            f"{row['shape']}"
        )


def test_batched_runner_amortises_the_python_loop(once=None) -> None:
    """The batched backend beats looping the serial chain on both workloads.

    BENCH_runtime.json documents the recorded ratios (>= 5x); this guard
    asserts a conservative floor so CI noise cannot flake.  The cluster
    rows are excluded here (worker subprocess spawn would dominate the
    benchmark budget); the recorded JSON documents them.
    """
    if once is None:
        rows = run(repeats=2, cluster=False)
    else:
        rows = once(run, repeats=2, cluster=False)
    print()
    _print_rows(rows)
    for row in rows:
        if row["backend_pair"] == "serial-vs-batched":
            assert row["speedup"] > 2.5, f"workload {row['workload']} regressed: {row}"
        if row["backend_pair"] == "barrier-vs-streaming":
            # The acceptance contract of the streaming executor: the first
            # shard result lands strictly before the barrier call returns.
            assert (
                row["time_to_first_result_seconds"] < row["barrier_wall_seconds"]
            ), f"streaming lost its overlap win: {row}"
        if row["backend_pair"] == "solo-vs-coalesced":
            # BENCH_runtime.json documents the recorded ratio (>= 3x); this
            # is a conservative floor so CI noise cannot flake.
            assert row["speedup"] > 1.5, f"serving coalescing regressed: {row}"
        if row["backend_pair"] == "spawned-vs-derived":
            # BENCH_runtime.json records ~4x; a conservative floor.
            assert row["speedup"] > 1.5, f"chain seeding regressed: {row}"
        if row["backend_pair"] == "cd-serial-vs-batched":
            # The CD fit also pays objective-side work per iteration, so its
            # floor is more modest than the raw chain workloads'.
            assert row["speedup"] > 1.2, f"CD negative phase regressed: {row}"
        if row["backend_pair"] == "loop-vs-packed":
            # The ISSUE 10 acceptance floor: one padded code matrix over
            # all models must at least double the per-model loop
            # (BENCH_runtime.json records ~4x).
            assert row["speedup"] > 2.0, f"packed batching regressed: {row}"
        if row["backend_pair"] == "phase-residual":
            # The residual must actually be decomposed: every phase
            # measured, for both transports.
            for timings in row["phases"].values():
                assert set(timings) >= {
                    "spawn_seconds", "compute_seconds", "tail_seconds",
                }, f"phase residual incomplete: {row}"


if __name__ == "__main__":
    result = record_baseline()
    _print_rows(result["workloads"])
    print(f"min batched speedup: {result['min_batched_speedup']:.2f}x")
    print(f"baseline written to {BASELINE_PATH}")
