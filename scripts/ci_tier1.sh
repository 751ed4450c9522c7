#!/usr/bin/env bash
# Tier-1 verification: the full test suite (as pinned in ROADMAP.md) plus an
# explicit run of the engine-equivalence suite (the contract between the
# compiled evaluation engine and the reference dict engine), a plan-store
# smoke (an E5 locality_required sweep at a second fugacity on the same
# cycle, in the same process, must plan nothing anew -- 0
# engine.schedule_cache misses -- and both sweeps' radii must equal the
# engine="dict" sweeps; one fresh hardcore model's compiled_engine() must
# build exactly 2 dense tables, one per factor callable), a JVV oracle-memo
# smoke (one E6 sample_exact_local run -- 16-cycle hardcore, fugacity 0.5,
# correlation decay at rate 0.5, seed 0 -- must equal its golden
# (configuration, failures, rounds) tuple, and a counting wrapper on
# TwoSpinCorrelationDecayInference.marginal must see at most as many calls
# as distinct (node, conditioning) queries: each query reaches the oracle
# at most once per run; and neither that run nor a
# TruncatedBallInference(2).marginals pass over a fresh instance may call
# Factor.evaluate outside a dense-table build: both weigh factors by
# symbol code), a fast runtime smoke (batched-chain determinism and pickling, skipping the
# slow-marked forked-worker tests), a kernel smoke (every registered chain
# kernel runs bit-identically on the serial and batched backends through
# the unified run_chains path, on one instance within the blanket-table
# caps, one past them and one whose blanket rows may total zero, at 4
# chains and at 1 chain -- serve's smallest shape, where the pair axis of
# the q-major blanket tables has length 1; jvv on
# the first must advance in fewer dependency waves than steps; luby-glauber
# resumed in segments must equal one whole run on the blanket and may_stick
# instances, serial and batched), a codes-only chain smoke (no chain entry
# point -- glauber_sample, luby_glauber_sample, sequential_scan_sample,
# jvv_rejection_sample, Runtime.run_chains, Runtime.run_packed, ChainBatch --
# takes an engine= parameter, and no Python source under src/repro names
# serial_reference: the dict-engine chain fallback must not return), a
# seeding smoke (for 5 random int roots, every chain of a 200-chain
# ChainBatch -- whose PCG64 states are derived in one vectorised pass --
# draws exactly what numpy's default_rng draws over
# SeedSequence(root).spawn(200); then a traced perfbench serve run at
# --tiny, python3 perfbench/run.py --workload serve --seed 1 --tiny
# --trace 1 --seconds 2, must attribute requests to their seeds: its
# serve.run_chains_ms, serve.queue_wait_ms and serve.encode_ms are above
# 0), a cluster smoke (a coordinator driving
# two real localhost worker subprocesses over the TCP transport: ball
# marginals bit-identical to the serial loop, glauber chains and
# jvv_chain_stats bit-identical to the batched backend; a pickled
# "call" task is refused as an unknown kind -- the worker's own
# ProtocolError reaches the caller -- and the worker still answers
# a ping), a chaos smoke (one of the two
# workers is armed with a deterministic FaultPlan and hard-crashes
# mid-stream; the requeued merge must still be bit-identical), a traced
# cluster smoke (the same run with obs=True must stay bit-identical,
# stitch coordinator and worker spans under one trace id, and export
# trace JSON that repro-trace validates against the event schema), a
# serving smoke (a real `repro-serve` subprocess on a free port takes 8
# concurrent HTTP sample requests, which must coalesce into at most two
# batches -- observable from the JSON responses alone -- with every
# response bit-identical to a solo run, answers a JSON-array body and a
# count of 1e400 with a 400, then drains cleanly on SIGTERM while a
# kept-alive connection sits idle after one GET /v1/healthz;
# once for one model, and once with --cross-model for two same-alphabet
# models sharing a packed batch), a learning smoke (seeded pseudo-likelihood and contrastive
# divergence fits on a small Ising dataset must recover the generating
# weights within the documented tolerances, with the CD negative phase
# bit-identical between the serial and batched runtimes), a process-backend
# smoke (the process backend's chain blocks, its streamed ball marginals
# and the packed multi-instance code matrix must all be bit-identical to
# the serial loop, and the ball stream must
# leave the parent's ball cache cold -- 0 compiles, no extras -- because
# workers return marginals only; two process calls on one
# instance with an update_factors between them must each equal batched;
# two process calls on one Runtime, run in a child interpreter, must
# share the pids of one persistent set of forked workers, no forked
# worker may be left once the Runtime is shut down, and the child must
# leave no resource_tracker traceback on stderr; /dev/shm must hold no
# repro-shm-* segments afterwards), a marginals-only guard (no Python
# source under src/repro names adopt(, export_marginal_memo,
# absorb_marginal_memo, MEMO_DELTA_CAP or memo_cap: the parent-cache
# warming of ball streams must not return), a one-scheduler guard (no
# Python source under src/repro names ProcessPoolExecutor,
# BrokenProcessPool or ForkPool: the process backend runs cluster
# workers forked on socket pairs, through the cluster coordinator; and
# none names get_context, .Pool(, process_map or _FORK_TASK, or imports
# multiprocessing at all: src/repro creates no multiprocessing pool, so
# the fork-per-call closure map behind the deleted Runtime.map must not
# return), the
# frozen perfbench smoke (python3 -m pytest -q
# perfbench/check_smoke.py: every benchmark workload runs untraced and
# traced at --tiny, so a server change that breaks the tracer's hooks
# fails here too) and a docs check (the architecture map and testing
# guide exist and the README quickstart executes as a doctest).
#
# Usage: scripts/ci_tier1.sh  (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: full suite =="
python -m pytest -x -q --durations=15

echo "== tier-1: engine equivalence =="
python -m pytest -x -q tests/test_engine_equivalence.py

echo "== tier-1: plan-store smoke =="
python - <<'PY'
from repro import obs
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import hardcore_model
from repro.spatialmixing.phase_transition import locality_required

# Elimination orders and schedules are keyed by structure, so a fresh
# distribution on the same cycle (new weights, new BallCache) reuses every
# plan the first sweep made; the higher fugacity runs first because it
# needs the larger radius.
graph = cycle_graph(16)
fugacities = (2.0, 1.0)


def sweep(fugacity, engine=None):
    instance = SamplingInstance(hardcore_model(graph, fugacity=fugacity), {0: 1})
    return locality_required(instance, 8, error=0.02, max_radius=8, engine=engine)


handle = obs.enable(tracing=False)
misses = handle.metrics.counter("engine.schedule_cache.misses")
built = handle.metrics.counter("engine.dense_tables.built")
radii = []
try:
    for fugacity in fugacities:
        before = misses.snapshot()
        radii.append(sweep(fugacity))
        planned = misses.snapshot() - before
    # Vertex factors share one callable and edge factors another, so a
    # fresh model materialises two dense tables, not one per factor.
    before = built.snapshot()
    hardcore_model(graph, fugacity=1.5).compiled_engine()
    tables = built.snapshot() - before
finally:
    obs.disable()
assert planned == 0, f"the second sweep planned {planned} schedules anew"
assert tables == 2, f"a fresh 16-cycle hardcore model built {tables} dense tables, not 2"
expected = [sweep(fugacity, engine="dict") for fugacity in fugacities]
assert radii == expected, f"radii {radii} != dict sweep {expected}"
print(
    f"plan-store smoke OK: radii {radii} == dict, the second sweep planned 0 "
    "schedules, a fresh model built 2 dense tables"
)
PY

echo "== tier-1: JVV oracle-memo smoke =="
python - <<'PY'
from repro.engine import compiled
from repro.gibbs import Factor, SamplingInstance
from repro.graphs import cycle_graph, random_regular_graph
from repro.inference import TruncatedBallInference, correlation_decay_for
from repro.inference.correlation_decay import TwoSpinCorrelationDecayInference
from repro.models import hardcore_model
from repro.sampling import sample_exact_local

# The golden tuple was recorded before the sampler memoised its oracle.
occupied, failed, rounds = (0, 5, 9), (), 9348
instance = SamplingInstance(hardcore_model(cycle_graph(16), fugacity=0.5), {0: 1})
queries = []
marginal = TwoSpinCorrelationDecayInference.marginal
evaluate = Factor.evaluate
build_table = compiled.dense_table_from_callable
# Factor.evaluate calls outside a dense-table build, which is compile work.
weighed = []
building = []


def counted(self, conditioned, node, error):
    queries.append((node, frozenset(conditioned.pinning.as_dict().items())))
    return marginal(self, conditioned, node, error)


def counted_evaluate(self, assignment):
    if not building:
        weighed.append(self.name)
    return evaluate(self, assignment)


def flagged_build(factor, alphabet):
    building.append(factor)
    try:
        return build_table(factor, alphabet)
    finally:
        building.pop()


TwoSpinCorrelationDecayInference.marginal = counted
Factor.evaluate = counted_evaluate
compiled.dense_table_from_callable = flagged_build
try:
    oracle = correlation_decay_for(instance.distribution, decay_rate=0.5)
    result = sample_exact_local(instance, oracle, seed=0)
    jvv_weighed = len(weighed)
    fresh = SamplingInstance(
        hardcore_model(random_regular_graph(3, 30, seed=5), fugacity=1.2), {0: 1, 7: 0}
    )
    padded = TruncatedBallInference(2).marginals(fresh, 0.01)
finally:
    TwoSpinCorrelationDecayInference.marginal = marginal
    Factor.evaluate = evaluate
    compiled.dense_table_from_callable = build_table
assert result.configuration == {node: int(node in occupied) for node in range(16)}, result.configuration
assert result.failures == {node: node in failed for node in range(16)}, result.failures
assert result.rounds == rounds, result.rounds
distinct = len(set(queries))
assert len(queries) <= distinct, f"{len(queries)} oracle calls for {distinct} distinct queries"
assert jvv_weighed == 0, f"an E6 sample called Factor.evaluate {jvv_weighed} times"
assert len(padded) == 28, len(padded)
assert len(weighed) == jvv_weighed, (
    f"TruncatedBallInference(2).marginals called Factor.evaluate "
    f"{len(weighed) - jvv_weighed} times"
)
print(
    f"JVV oracle-memo smoke OK: golden tuple, {len(queries)} oracle calls "
    f"for {distinct} distinct queries, 0 Factor.evaluate calls outside "
    "dense-table builds"
)
PY

echo "== tier-1: runtime smoke =="
python -m pytest -x -q -m "not slow" tests/test_runtime.py tests/test_analysis_convergence.py tests/test_cluster.py tests/test_cluster_chaos.py

echo "== tier-1: kernel smoke =="
python - <<'PY'
from repro import obs
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, star_graph, torus_graph
from repro.models import coloring_model, hardcore_model
from repro.runtime import Runtime
from repro.sampling import registered_kernels

# One instance on the blanket-table lookup, one past BLANKET_MAX_ROWS (the
# 3**9-row hub of a 9-leaf star), which keeps the per-step gather, and a
# 3-colouring of a degree-4 torus, whose blanket rows may total zero
# (may_stick: the scan kernels then take one step per wave).
instances = {
    "blanket": SamplingInstance(hardcore_model(cycle_graph(8), fugacity=1.2), {0: 1}),
    "gather": SamplingInstance(coloring_model(star_graph(9), num_colors=3), {1: 0}),
    "may_stick": SamplingInstance(coloring_model(torus_graph(4, 4), num_colors=3)),
}
for mode, instance in instances.items():
    tables = instance.distribution.compiled_engine().batched_tables
    assert (tables.rows is not None) == (mode != "gather"), f"{mode} instance in the wrong mode"
    assert tables.may_stick == (mode != "blanket"), f"{mode} instance: may_stick is {tables.may_stick}"
kernels = registered_kernels()
expected = {"glauber", "luby-glauber", "jvv", "sequential"}
missing = expected - set(kernels)
assert not missing, f"kernels missing from the registry: {missing}"
for chains in (4, 1):
    serial = Runtime("serial", n_chains=chains)
    batched = Runtime("batched", n_chains=chains)
    for name in sorted(kernels):
        for mode, instance in instances.items():
            reference = serial.run_chains(name, instance, 12, seed=3)
            assert batched.run_chains(name, instance, 12, seed=3) == reference, (
                f"kernel {name} diverges between the serial and batched backends "
                f"({mode}, {chains} chains)"
            )
serial = Runtime("serial", n_chains=4)
batched = Runtime("batched", n_chains=4)
# A silent fall back to one step per wave must fail here.
with Runtime("batched", n_chains=4, obs=True) as traced:
    assert traced.run_chains("jvv", instances["blanket"], 12, seed=3) == serial.run_chains(
        "jvv", instances["blanket"], 12, seed=3
    ), "tracing changed the jvv states"
    schedules = [
        event["attrs"] for event in obs.events() if event["name"] == "runtime.scan.schedule"
    ]
assert [attrs["steps"] for attrs in schedules] == [12], schedules
assert schedules[0]["per_step"] is None, schedules
assert schedules[0]["waves"] < 12, f"jvv ran {schedules[0]['waves']} waves for 12 steps"
# LubyGlauber draws only doubles through the uniforms buffer, whose unread
# values ride along in the resumable state: segments equal one whole run.
for runtime in (serial, batched):
    for mode in ("blanket", "may_stick"):
        instance = instances[mode]
        whole = runtime.run_chains("luby-glauber", instance, 30, seed=5)
        states, state = runtime.run_chains(
            "luby-glauber", instance, 4, seed=5, return_state=True
        )
        for count in (11, 1, 14):
            states = runtime.run_chains("luby-glauber", instance, count, state=state)
        assert states == whole, (
            f"luby-glauber split resume != whole run ({runtime.backend}, {mode})"
        )
print(
    f"kernel smoke OK: {len(kernels)} kernels x blanket/gather/may_stick tables, "
    f"serial == batched per chain at 4 and 1 chains; jvv ran 12 steps in {schedules[0]['waves']} waves; "
    "luby-glauber split resume == whole run"
)
PY

echo "== tier-1: codes-only chain smoke =="
python - <<'PY'
import inspect

from repro.runtime import Runtime
from repro.runtime.chains import ChainBatch
from repro.sampling import glauber_sample, luby_glauber_sample
from repro.sampling.jvv import jvv_rejection_sample
from repro.sampling.sequential import sequential_scan_sample

# Chains run on the compiled engine's integer codes only; the dict engine
# is an evaluation reference, and no chain entry point selects it.
entry_points = [
    glauber_sample,
    luby_glauber_sample,
    sequential_scan_sample,
    jvv_rejection_sample,
    Runtime.run_chains,
    Runtime.run_packed,
    ChainBatch,
]
with_engine = [
    entry.__qualname__
    for entry in entry_points
    if "engine" in inspect.signature(entry).parameters
]
assert not with_engine, f"chain entry points take engine=: {with_engine}"
print(f"codes-only chain smoke OK: {len(entry_points)} chain entry points take no engine=")
PY
if grep -rn --include='*.py' serial_reference src/repro; then
    echo "src/repro names serial_reference: the dict-engine chain fallback is back" >&2
    exit 1
fi

echo "== tier-1: seeding smoke =="
python - <<'PY'
import random

import numpy as np

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import hardcore_model
from repro.runtime import ChainBatch

instance = SamplingInstance(hardcore_model(cycle_graph(6), 1.0))
picker = random.Random()
roots = [picker.getrandbits(picker.choice((8, 32, 64, 160))) for _ in range(5)]
for root in roots:
    derived = np.stack(
        [rng.random(4) for rng in ChainBatch(instance, n_chains=200, seed=root).rngs]
    )
    spawned = np.stack(
        [
            np.random.default_rng(seed).random(4)
            for seed in np.random.SeedSequence(root).spawn(200)
        ]
    )
    assert np.array_equal(derived, spawned), f"root {root}: draws differ from numpy's"
print(f"seeding smoke OK: roots {roots}, 200 chains each, draws equal numpy's")
PY
# The tracer tags each request's seeds by identity and finds them again in
# run_chains; a seed object rebuilt on access would zero these figures.
serve_json="$(python3 perfbench/run.py --workload serve --seed 1 --tiny --trace 1 --seconds 2 | tail -n 1)"
SERVE_JSON="$serve_json" python - <<'PY'
import json
import os

metrics = json.loads(os.environ["SERVE_JSON"])["metrics"]
figures = {
    name: metrics[name]["value"]
    for name in ("serve.run_chains_ms", "serve.queue_wait_ms", "serve.encode_ms")
}
assert all(value > 0 for value in figures.values()), figures
print(f"traced serve smoke OK: {figures}")
PY

echo "== tier-1: cluster smoke =="
python - <<'PY'
from repro.cluster.local import spawn_workers
from repro.cluster.protocol import ProtocolError
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.inference.ssm_inference import padded_ball_marginal
from repro.models import hardcore_model
from repro.runtime import Runtime
from repro.sampling.jvv import jvv_chain_stats

distribution = hardcore_model(cycle_graph(8), fugacity=1.2)
instance = SamplingInstance(distribution, {0: 0})
serial = {node: padded_ball_marginal(instance, node, 1) for node in instance.free_nodes}
distribution.ball_cache().clear()
batched = Runtime("batched", n_chains=4)
glauber = batched.run_chains("glauber", instance, 40, seed=5)
jvv = jvv_chain_stats(instance, 40, seed=5, runtime=batched)
with spawn_workers(2) as pool:
    with Runtime("cluster", n_chains=4, addresses=pool.addresses) as runtime:
        clustered = runtime.ball_marginals(instance, instance.free_nodes, 1)
        clustered_glauber = runtime.run_chains("glauber", instance, 40, seed=5)
        clustered_jvv = jvv_chain_stats(instance, 40, seed=5, runtime=runtime)
        # Workers run registered task bodies only: a pickled callable is
        # refused, and the connection keeps serving.
        coordinator = runtime.cluster_client()
        refused = coordinator.submit_task("call", (pow, (2, 8), {}))
        try:
            refused.result(timeout=30)
        except ProtocolError as error:  # the worker's own error, as raised there
            assert "unknown task kind" in str(error), f"wrong refusal: {error}"
        else:
            raise AssertionError("a worker ran a pickled 'call' task")
        assert coordinator.submit_task("ping", "alive").result(timeout=30) == "alive"
assert clustered == serial, "cluster marginals diverge from the serial loop"
assert clustered_glauber == glauber, "cluster glauber chains diverge from batched"
assert clustered_jvv == jvv, "cluster jvv_chain_stats diverge from batched"
print(
    "cluster smoke OK: 2 workers, bit-identical marginals, chains and jvv stats; "
    "'call' refused as an unknown task kind"
)
PY

echo "== tier-1: chaos smoke =="
python - <<'PY'
from repro.cluster import FaultPlan
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.local import spawn_workers
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.inference.ssm_inference import padded_ball_marginal
from repro.models import hardcore_model
from repro.runtime import stream_ball_marginal_tasks

distribution = hardcore_model(cycle_graph(10), fugacity=1.2)
instance = SamplingInstance(distribution, {0: 0})
serial = {node: padded_ball_marginal(instance, node, 2) for node in instance.free_nodes}
distribution.ball_cache().clear()
# Worker 0 is armed to hard-crash (os._exit) after completing two tasks --
# the deterministic OOM-killer scenario of repro.cluster.chaos.
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
        survivors = coordinator.live_worker_count
assert survivors == 1, f"expected exactly one survivor, saw {survivors}"
assert merged == serial, "post-crash merge diverges from the serial loop"
print("chaos smoke OK: worker crashed mid-stream, bit-identical merge")
PY

echo "== tier-1: traced cluster smoke =="
python - <<'PY'
import json
import os
import tempfile

from repro import obs
from repro.cluster.local import spawn_workers
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import hardcore_model
from repro.obs.cli import main as trace_cli
from repro.runtime import Runtime

instance = SamplingInstance(hardcore_model(cycle_graph(10), fugacity=1.2), {0: 1})
with spawn_workers(2) as pool:
    with Runtime("cluster", addresses=pool.addresses) as runtime:
        expected = runtime.run_chains("glauber", instance, 30, seeds=range(6))
    with Runtime("cluster", addresses=pool.addresses, obs=True) as runtime:
        observed = runtime.run_chains("glauber", instance, 30, seeds=range(6))
        events = obs.events()
        assert observed == expected, "tracing changed the sampled states"
        traces = {event["trace"] for event in events}
        procs = {event["proc"] for event in events}
        assert len(traces) == 1, f"expected one trace id, saw {len(traces)}"
        assert {"main", "cluster-worker"} <= procs, f"spans not stitched: {procs}"
        snapshot = runtime.snapshot()
        assert snapshot["cluster"]["live_workers"] == 2
        handle, path = tempfile.mkstemp(suffix=".trace.json")
        os.close(handle)
        obs.export_chrome(path)
try:
    assert trace_cli([path, "--validate"]) == 0, "trace schema validation failed"
    with open(path) as stream:
        payload = json.load(stream)
    assert payload["traceEvents"], "exported trace is empty"
finally:
    os.unlink(path)
print(
    "traced cluster smoke OK: bit-identical, one trace id across "
    f"{len(procs)} procs, schema validated"
)
PY

echo "== tier-1: serving smoke =="
python - <<'PY'
import json
import signal
import socket
import subprocess
import sys
import threading

from repro.runtime import Runtime
from repro.serve.client import http_request, sample_payload
from repro.serve.registry import build_instance, encode_state

HC = {
    "family": "hardcore",
    "graph": {"kind": "cycle", "n": 16},
    "fugacity": 1.2,
    "pinning": {"0": 1},
}
HC_PATH = {"family": "hardcore", "graph": {"kind": "path", "n": 12}, "fugacity": 1.1}


def leg(models, extra_args):
    """8 concurrent requests spread over ``models`` against one server."""
    command = [
        sys.executable, "-m", "repro.serve",
        "--host", "127.0.0.1", "--port", "0",
        "--max-batch", "8", "--max-wait-ms", "250",
    ]
    for name, model in models.items():
        command += ["--model", f"{name}={json.dumps(model)}"]
    # max_wait_ms is generous so all 8 requests land inside one window: the
    # coalescing assertion below is then deterministic, not racy.
    server = subprocess.Popen(command + extra_args, stdout=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline().strip()
        assert banner.startswith("repro-serve listening on "), f"bad banner: {banner!r}"
        host, _, port = banner.rsplit(" ", 1)[-1].rpartition(":")
        port = int(port)

        names = sorted(models)
        count, seed_base, n_requests = 20, 100, 8
        responses = [None] * n_requests

        def one(i):
            payload = sample_payload(
                names[i % len(names)], kernel="glauber", count=count, seed=seed_base + i
            )
            responses[i] = http_request(host, port, "POST", "/v1/sample", payload)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(n_requests)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        # Solo baseline: the same seeds through a local Runtime, one at a time.
        with Runtime("batched") as runtime:
            for i, (status, body) in enumerate(responses):
                assert status == 200, f"request {i}: HTTP {status}: {body}"
                instance, _ = build_instance(models[names[i % len(names)]])
                nodes = list(instance.distribution.graph)
                solo = runtime.run_chains("glauber", instance, count, seed=seed_base + i)
                expected = json.loads(json.dumps([encode_state(nodes, s) for s in solo]))
                assert body["states"] == expected, f"request {i} not bit-identical to solo"

        batches = {body["batch_id"] for _, body in responses}
        sizes = sum(body["batch_size"] for _, body in responses)
        assert len(batches) <= 2, f"8 concurrent requests ran {len(batches)} batches"
        assert sizes >= n_requests, f"batch sizes do not cover the requests: {sizes}"

        # Malformed bodies fail their own request with a 400, never a 500.
        for bad in (
            [sample_payload(names[0])],
            dict(sample_payload(names[0]), count=1e400),
        ):
            status, body = http_request(host, port, "POST", "/v1/sample", bad)
            assert status == 400, f"malformed sample {bad!r}: HTTP {status}: {body}"

        # A kept-alive connection left idle must not hold up the drain.
        with socket.create_connection((host, port), timeout=30) as idle:
            idle.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: smoke\r\n\r\n")
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = idle.recv(4096)
                assert chunk, "the server closed the kept-alive connection"
                head += chunk
            assert head.startswith(b"HTTP/1.1 200"), head
            assert b"Connection: keep-alive" in head, head
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0, "server did not drain cleanly on SIGTERM"
        return len(batches)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


per_model = leg({"hc": HC}, [])
cross_model = leg({"hc": HC, "hc-path": HC_PATH}, ["--cross-model"])
print(
    f"serving smoke OK: 8 concurrent requests coalesced into {per_model} "
    f"batch(es) for one model and {cross_model} across two models "
    "(--cross-model), bit-identical to solo runs, malformed bodies 400, clean drains "
    "with a kept-alive connection idle"
)
PY

echo "== tier-1: learning smoke =="
python - <<'PY'
import numpy as np

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.learning import IsingFamily, encode_configurations, fit
from repro.models import ising_model
from repro.runtime import Runtime

# The documented calibration workload (docs/ARCHITECTURE.md): PL must land
# within 0.05 of the generating weights, CD within 0.15, fully seeded.
TRUE = np.array([0.4, 0.25])
graph = cycle_graph(10)
truth = ising_model(graph, interaction=TRUE[0], external_field=TRUE[1])
data = Runtime("batched", n_chains=400).run_chains(
    "glauber", SamplingInstance(truth, {}), 300, seed=42
)
family = IsingFamily(graph)
codes = encode_configurations(family.template().compiled_engine(), data)

pl = fit(family, codes, method="pl")
assert pl.converged, "PL did not converge on the calibration workload"
pl_err = float(np.abs(pl.theta - TRUE).max())
assert pl_err < 0.05, f"PL recovery error {pl_err:.4f} exceeds 0.05"

cd_serial = fit(family, codes, method="cd", runtime="serial", seed=0, max_iter=40)
cd_batched = fit(family, codes, method="cd", runtime="batched", seed=0, max_iter=40)
assert np.array_equal(cd_serial.theta, cd_batched.theta), (
    "CD fitted weights diverge between the serial and batched runtimes"
)
cd = fit(family, codes, method="cd", runtime="batched", seed=0)
cd_err = float(np.abs(cd.theta - TRUE).max())
assert cd_err < 0.15, f"CD recovery error {cd_err:.4f} exceeds 0.15"
print(
    f"learning smoke OK: PL err {pl_err:.4f} (<0.05), CD err {cd_err:.4f} "
    "(<0.15), serial == batched negative phase"
)
PY

echo "== tier-1: process-backend smoke =="
python - <<'PY'
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, path_graph
from repro.models import hardcore_model
from repro.runtime import Runtime, chain_seed_sequences
from repro.runtime.shm import leaked_dev_shm_segments

before = leaked_dev_shm_segments()
assert not before, f"/dev/shm already holds repro segments: {before}"

instance = SamplingInstance(hardcore_model(cycle_graph(12), fugacity=1.2), {0: 1})
serial = Runtime("serial", n_chains=4)
reference = serial.run_chains("glauber", instance, 25, seed=7)

# 2 real forked workers, the InstanceSpec crossing by pickle and each
# chain block's code matrix coming back by pickle (inline_threshold=0 so
# this small workload exercises the workers, not the in-process guard).
with Runtime("process", n_chains=4, n_workers=2, inline_threshold=0) as runtime:
    shipped = runtime.run_chains("glauber", instance, 25, seed=7)
assert shipped == reference, "process chain blocks diverge from the serial loop"

# One spec id per instance and compiled engine: two process calls on one
# instance with an in-place reweight between them each equal batched (the
# second call must ship the new weights under a new spec id).
reweighted = SamplingInstance(hardcore_model(cycle_graph(12), fugacity=1.0))
batched = Runtime("batched", n_chains=4)
with Runtime("process", n_chains=4, n_workers=2, inline_threshold=0) as runtime:
    for fugacity in (1.0, 40.0):
        reweighted.distribution.update_factors(
            hardcore_model(cycle_graph(12), fugacity=fugacity).factors
        )
        expected = batched.run_chains("glauber", reweighted, 25, seed=3)
        assert runtime.run_chains("glauber", reweighted, 25, seed=3) == expected, (
            f"process call after update_factors(fugacity={fugacity}) diverges from batched"
        )

# Theorem 5.1 ball marginals of a pinned colouring streamed through the
# forked workers: equal to the serial loop, and the parent's ball cache
# stays cold (workers return marginals only).
from repro.inference.ssm_inference import padded_ball_marginal
from repro.models import coloring_model


def colouring():
    return SamplingInstance(coloring_model(cycle_graph(10), 3), {0: 1, 5: 2})


local = colouring()
serial_marginals = {node: padded_ball_marginal(local, node, 1) for node in local.free_nodes}
pooled = colouring()
with Runtime("process", n_workers=2) as runtime:
    streamed = dict(runtime.stream_ball_marginals(pooled, pooled.free_nodes, 1))
assert streamed == serial_marginals, "process ball stream diverges from the serial loop"
parent = pooled.distribution.ball_cache()
assert parent.stats()["compiles"] == 0 and not parent.extras, (
    f"parent ball cache warmed by the stream: {parent.stats()}"
)

# Packed multi-instance batching: two models in one padded code matrix,
# each group bit-identical to its own serial chains.
groups = [
    (instance, chain_seed_sequences(7, 4)),
    (
        SamplingInstance(hardcore_model(path_graph(9), fugacity=1.1)),
        chain_seed_sequences(8, 4),
    ),
]
packed = serial.run_packed("glauber", groups, 25)
for index, (member, seeds) in enumerate(groups):
    solo = serial.run_chains("glauber", member, 25, seeds=seeds)
    assert packed[index] == solo, f"packed group {index} diverges from solo"

# One persistent set of forked workers: two calls on one Runtime share
# the worker pids, shutdown leaves no forked worker behind (each exits on
# end-of-file and is reaped), and the child prints no traceback, from the
# resource tracker or anything else.
import ast
import subprocess
import sys

child = subprocess.run(
    [
        sys.executable, "-c",
        "import os, time\n"
        "from repro.gibbs import SamplingInstance\n"
        "from repro.graphs import cycle_graph\n"
        "from repro.models import hardcore_model\n"
        "from repro.runtime import Runtime\n"
        "instance = SamplingInstance(hardcore_model(cycle_graph(12), 1.2), {0: 1})\n"
        "with Runtime('process', n_chains=4, n_workers=2, inline_threshold=0) as runtime:\n"
        "    for seed in (1, 2):\n"
        "        runtime.run_chains('glauber', instance, 25, seed=seed)\n"
        "        print(sorted(runtime._forked.pids))\n"
        "    pids = runtime._forked.pids\n"
        "def exists(pid):\n"
        "    try:\n"
        "        os.kill(pid, 0)\n"
        "    except ProcessLookupError:\n"
        "        return False\n"
        "    return True\n"
        "deadline = time.monotonic() + 10\n"
        "while any(map(exists, pids)) and time.monotonic() < deadline:\n"
        "    time.sleep(0.05)\n"
        "print(sorted(filter(exists, pids)))\n",
    ],
    capture_output=True,
    text=True,
    timeout=120,
)
assert child.returncode == 0, child.stderr
first, second, left = child.stdout.split("\n")[:3]
assert first == second and len(ast.literal_eval(first)) == 2, f"workers not reused: {child.stdout!r}"
assert left == "[]", f"forked workers left after shutdown: {left}"
assert "resource_tracker" not in child.stderr and "Traceback" not in child.stderr, child.stderr

after = leaked_dev_shm_segments()
assert not after, f"leaked /dev/shm segments: {after}"
print(
    "process-backend smoke OK: chain blocks, ball stream + packed bit-identical, "
    "calls across update_factors equal batched, "
    "parent ball cache cold, two calls on one worker set, none left after "
    "shutdown, no tracker traceback, "
    "/dev/shm clean"
)
PY

echo "== tier-1: marginals-only ball streams =="
if grep -rn --include='*.py' -e 'adopt(' -e export_marginal_memo -e absorb_marginal_memo \
    -e MEMO_DELTA_CAP -e memo_cap src/repro; then
    echo "src/repro names parent-cache warming: ball streams must return marginals only" >&2
    exit 1
fi
echo "marginals-only guard OK"

echo "== tier-1: one scheduler =="
if grep -rn --include='*.py' -e ProcessPoolExecutor -e BrokenProcessPool -e ForkPool src/repro; then
    echo "src/repro names a process pool: the process backend must run forked cluster workers" >&2
    exit 1
fi
if grep -rnE --include='*.py' -e get_context -e '\.Pool\(' -e process_map -e _FORK_TASK \
    -e '^\s*(import|from)\s+multiprocessing' src/repro; then
    echo "src/repro creates a multiprocessing pool: independent LOCAL work runs as plain loops" >&2
    exit 1
fi
echo "one-scheduler guard OK"

echo "== tier-1: perfbench smoke =="
python3 -m pytest -q perfbench/check_smoke.py

echo "== tier-1: docs =="
test -f docs/ARCHITECTURE.md || { echo "docs/ARCHITECTURE.md is missing" >&2; exit 1; }
test -f docs/TESTING.md || { echo "docs/TESTING.md is missing" >&2; exit 1; }
python -m doctest README.md

echo "tier-1 OK"
