"""Microbenchmarks: compiled evaluation engine vs reference dict engine.

Times the two backends of :mod:`repro.engine` on the workloads that dominate
the experiment suite:

* ``elimination`` -- full-instance partition functions and marginals under
  varying pinnings (the inner loop of SSM measurement and the
  phase-transition sweep) on hardcore / Ising / coloring instances;
* ``ssm_inference`` -- :class:`TruncatedBallInference` marginals at every
  node over several rounds (the Theorem 5.1 workload; the ball-compilation
  cache makes repeated rounds nearly free for the compiled engine);
* ``cold_distributions`` -- Theorem 5.1 marginals over a fugacity sweep on
  one graph, a fresh distribution per fugacity: the first meets an empty
  process-wide plan store, the later ones find every elimination order and
  contraction schedule there (reported separately);
* ``fresh_compile`` -- ``compiled_engine()`` on fresh models (hardcore on
  a 3-regular graph, a 6-colouring of a torus, Ising), with its two value
  dependent parts timed apart: the dense factor tables (one per callable)
  and the fusion products (a layout from the plan store).  Each model's
  ``arrays`` and ``fused_arrays`` are checked byte for byte against tables
  built factor by factor and fused under a cold plan store before any
  timing;
* ``jvv_exact_local`` -- E6's exact sampler: ``sample_exact_local`` on the
  16-cycle hardcore instance with the correlation-decay oracle, seeds 0-3,
  a fresh instance and oracle per sample.  Every seed's ``(configuration,
  failures, rounds)`` is checked against its golden tuple before any
  timing, and the row records how many oracle calls the four samples make.

Spreads (median, quartiles, minimum), the host-speed probe beside every
timed repeat (its spread and the probe-scaled median) and the environment
stamp come from ``spread.py``.

The chains run on the compiled engine only, so no chain row is timed
here; ``BENCH_runtime.json`` and perfbench time them.

Run directly to (re)record the JSON baseline::

    PYTHONPATH=src python benchmarks/bench_engine.py  # writes BENCH_engine.json

or under pytest (with the other benchmarks) for a quick regression check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine.compiled import _PLAN_STORE, CompiledGibbs, dense_table_from_callable
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, random_regular_graph, random_tree, torus_graph
from repro.inference import TruncatedBallInference, correlation_decay_for
from repro.models import coloring_model, hardcore_model, ising_model
from repro.sampling import sample_exact_local
from spread import Samples, environment, timed

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _time(function: Callable[[], object]) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _elimination_workload(engine: str) -> Callable[[int], object]:
    """Partition functions + marginals under distinct pinnings (no memo hits).

    The pinned values vary with the repeat counter so the compiled engine's
    marginal memo cannot turn the repeats into cache hits -- this workload
    measures raw contraction throughput.
    """
    models = [
        hardcore_model(cycle_graph(24), fugacity=1.2),
        ising_model(cycle_graph(20), interaction=0.3, external_field=0.1),
        coloring_model(cycle_graph(16), num_colors=3),
    ]

    def run(iteration: int = 0) -> None:
        for distribution in models:
            nodes = distribution.nodes
            for trial in range(8):
                index = (3 * trial + iteration) % len(nodes)
                pinning = {nodes[index]: distribution.alphabet[0]}
                distribution.partition_function(pinning, engine=engine)
                distribution.marginal(nodes[(index + 7) % len(nodes)], pinning, engine=engine)

    return run


def _ssm_inference_workload(engine: str) -> Callable[[int], object]:
    """Truncated-ball marginals at every node, repeated over rounds.

    Repeats deliberately re-query the same balls: this is the access pattern
    of the Theorem 5.1 engines and the JVV passes, which the compiled
    engine's ball/marginal caches are designed for.
    """
    distribution = hardcore_model(random_tree(40, seed=2), fugacity=1.0)
    instance = SamplingInstance(distribution, {0: 0})
    inference = TruncatedBallInference(radius=3, engine=engine)

    def run(iteration: int = 0) -> None:
        for _round in range(3):
            for node in instance.free_nodes:
                inference.marginal(instance, node, error=0.05)

    return run


def _phase_transition_workload(engine: str) -> Callable[[int], object]:
    """Root marginals under many boundary pinnings (the E8 sweep pattern).

    The boundary values vary with the repeat counter (same pinned *domain*,
    fresh values), matching ``boundary_influence``'s enumeration and keeping
    the compiled engine's marginal memo out of the measurement.
    """
    import networkx as nx

    distribution = hardcore_model(nx.balanced_tree(2, 4), fugacity=1.5)
    leaves = [node for node, degree in distribution.graph.degree() if degree == 1]

    def run(iteration: int = 0) -> None:
        for trial in range(24):
            mask = 24 * iteration + trial
            pinning = {
                leaf: (mask >> (i % 8)) & 1 for i, leaf in enumerate(leaves[:8])
            }
            if distribution.partition_function(pinning, engine=engine) <= 0.0:
                continue
            distribution.marginal(0, pinning, engine=engine)

    return run


WORKLOADS = {
    "elimination": _elimination_workload,
    "ssm_inference": _ssm_inference_workload,
    "phase_transition": _phase_transition_workload,
}


def run(repeats: int = 3) -> List[Dict[str, object]]:
    """Time every workload under both engines; report the best of ``repeats``."""
    rows: List[Dict[str, object]] = []
    for name, factory in WORKLOADS.items():
        timings = {}
        for engine in ("dict", "compiled"):
            # Best-of-N on one workload instance: the first repeat pays any
            # compilation/caching cost, the best repeat measures steady state
            # (both engines keep their instance-level caches warm).  The
            # iteration counter lets raw-throughput workloads vary their
            # queries so result memos cannot short-circuit the measurement.
            workload = factory(engine)
            best = np.inf
            for iteration in range(repeats):
                best = min(best, _time(lambda: workload(iteration)))
            timings[engine] = best
        rows.append(
            {
                "workload": name,
                "dict_seconds": timings["dict"],
                "compiled_seconds": timings["compiled"],
                "speedup": timings["dict"] / timings["compiled"],
            }
        )
    return rows


#: The fugacity sweep of the ``cold_distributions`` row, one fresh
#: distribution each.
COLD_FUGACITIES = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)


def cold_distributions(repeats: int = 5) -> Dict[str, object]:
    """Fresh distributions on one graph: a cold plan store, then a warm one.

    Each fugacity builds a new hardcore distribution on one tree, so its
    ball cache and marginal memos start empty; what carries over is the
    process-wide store of elimination orders and contraction schedules,
    which is keyed by structure alone.  Every repeat empties that store,
    times the first distribution (cold) and the later ones (warm).  The
    compiled marginals are checked against ``engine="dict"`` before any
    timing.
    """
    graph = random_tree(40, seed=2)

    def marginals_at(engine: str, fugacity: float) -> Dict:
        instance = SamplingInstance(hardcore_model(graph, fugacity=fugacity), {0: 0})
        return TruncatedBallInference(radius=3, engine=engine).marginals(instance, error=0.05)

    for fugacity in COLD_FUGACITIES:
        compiled = marginals_at("compiled", fugacity)
        reference = marginals_at("dict", fugacity)
        assert compiled.keys() == reference.keys()
        for node, marginal in compiled.items():
            for value, probability in marginal.items():
                assert abs(probability - reference[node][value]) < 1e-9, (fugacity, node)
    cold = Samples()
    warm = Samples()
    for _repeat in range(repeats):
        _PLAN_STORE.clear()
        for index, fugacity in enumerate(COLD_FUGACITIES):
            (warm if index else cold).time(lambda: marginals_at("compiled", fugacity))
    return {
        "workload": "cold_distributions",
        "fugacities": list(COLD_FUGACITIES),
        "repeats": repeats,
        "cold_seconds": cold.spread(),
        "warm_seconds": warm.spread(),
        "cold_over_warm": statistics.median(cold.samples) / statistics.median(warm.samples),
    }


#: The fresh models of the ``fresh_compile`` row: a graph built once and
#: a model builder called per repeat.
FRESH_MODELS = {
    "hardcore_3regular_200": (
        lambda: random_regular_graph(3, 200, seed=1),
        lambda graph: hardcore_model(graph, fugacity=1.0),
    ),
    "coloring6_torus_12x12": (
        lambda: torus_graph(12, 12),
        lambda graph: coloring_model(graph, 6),
    ),
    "ising_3regular_200": (
        lambda: random_regular_graph(3, 200, seed=1),
        lambda graph: ising_model(graph, 0.3, 0.1),
    ),
}


def _assert_compiles_like_the_reference(distribution) -> None:
    """``arrays`` and ``fused_arrays`` equal tables built per factor, fused cold."""
    compiled = distribution.compiled_engine()
    alphabet = distribution.alphabet
    arrays = [dense_table_from_callable(factor, alphabet) for factor in distribution.factors]
    _PLAN_STORE.clear()
    reference = CompiledGibbs(compiled.nodes, alphabet, compiled.scopes, arrays)
    for built, expected in (
        (compiled.arrays, reference.arrays),
        (compiled.fused_arrays, reference.fused_arrays),
    ):
        assert [a.tobytes() for a in built] == [a.tobytes() for a in expected]


def fresh_compile(repeats: int = 15) -> Dict[str, object]:
    """``compiled_engine()`` on fresh models, and its two value-dependent parts.

    Every repeat builds a fresh model, so no factor has a cached table;
    the plan store is warm after the bit-identity check, as it is for any
    model after the first of its shape.  ``dense_tables_seconds`` times
    ``Factor.dense_table`` over every factor of another fresh model and
    ``fusion_seconds`` the fusion of its arrays by the stored layout; the
    rest of ``compiled_engine_seconds`` is node and symbol indexing, the
    scope encoding and the plan-store lookups.
    """
    rows: Dict[str, object] = {}
    for name, (make_graph, build) in FRESH_MODELS.items():
        graph = make_graph()
        _assert_compiles_like_the_reference(build(graph))
        total = Samples()
        tables = Samples()
        fusion = Samples()
        for _repeat in range(repeats):
            distribution = build(graph)
            compiled = total.time(distribution.compiled_engine)
            distribution = build(graph)
            alphabet = distribution.alphabet
            arrays = tables.time(
                lambda: [factor.dense_table(alphabet) for factor in distribution.factors]
            )
            fusion.time(
                lambda: _PLAN_STORE.layout_for(len(compiled.nodes), compiled.scopes).fuse(arrays)
            )
        rows[name] = {
            "nodes": graph.number_of_nodes(),
            "factors": len(distribution.factors),
            "compiled_engine_seconds": total.spread(),
            "dense_tables_seconds": tables.spread(),
            "fusion_seconds": fusion.spread(),
        }
    return {
        "workload": "fresh_compile",
        "repeats": repeats,
        "models": rows,
        "bit_identical_to_per_factor_cold": True,
    }


#: ``sample_exact_local`` on the E6 instance, per seed: (occupied nodes,
#: failed nodes, rounds).  ``tests/test_sampling_jvv.py`` pins the same
#: tuples.
JVV_GOLDEN = {
    0: ((0, 5, 9), (), 9348),
    1: ((0, 12), (), 18696),
    2: ((0, 4, 9, 11, 13), (11,), 9348),
    3: ((0, 6), (), 14022),
}


def _e6_exact_sample(seed: int, oracle_calls: Optional[List[int]] = None):
    """One E6 exact sample on a fresh instance and oracle, counting oracle calls."""
    instance = SamplingInstance(hardcore_model(cycle_graph(16), fugacity=0.5), {0: 1})
    oracle = correlation_decay_for(instance.distribution, decay_rate=0.5)
    if oracle_calls is not None:
        marginal = oracle.marginal

        def counted(*args):
            oracle_calls.append(1)
            return marginal(*args)

        oracle.marginal = counted
    return sample_exact_local(instance, oracle, seed=seed)


def jvv_exact_local(repeats: int = 9) -> Dict[str, object]:
    """The four E6 exact samples, after checking each against its golden tuple."""
    oracle_calls: List[int] = []
    for seed, (occupied, failed, rounds) in JVV_GOLDEN.items():
        result = _e6_exact_sample(seed, oracle_calls)
        assert result.configuration == {node: int(node in occupied) for node in range(16)}
        assert result.failures == {node: node in failed for node in range(16)}
        assert result.rounds == rounds, (seed, result.rounds)
    return {
        "workload": "jvv_exact_local",
        "seeds": sorted(JVV_GOLDEN),
        "oracle_calls": len(oracle_calls),
        "seconds_per_sample": timed(
            lambda: [_e6_exact_sample(seed) for seed in JVV_GOLDEN], repeats, per=len(JVV_GOLDEN)
        ),
        "bit_identical_to_golden": True,
    }


def ball_cache_stats() -> Dict[str, int]:
    """The engine's ball-cache counters after the SSM workload, obs off.

    ``BallCache.stats()`` (hits, misses, compiles, cap-reset drops,
    size) is always-on bookkeeping -- no observability handle needed --
    so the baseline can document the cache behaviour behind the
    ``ssm_inference`` speedup: the repeated rounds re-query the same
    balls and should hit far more often than they compile.
    """
    distribution = hardcore_model(random_tree(40, seed=2), fugacity=1.0)
    instance = SamplingInstance(distribution, {0: 0})
    inference = TruncatedBallInference(radius=3, engine="compiled")
    for _round in range(3):
        for node in instance.free_nodes:
            inference.marginal(instance, node, error=0.05)
    return distribution.ball_cache().stats()


def record_baseline(path: Path = BASELINE_PATH, repeats: int = 3) -> Dict[str, object]:
    """Run the benchmark and write the JSON baseline next to the repo root."""
    rows = run(repeats=repeats)
    payload = {
        "benchmark": "bench_engine",
        "description": "compiled (array/tensor-contraction) vs dict elimination engine",
        "workloads": rows,
        "min_speedup": min(row["speedup"] for row in rows),
        "cold_distributions": cold_distributions(),
        "fresh_compile": fresh_compile(),
        "jvv_exact_local": jvv_exact_local(),
        "ball_cache": ball_cache_stats(),
        "environment": environment(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def test_compiled_engine_is_faster(once=None) -> None:
    """The compiled engine beats the dict engine on every workload.

    The recorded baseline (BENCH_engine.json) documents the actual ratios;
    this guard only asserts a conservative floor so CI noise cannot flake.
    """
    rows = run(repeats=2) if once is None else once(run, repeats=2)
    print()
    for row in rows:
        print(
            f"{row['workload']:>14}: dict {row['dict_seconds'] * 1e3:8.2f} ms   "
            f"compiled {row['compiled_seconds'] * 1e3:8.2f} ms   "
            f"speedup {row['speedup']:6.2f}x"
        )
    for row in rows:
        assert row["speedup"] > 1.5, f"workload {row['workload']} regressed: {row}"


if __name__ == "__main__":
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    result = record_baseline()
    for row in result["workloads"]:
        print(
            f"{row['workload']:>14}: dict {row['dict_seconds'] * 1e3:8.2f} ms   "
            f"compiled {row['compiled_seconds'] * 1e3:8.2f} ms   "
            f"speedup {row['speedup']:6.2f}x"
        )
    row = result["cold_distributions"]
    print(
        f"{row['workload']}: cold {row['cold_seconds']['median'] * 1e3:.2f} ms   "
        f"warm {row['warm_seconds']['median'] * 1e3:.2f} ms per distribution   "
        f"cold/warm {row['cold_over_warm']:.2f}x"
    )
    for name, row in result["fresh_compile"]["models"].items():
        print(
            f"fresh_compile {name}: compiled_engine "
            f"{row['compiled_engine_seconds']['median'] * 1e3:.2f} ms   "
            f"dense tables {row['dense_tables_seconds']['median'] * 1e3:.2f} ms   "
            f"fusion {row['fusion_seconds']['median'] * 1e3:.2f} ms   "
            f"({row['factors']} factors)"
        )
    row = result["jvv_exact_local"]
    print(
        f"jvv_exact_local: {row['seconds_per_sample']['median'] * 1e3:.2f} ms per sample   "
        f"({row['oracle_calls']} oracle calls over seeds {row['seeds']})"
    )
    stats = result["ball_cache"]
    print(
        "    ball cache: "
        + "  ".join(f"{key}={stats[key]}" for key in sorted(stats))
    )
    print(f"baseline written to {BASELINE_PATH}")
