"""Microbenchmarks: compiled evaluation engine vs reference dict engine.

Times the two backends of :mod:`repro.engine` on the workloads that dominate
the experiment suite:

* ``elimination`` -- full-instance partition functions and marginals under
  varying pinnings (the inner loop of SSM measurement and the
  phase-transition sweep) on hardcore / Ising / coloring instances;
* ``ssm_inference`` -- :class:`TruncatedBallInference` marginals at every
  node over several rounds (the Theorem 5.1 workload; the ball-compilation
  cache makes repeated rounds nearly free for the compiled engine);
* ``glauber`` -- single-site conditional throughput of the Glauber chain;
* ``cold_distributions`` -- Theorem 5.1 marginals over a fugacity sweep on
  one graph, a fresh distribution per fugacity: the first meets an empty
  process-wide plan store, the later ones find every elimination order and
  contraction schedule there (reported separately).

Run directly to (re)record the JSON baseline::

    PYTHONPATH=src python benchmarks/bench_engine.py  # writes BENCH_engine.json

or under pytest (with the other benchmarks) for a quick regression check.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.engine.compiled import _PLAN_STORE
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, random_tree
from repro.inference import TruncatedBallInference
from repro.models import coloring_model, hardcore_model, ising_model
from repro.sampling import glauber_sample

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


def _glauber_workload(engine: str) -> Callable[[int], object]:
    """Single-site conditional throughput (5000 chain steps)."""
    distribution = coloring_model(cycle_graph(30), num_colors=4)
    instance = SamplingInstance(distribution)

    def run(iteration: int = 0) -> None:
        glauber_sample(instance, steps=5000, seed=11 + iteration, engine=engine)

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
    "glauber": _glauber_workload,
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
    cold: List[float] = []
    warm: List[float] = []
    for _repeat in range(repeats):
        _PLAN_STORE.clear()
        timings = [_time(lambda: marginals_at("compiled", f)) for f in COLD_FUGACITIES]
        cold.append(timings[0])
        warm.extend(timings[1:])
    return {
        "workload": "cold_distributions",
        "fugacities": list(COLD_FUGACITIES),
        "repeats": repeats,
        "cold_seconds": _spread(cold),
        "warm_seconds": _spread(warm),
        "cold_over_warm": statistics.median(cold) / statistics.median(warm),
    }


def _spread(samples: List[float]) -> Dict[str, float]:
    """Median and quartiles of a list of timings."""
    low, median, high = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": low, "q3": high, "samples": len(samples)}


def ball_cache_stats() -> Dict[str, int]:
    """The engine's ball-cache counters after the SSM workload, obs off.

    ``BallCache.stats()`` (hits, misses, compiles, adoptions, memo-cap
    drops) is always-on bookkeeping -- no observability handle needed --
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
        "ball_cache": ball_cache_stats(),
        "environment": {
            "cores": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
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
    stats = result["ball_cache"]
    print(
        "    ball cache: "
        + "  ".join(f"{key}={stats[key]}" for key in sorted(stats))
    )
    print(f"baseline written to {BASELINE_PATH}")
