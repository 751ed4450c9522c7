"""Shared fixtures and helpers for the test suite.

Ground truth throughout is brute-force enumeration / variable elimination,
so all fixture instances are small enough to enumerate exactly.
"""

from __future__ import annotations

import itertools
from typing import Dict

import pytest

from repro.gibbs import GibbsDistribution, SamplingInstance
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.models import coloring_model, hardcore_model, matching_model, two_spin_model


def brute_force_partition_function(distribution: GibbsDistribution, pinning=None) -> float:
    """Partition function by direct enumeration (independent of the library's own)."""
    pinning = dict(pinning or {})
    nodes = distribution.nodes
    free = [node for node in nodes if node not in pinning]
    total = 0.0
    for values in itertools.product(distribution.alphabet, repeat=len(free)):
        configuration = dict(pinning)
        configuration.update(zip(free, values))
        total += distribution.weight(configuration)
    return total


def brute_force_marginal(distribution: GibbsDistribution, node, pinning=None) -> Dict:
    """Single-node marginal by direct enumeration."""
    pinning = dict(pinning or {})
    weights = {}
    for value in distribution.alphabet:
        extended = dict(pinning)
        extended[node] = value
        weights[value] = brute_force_partition_function(distribution, extended)
    total = sum(weights.values())
    return {value: weight / total for value, weight in weights.items()}


@pytest.fixture
def hardcore_cycle():
    """Hardcore model on a 6-cycle, below the uniqueness threshold."""
    return hardcore_model(cycle_graph(6), fugacity=0.8)


@pytest.fixture
def hardcore_path():
    """Hardcore model on a 5-path."""
    return hardcore_model(path_graph(5), fugacity=1.0)


@pytest.fixture
def coloring_cycle():
    """Uniform proper 3-colorings of a 5-cycle (locally admissible: q = Delta + 1)."""
    return coloring_model(cycle_graph(5), num_colors=3)


@pytest.fixture
def ising_path():
    """Soft anti-ferromagnetic two-spin model on a 4-path."""
    return two_spin_model(path_graph(4), beta=0.4, gamma=0.7, field=1.2)


@pytest.fixture
def matching_path():
    """Monomer--dimer model of a 5-path (line graph is a 4-path)."""
    return matching_model(path_graph(5), edge_weight=1.0)


@pytest.fixture
def hardcore_instance(hardcore_cycle):
    """Unpinned hardcore instance."""
    return SamplingInstance(hardcore_cycle)


@pytest.fixture
def pinned_hardcore_instance(hardcore_cycle):
    """Hardcore instance with one node pinned occupied and one pinned empty."""
    return SamplingInstance(hardcore_cycle, {0: 1, 3: 0})


@pytest.fixture
def coloring_instance(coloring_cycle):
    """Coloring instance with one node pinned."""
    return SamplingInstance(coloring_cycle, {0: 2})


# ----------------------------------------------------------------------
# in-thread cluster workers
# ----------------------------------------------------------------------
@pytest.fixture
def inprocess_workers():
    """Two real worker servers on loopback, served from daemon threads."""
    import threading

    from repro.cluster.worker import ClusterWorker

    workers = [ClusterWorker() for _ in range(2)]
    for worker in workers:
        threading.Thread(target=worker.serve_forever, daemon=True).start()
    try:
        yield workers
    finally:
        for worker in workers:
            worker.close()


@pytest.fixture
def submit_test_task(monkeypatch):
    """``submit_test_task(coordinator, kind, **args)``: a test-only task kind.

    In-thread :class:`~repro.cluster.worker.ClusterWorker` servers share
    this process's ``TASK_REGISTRY``, so the fixture registers two bodies
    for the test's duration -- ``"test-sleep"`` (blocks for
    ``args["seconds"]``, returns ``None``) and ``"test-divide"`` (raises
    ``ZeroDivisionError``) -- and submits them like any spec-bound kind.
    Returns the task's future.
    """
    import time

    from repro.runtime.shards import TASK_REGISTRY, spec_for

    monkeypatch.setitem(
        TASK_REGISTRY, "test-sleep", lambda args, spec: time.sleep(args["seconds"])
    )
    monkeypatch.setitem(TASK_REGISTRY, "test-divide", lambda args, spec: divmod(1, 0))
    instance = SamplingInstance(hardcore_model(cycle_graph(4), fugacity=1.0))

    def submit(coordinator, kind, **args):
        entry = spec_for(instance)
        return coordinator.submit_task(kind, dict(args, spec_id=entry[0]), spec=entry)

    return submit


# ----------------------------------------------------------------------
# kernel x backend conformance harness
# ----------------------------------------------------------------------
#
# THE cross-backend bit-identity contract in one place: every registered
# ChainKernel, on every Runtime backend, equals the kernel's own
# ``serial_run`` per spawned seed (``tests/test_conformance.py``).  Adding
# a kernel (register_kernel) or a backend (extend the fixture params)
# grows the matrix automatically -- no new test code.  The cluster leg
# spins up two real TCP workers per test, so it rides behind the ``slow``
# marker like the other subprocess-heavy tests.

#: Chains per conformance run (enough to exercise block splitting on the
#: distributed backends, which chunk seeds across 2 workers).
CONFORMANCE_CHAINS = 4


def serial_chain_reference(kernel_name, instance, count, seed=0, n_chains=CONFORMANCE_CHAINS):
    """The reference result: the kernel's serial_run per spawned seed."""
    from repro.runtime import chain_seed_sequences
    from repro.sampling import get_kernel

    kernel = get_kernel(kernel_name)
    return [
        kernel.serial_run(instance, count, seed=chain_seed)
        for chain_seed in chain_seed_sequences(seed, n_chains)
    ]


@pytest.fixture(scope="session")
def conformance_chains():
    """Chains per conformance run (importable only as a fixture: a bare
    ``from conftest import ...`` is ambiguous when pytest collects the
    whole repo, since ``benchmarks/`` has a conftest too)."""
    return CONFORMANCE_CHAINS


@pytest.fixture(scope="session")
def serial_reference():
    """The :func:`serial_chain_reference` helper, as a fixture."""
    return serial_chain_reference


@pytest.fixture(
    params=[
        "serial",
        "batched",
        "process",
        pytest.param("process-shm", marks=pytest.mark.slow),
        pytest.param("cluster", marks=pytest.mark.slow),
    ]
)
def conformance_runtime(request):
    """One Runtime per backend of the conformance matrix (torn down clean).

    ``process`` uses a 2-worker pool (``inline_threshold=0`` so the small
    conformance workloads exercise the real pool dispatch, not the
    adaptive in-process guard); ``process-shm`` is the same pool over the
    shared-memory transport; ``cluster`` serves two real TCP workers from
    daemon threads (the in-process idiom of ``tests/test_cluster.py``).
    """
    import threading

    from repro.runtime import Runtime

    backend = request.param
    if backend == "cluster":
        from repro.cluster.worker import ClusterWorker

        workers = [ClusterWorker() for _ in range(2)]
        for worker in workers:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        runtime = Runtime(
            "cluster",
            n_chains=CONFORMANCE_CHAINS,
            addresses=[worker.address for worker in workers],
        )
        try:
            yield runtime
        finally:
            runtime.shutdown()
            for worker in workers:
                worker.close()
    elif backend in ("process", "process-shm"):
        with Runtime(
            "process",
            n_chains=CONFORMANCE_CHAINS,
            n_workers=2,
            transport="shm" if backend == "process-shm" else None,
            inline_threshold=0,
        ) as runtime:
            yield runtime
    else:
        yield Runtime(backend, n_chains=CONFORMANCE_CHAINS)
