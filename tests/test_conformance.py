"""The kernel x backend conformance matrix (one harness, every combination).

Consolidates the bit-identity assertions that used to be scattered across
``test_runtime.py`` (serial/batched/process sweeps), ``test_cluster.py``
(cluster sweeps) and ``test_sampling_*.py`` (per-kernel batched==serial
checks) into one parametrized matrix:

    every registered ChainKernel
      x  serial / batched / process / process-shm (slow) / cluster (slow)
      x  a binary-alphabet instance and a 3-colour instance

with the kernel's own ``serial_run`` per spawned seed as the reference,
plus a PackedBatch row per kernel: many instances packed into one padded
code matrix (fused and mixed-alphabet-fallback shapes alike) stay
bit-identical per group to their solo runs.  The spec-bound task kinds
get rows on every backend too: ``Runtime.ball_marginals``
(``ball_marginals`` tasks) and
``jvv_chain_stats`` states and failure counts (``chain_block`` with
``stats``), each against the serial backend.
A new kernel registered via ``register_kernel`` -- or a new backend added
to the ``conformance_runtime`` fixture in ``conftest.py`` -- gets the
whole matrix with zero new test code.  Kernel-specific *statistics*
(e.g. JVV failure counts) stay next to their kernels in
``test_sampling_*.py``; this file owns the states.
"""

from __future__ import annotations

import pytest

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.models import coloring_model, hardcore_model
from repro.inference.ssm_inference import padded_ball_marginal
from repro.sampling import registered_kernels
from repro.sampling.jvv import jvv_chain_stats

KERNELS = sorted(registered_kernels())

#: Three shapes: a pinned binary-alphabet model, a pinned 3-colour model
#: (alphabet size > 2 exercises the code-matrix lookups differently), and a
#: 3-colouring of an 8-leaf star, whose hub blanket (3**8 rows) is over
#: BLANKET_MAX_ROWS -- so the whole instance runs the per-step gather.
CONFORMANCE_INSTANCES = [
    (
        "hardcore-cycle",
        SamplingInstance(hardcore_model(cycle_graph(9), fugacity=1.3), {0: 1}),
    ),
    (
        "coloring-path",
        SamplingInstance(coloring_model(path_graph(6), num_colors=3), {0: 2}),
    ),
    (
        "coloring-star-over-cap",
        SamplingInstance(coloring_model(star_graph(8), num_colors=3), {1: 0}),
    ),
]

#: Units of dynamics per chain: enough steps that every free node moves.
CONFORMANCE_COUNT = 14
CONFORMANCE_SEED = 3


def test_the_registry_holds_the_expected_builtins():
    assert {"glauber", "luby-glauber", "jvv", "sequential"} <= set(KERNELS)


def test_the_instances_cover_both_table_forms():
    """The matrix runs the blanket lookup and the per-step gather alike."""
    blanket = {
        label: instance.distribution.compiled_engine().batched_tables.rows is not None
        for label, instance in CONFORMANCE_INSTANCES
    }
    assert blanket == {
        "hardcore-cycle": True,
        "coloring-path": True,
        "coloring-star-over-cap": False,
    }


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_every_kernel_is_bit_identical_on_every_backend(
    conformance_runtime, serial_reference, kernel_name
):
    """run_chains on any backend == the serial reference, per chain."""
    for label, instance in CONFORMANCE_INSTANCES:
        reference = serial_reference(
            kernel_name, instance, CONFORMANCE_COUNT, seed=CONFORMANCE_SEED
        )
        observed = conformance_runtime.run_chains(
            kernel_name, instance, CONFORMANCE_COUNT, seed=CONFORMANCE_SEED
        )
        assert observed == reference, (
            f"kernel {kernel_name!r} diverges from the serial reference on "
            f"the {conformance_runtime.backend!r} backend ({label})"
        )


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_packed_multi_instance_matches_solo(kernel_name, conformance_chains):
    """The PackedBatch row: many instances in one padded code matrix,
    each group bit-identical per chain to its solo run.

    Three pack shapes: the mixed-alphabet pack (q=2 hardcore + q=3
    colourings) exercises the groupwise fallback of kernels whose fused
    step cannot span alphabets, a same-alphabet hardcore pair exercises
    the fused mask-aware step over merged blanket tables where the kernel
    defines one, and a same-alphabet pack with the over-cap star
    exercises the fused step over the merged per-step gather.
    """
    from repro.runtime import Runtime, chain_seed_sequences

    runtime = Runtime()
    packs = [
        ("mixed-alphabet", [instance for _, instance in CONFORMANCE_INSTANCES]),
        (
            "fused-same-alphabet",
            [
                CONFORMANCE_INSTANCES[0][1],
                SamplingInstance(hardcore_model(path_graph(7), fugacity=1.1)),
            ],
        ),
        (
            "fused-over-cap",
            [CONFORMANCE_INSTANCES[1][1], CONFORMANCE_INSTANCES[2][1]],
        ),
    ]
    for label, instances in packs:
        seeds = [
            chain_seed_sequences(CONFORMANCE_SEED + group, conformance_chains)
            for group in range(len(instances))
        ]
        packed = runtime.run_packed(
            kernel_name, list(zip(instances, seeds)), CONFORMANCE_COUNT
        )
        for group, instance in enumerate(instances):
            solo = runtime.run_chains(
                kernel_name, instance, CONFORMANCE_COUNT, seeds=seeds[group]
            )
            assert packed[group] == solo, (
                f"kernel {kernel_name!r} group {group} diverges from its "
                f"solo run inside the {label} pack"
            )


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_explicit_seed_lists_conform_too(
    conformance_runtime, conformance_chains, kernel_name
):
    """The seeds= path (the serving coalescer's transport) conforms as
    well: integer seeds, not just spawned SeedSequences."""
    _, instance = CONFORMANCE_INSTANCES[0]
    from repro.sampling import get_kernel

    kernel = get_kernel(kernel_name)
    seeds = list(range(10, 10 + conformance_chains))
    reference = [
        kernel.serial_run(instance, CONFORMANCE_COUNT, seed=seed) for seed in seeds
    ]
    observed = conformance_runtime.run_chains(
        kernel_name, instance, CONFORMANCE_COUNT, seeds=seeds
    )
    assert observed == reference, (
        f"kernel {kernel_name!r} diverges under explicit seeds on the "
        f"{conformance_runtime.backend!r} backend"
    )


#: Inner radius of the Theorem 5.1 rows.
BALL_RADIUS = 1


def _ball_instances():
    """Fresh instances per call: ball caches live on the distribution, so
    one backend's cached balls must not serve another backend's row."""
    return [
        (
            "hardcore-cycle",
            SamplingInstance(hardcore_model(cycle_graph(9), fugacity=1.3), {0: 1}),
        ),
        (
            "coloring-path",
            SamplingInstance(coloring_model(path_graph(6), num_colors=3), {0: 2}),
        ),
    ]


def _serial_ball_marginals():
    return {
        label: {
            node: padded_ball_marginal(instance, node, BALL_RADIUS)
            for node in instance.free_nodes
        }
        for label, instance in _ball_instances()
    }


def test_ball_marginals_conform(conformance_runtime):
    """The ``ball_marginals`` kind: Theorem 5.1 marginals == serial."""
    reference = _serial_ball_marginals()
    for label, instance in _ball_instances():
        observed = conformance_runtime.ball_marginals(
            instance, instance.free_nodes, BALL_RADIUS
        )
        assert observed == reference[label], (
            f"ball marginals diverge on the {conformance_runtime.backend!r} "
            f"backend ({label})"
        )


def test_jvv_chain_stats_conform(conformance_runtime, conformance_chains):
    """The ``chain_block`` kind with ``stats``: states and failure counts."""
    for label, instance in CONFORMANCE_INSTANCES:
        reference = jvv_chain_stats(
            instance,
            CONFORMANCE_COUNT,
            n_chains=conformance_chains,
            seed=CONFORMANCE_SEED,
        )
        observed = jvv_chain_stats(
            instance,
            CONFORMANCE_COUNT,
            seed=CONFORMANCE_SEED,
            runtime=conformance_runtime,
        )
        assert observed == reference, (
            f"jvv_chain_stats diverges on the {conformance_runtime.backend!r} "
            f"backend ({label})"
        )
