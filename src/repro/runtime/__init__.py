"""Parallel execution runtime: batched chains and sharded ball compilation.

This package owns *how* work executes, separate from *what* is computed
(which stays in :mod:`repro.engine` and the algorithm modules):

``chains``
    :class:`ChainBatch` -- many independent chains of one
    :class:`~repro.sampling.kernels.ChainKernel` (Glauber, LubyGlauber,
    JVV rejection, sequential scan, ...) as a ``(chains, n)`` integer code
    matrix, resampled per step with vectorised gathers into the
    precompiled factor tables.  Bit-identical per chain to the kernels'
    serial reference runs under per-chain ``SeedSequence`` streams.
``shards``
    :class:`InstanceSpec`, the :data:`~repro.runtime.shards.TASK_REGISTRY`
    of spec-bound task bodies (ball marginals, chain blocks -- executed
    identically by the forked workers, the cluster workers and the
    in-process path), and the one parent-side scheduler
    of the process and cluster backends: front ends that chunk the work,
    submit each chunk to the live transport they are given -- a cluster
    coordinator or :class:`~repro.runtime.shards.ForkedWorkers` (cluster
    workers forked on socket pairs), whose workers set the call's width
    (the spec pickled once per worker) -- and yield every chunk's results
    as it completes.  A ball chunk returns its marginals only; the
    compiled balls stay warm in the worker that built them.
``executor``
    The :class:`Runtime` facade (``serial`` / ``batched`` / ``process`` /
    ``cluster`` backends) threaded through the samplers, the SSM inference
    engines and the experiment entry points that run chains or ball
    streams (E4's rejection kernel, E5, E12; E13 per row) as a
    ``runtime=`` parameter defaulting to today's serial behaviour.  Chain
    workloads of every kernel run through the single
    :meth:`Runtime.run_chains` path; the streaming primitives are
    :meth:`Runtime.stream_ball_marginals` and
    :meth:`Runtime.stream_ball_marginal_tasks`.  The cluster backend's
    coordinator/worker machinery itself lives in :mod:`repro.cluster`.
"""

from repro.runtime.chains import (
    ChainBatch,
    ChainState,
    PackedBatch,
    chain_seed_sequences,
    make_chain_state,
)
from repro.runtime.executor import (
    BATCHED_BACKEND,
    CLUSTER_BACKEND,
    INLINE_CHAIN_UPDATES,
    PROCESS_BACKEND,
    SERIAL_BACKEND,
    SERIAL_RUNTIME,
    Runtime,
    resolve_runtime,
)
from repro.runtime.shards import (
    TASK_REGISTRY,
    InstanceSpec,
    register_task,
    run_chain_blocks,
    stream_ball_marginal_tasks,
    stream_padded_ball_marginals,
)

__all__ = [
    "ChainBatch",
    "ChainState",
    "PackedBatch",
    "make_chain_state",
    "chain_seed_sequences",
    "TASK_REGISTRY",
    "register_task",
    "run_chain_blocks",
    "Runtime",
    "resolve_runtime",
    "SERIAL_BACKEND",
    "BATCHED_BACKEND",
    "PROCESS_BACKEND",
    "CLUSTER_BACKEND",
    "SERIAL_RUNTIME",
    "INLINE_CHAIN_UPDATES",
    "InstanceSpec",
    "stream_ball_marginal_tasks",
    "stream_padded_ball_marginals",
]
