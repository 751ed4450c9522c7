"""Contrastive-divergence gradient estimation on top of ``Runtime.run_chains``.

The (regularised) log-likelihood gradient of an exponential family is

.. math::

    \\nabla_\\theta \\; = \\; \\mathbb{E}_{\\mathrm{data}}[\\phi]
        - \\mathbb{E}_{\\theta}[\\phi] - \\ell_2 \\theta .

Contrastive divergence (Hinton 2002; pracmln's ``cd.py``) replaces the
intractable model expectation with the empirical mean of *negative* samples
produced by a short MCMC run at the current ``theta``.  Here the negative
phase is literally :meth:`repro.runtime.executor.Runtime.run_chains`: CD-k
runs ``k`` sweeps of any registered chain kernel, so gradient estimation is
batched, process-sharded and cluster-distributed for free through the
``runtime=`` knob -- and because every backend consumes the same explicit
per-chain seeds (derived deterministically from ``(seed, iteration)``), the
fitted weights are **bit-identical across backends** for a fixed seed.

Persistent CD (Tieleman 2008) keeps the negative chains alive across
gradient steps instead of restarting them: the chains are one
:class:`~repro.runtime.chains.ChainBatch` (``run_chains(..., state=...)``),
rebound onto each step's re-weighted model.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gibbs.instance import SamplingInstance
from repro.learning.suffstats import encode_configurations
from repro.runtime import ChainBatch, chain_seed_sequences, resolve_runtime
from repro.sampling.kernels import resolve_kernel


def negative_phase_seeds(seed: int, iteration: int, n_negative: int):
    """The per-chain seeds of one CD iteration's negative phase.

    Derived from ``SeedSequence((seed, iteration))``, so every backend --
    serial, batched, process, cluster -- spawns the *same* per-chain
    streams and the estimator is a pure function of ``(seed, iteration)``.
    """
    return chain_seed_sequences(
        np.random.SeedSequence((int(seed), int(iteration))), n_negative
    )


def sweep_steps(instance: SamplingInstance, k: int) -> int:
    """``k`` sweeps of single-site dynamics, in kernel units (steps)."""
    return int(k) * max(1, len(instance.free_nodes))


def persistent_state(
    family,
    theta: np.ndarray,
    data_codes: np.ndarray,
    kernel="glauber",
    n_negative: int = 8,
    seed: int = 0,
) -> ChainBatch:
    """Fresh persistent-CD chains, seeded from the data.

    Chain ``c`` starts at data row ``c mod m`` (the standard PCD particle
    initialisation) with its RNG stream spawned from ``seed``; the batch is
    claimed by ``kernel``.  Advance it through ``run_chains(...,
    state=...)`` each iteration.
    """
    distribution = family.distribution_at(np.asarray(theta, dtype=float))
    instance = SamplingInstance(distribution, {})
    data_codes = np.asarray(data_codes, dtype=np.int64)
    rows = np.arange(n_negative) % len(data_codes)
    batch = ChainBatch(
        instance,
        seeds=chain_seed_sequences(seed, n_negative),
        initial_codes=data_codes[rows],
    )
    batch.claim_kind(resolve_kernel(kernel).name)
    return batch


def cd_gradient(
    family,
    data_codes: np.ndarray,
    theta: np.ndarray,
    kernel="glauber",
    runtime=None,
    k: int = 1,
    n_negative: int = 8,
    seed: int = 0,
    iteration: int = 0,
    l2: float = 0.0,
    state: Optional[ChainBatch] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One CD-k (or persistent-CD) gradient estimate at ``theta``.

    Parameters
    ----------
    family : ModelFamily
        The parameterised family being fitted.
    data_codes : numpy.ndarray
        The ``(samples, n)`` dataset in compiled coding.
    theta : numpy.ndarray
        Current parameter vector.
    kernel : str or ChainKernel
        The negative-phase dynamics (any registered kernel).
    runtime : None, str or Runtime
        Execution backend for the negative phase; ``None`` is serial.  All
        backends produce bit-identical gradients for the same seed.
    k : int
        Sweeps of the dynamics per negative phase (CD-k).
    n_negative : int
        Number of negative chains (ignored when resuming a ``state``).
    seed, iteration : int
        Together determine the negative phase's RNG streams (see
        :func:`negative_phase_seeds`).
    l2 : float
        L2 regularisation strength.
    state : ChainBatch, optional
        Persistent-CD particles to resume (serial/batched runtimes only);
        when given, the chains continue instead of restarting from scratch
        and ``seed`` / ``iteration`` / ``n_negative`` are ignored.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(gradient, negative_codes)`` -- the length-``K`` gradient estimate
        and the final negative-sample code matrix.
    """
    theta = np.asarray(theta, dtype=float)
    data_codes = np.asarray(data_codes, dtype=np.int64)
    distribution = family.distribution_at(theta)
    compiled = distribution.compiled_engine()
    instance = SamplingInstance(distribution, {})
    steps = sweep_steps(instance, k)
    resolved = resolve_runtime(runtime)
    if state is not None:
        negatives = resolved.run_chains(kernel, instance, steps, state=state)
    else:
        negatives = resolved.run_chains(
            kernel,
            instance,
            steps,
            seeds=negative_phase_seeds(seed, iteration, n_negative),
        )
    negative_codes = encode_configurations(compiled, negatives)
    gradient = family.mean_features(data_codes) - family.mean_features(negative_codes)
    if l2:
        gradient = gradient - l2 * theta
    return gradient, negative_codes
