"""Exact pseudo-likelihood objective and gradient.

The pseudo-likelihood of a dataset ``{sigma^(i)}`` under parameters
``theta`` is the mean over samples and nodes of the exact local conditional
log-probability

.. math::

    \\mathrm{PL}(\\theta) = \\frac{1}{m} \\sum_i \\sum_v
        \\log p_\\theta(\\sigma^{(i)}_v \\mid \\sigma^{(i)}_{-v})
        \\; - \\; \\frac{\\ell_2}{2} \\lVert\\theta\\rVert^2,

a consistent, partition-function-free surrogate for the likelihood
(Besag 1975; pracmln's ``bpll.py`` is the reference design).  Both the
objective and its gradient are *exact* here:

* the conditionals come from the compiled engine's cached conditional
  tables (:attr:`~repro.engine.compiled.CompiledGibbs.batched_tables`),
  evaluated for all samples of one node at once through the same lookup
  the batched sampler uses (zeros in the tables encode hard constraints,
  so constrained families need no special casing);
* the gradient per (sample, node) is
  ``phi_v(sigma_v) - sum_a p(a | rest) phi_v(a)`` with ``phi_v`` the
  family's local features -- the theta-independent parts of ``phi`` cancel
  between the two terms, so using full feature vectors is exact.

``tests/test_learning.py`` checks the gradient against central finite
differences of the objective.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def pl_value_and_grad(
    family, codes: np.ndarray, theta: np.ndarray, l2: float = 0.0
) -> Tuple[float, np.ndarray]:
    """The pseudo-likelihood objective and its exact gradient at ``theta``.

    Parameters
    ----------
    family : ModelFamily
        The parameterised family being fitted.
    codes : numpy.ndarray
        The ``(samples, n)`` dataset in compiled coding.
    theta : numpy.ndarray
        Parameter vector (length ``family.n_parameters``).
    l2 : float
        L2 regularisation strength (``- l2/2 * ||theta||^2`` added to the
        objective, ``- l2 * theta`` to the gradient).

    Returns
    -------
    (float, numpy.ndarray)
        ``(objective, gradient)``; the gradient has length ``K``.

    Raises
    ------
    ValueError
        When a data configuration is infeasible under the family (an
        observed value has zero conditional weight).
    """
    theta = np.asarray(theta, dtype=float)
    codes = np.asarray(codes, dtype=np.int64)
    m, n = codes.shape
    if m == 0:
        raise ValueError("pseudo-likelihood needs at least one sample")
    distribution = family.distribution_at(theta)
    compiled = distribution.compiled_engine()
    if n != len(compiled.nodes):
        raise ValueError(
            f"dataset has {n} columns but the family has {len(compiled.nodes)} nodes"
        )
    tables = compiled.batched_tables
    rows = np.arange(m)
    value = 0.0
    grad = np.zeros(family.n_parameters)
    for v in range(n):
        weights = tables.weights(codes, rows, np.full(m, v, dtype=np.int64))
        totals = weights.sum(axis=1)
        observed = weights[rows, codes[:, v]]
        if not np.all(observed > 0.0):
            bad = int(np.flatnonzero(observed <= 0.0)[0])
            raise ValueError(
                f"sample {bad} is infeasible at node {compiled.nodes[v]!r}: "
                "its observed value has zero conditional weight under the family"
            )
        probabilities = weights / totals[:, None]
        value += float(np.log(observed / totals).sum())
        phi = family.local_features(codes, v)  # (m, q, K)
        observed_phi = phi[rows, codes[:, v], :]
        expected_phi = (probabilities[:, :, None] * phi).sum(axis=1)
        grad += (observed_phi - expected_phi).sum(axis=0)
    value /= m
    grad /= m
    if l2:
        value -= 0.5 * l2 * float(theta @ theta)
        grad -= l2 * theta
    return value, grad
