"""Weight learning: estimate Gibbs factor weights from observed configurations.

The inverse problem to everything else in this repository: given samples
*from* a Gibbs distribution, recover the parameters that generated them.
Two estimators, one facade:

``families``
    :class:`ModelFamily` -- a ``theta``-parameterised family on a fixed
    graph with exact sufficient statistics (``IsingFamily``,
    ``HardcoreFamily``); the engine's weight-update path
    (:meth:`~repro.gibbs.distribution.GibbsDistribution.update_factors` /
    :meth:`~repro.engine.compiled.CompiledGibbs.reweighted`, whose
    elimination plans are shared by structure across every engine) makes
    re-evaluating the family at a new ``theta`` cheap.
``suffstats``
    Vectorised statistics extraction from ``(samples, n)`` code matrices in
    the engine's integer coding.
``pseudolikelihood``
    The exact per-node conditional PL objective + gradient (via the same
    batched conditional gathers the sampler uses), with L2 regularisation.
``cd``
    Contrastive-divergence / persistent-CD gradient estimation whose
    negative phase is literally ``Runtime.run_chains`` -- batched, process-
    and cluster-parallel through the ``runtime=`` knob, bit-identical
    fitted weights on every backend.
``optimize``
    Deterministic optimisers: adaptive-step gradient ascent (default),
    gated scipy L-BFGS, and the fixed-schedule stochastic path for CD.
``trainer``
    The :func:`fit` / :class:`Trainer` facade returning a
    :class:`FitResult` (fitted ``GibbsDistribution`` + training log), with
    obs spans/metrics per iteration; the ``repro-fit`` console script
    (``python -m repro.learning``) drives it from the command line.
"""

from repro.learning.cd import (
    cd_gradient,
    negative_phase_seeds,
    persistent_state,
    sweep_steps,
)
from repro.learning.families import (
    FAMILIES,
    HardcoreFamily,
    IsingFamily,
    ModelFamily,
    family_by_name,
)
from repro.learning.optimize import (
    OptimizeResult,
    follow_gradient,
    maximize,
    maximize_ascent,
    maximize_lbfgs,
    scipy_available,
)
from repro.learning.pseudolikelihood import pl_value_and_grad
from repro.learning.suffstats import (
    decode_codes,
    empirical_node_marginals,
    encode_configurations,
    factor_value_counts,
    feature_counts,
    mean_feature_counts,
)
from repro.learning.trainer import FitResult, Trainer, fit

__all__ = [
    "ModelFamily",
    "IsingFamily",
    "HardcoreFamily",
    "FAMILIES",
    "family_by_name",
    "encode_configurations",
    "decode_codes",
    "feature_counts",
    "mean_feature_counts",
    "empirical_node_marginals",
    "factor_value_counts",
    "pl_value_and_grad",
    "cd_gradient",
    "persistent_state",
    "negative_phase_seeds",
    "sweep_steps",
    "OptimizeResult",
    "maximize",
    "maximize_ascent",
    "maximize_lbfgs",
    "follow_gradient",
    "scipy_available",
    "Trainer",
    "FitResult",
    "fit",
]
