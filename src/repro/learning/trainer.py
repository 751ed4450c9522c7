"""The ``Trainer`` facade: fit a model family to observed configurations.

One entry point covers both estimators::

    from repro.learning import IsingFamily, fit

    result = fit(IsingFamily(graph), samples, method="pl")
    result.theta          # fitted parameter vector
    result.distribution   # a fresh GibbsDistribution at the fitted weights
    result.log            # per-iteration training log

``method="pl"`` maximises the exact pseudo-likelihood with the
deterministic optimiser layer (:mod:`repro.learning.optimize`);
``method="cd"`` follows contrastive-divergence gradient estimates whose
negative phase rides :meth:`repro.runtime.executor.Runtime.run_chains`
(:mod:`repro.learning.cd`) -- pass ``runtime="batched"`` / ``"process"`` /
``"cluster"`` to parallelise it, with bit-identical fitted weights on every
backend for the same seed.  ``persistent=True`` keeps the negative chains
alive across iterations as one resumable
:class:`~repro.runtime.chains.ChainBatch` (serial/batched backends).

Observability: when the process-wide obs handle is enabled (``obs=True``
here, ``Runtime(obs=True)``, or :func:`repro.obs.enable`), each fit emits a
``learning.fit`` span, per-iteration ``learning.iteration`` spans, and
``learning.*`` metrics; tracing never touches the estimators' RNG, so
results are bit-identical with obs on or off.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.learning.cd import cd_gradient, persistent_state
from repro.learning.families import ModelFamily
from repro.learning.optimize import OptimizeResult, follow_gradient, maximize
from repro.learning.pseudolikelihood import pl_value_and_grad
from repro.learning.suffstats import encode_configurations
from repro.runtime import resolve_runtime


class FitResult:
    """A fitted model: parameters, distribution, and the training log."""

    __slots__ = (
        "theta",
        "distribution",
        "family",
        "method",
        "log",
        "converged",
        "iterations",
        "value",
    )

    def __init__(
        self,
        theta: np.ndarray,
        distribution,
        family: ModelFamily,
        method: str,
        log: List[dict],
        converged: bool,
        iterations: int,
        value: Optional[float],
    ) -> None:
        self.theta = theta
        #: A fresh :class:`~repro.gibbs.distribution.GibbsDistribution` at
        #: the fitted weights (independent of the family's mutable template).
        self.distribution = distribution
        self.family = family
        self.method = method
        self.log = log
        self.converged = converged
        self.iterations = iterations
        #: Final objective value (pseudo-likelihood fits only).
        self.value = value

    def parameters(self) -> dict:
        """``{parameter name: fitted value}``."""
        return {
            name: float(value)
            for name, value in zip(self.family.parameter_names, self.theta)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:.4f}" for k, v in self.parameters().items())
        return (
            f"FitResult(method={self.method!r}, {inner}, "
            f"iterations={self.iterations}, converged={self.converged})"
        )


class Trainer:
    """A configured estimator for one model family.

    Parameters
    ----------
    family : ModelFamily
        The parameterised family to fit.
    method : str
        ``"pl"`` (exact pseudo-likelihood, default) or ``"cd"``
        (contrastive divergence).
    runtime : None, str or Runtime
        Negative-phase execution backend (CD only); every backend yields
        bit-identical fitted weights for the same seed.
    kernel : str or ChainKernel
        Negative-phase dynamics (CD only).
    l2 : float
        L2 regularisation strength.
    optimizer : str
        PL optimiser: ``"ascent"`` (deterministic, default), ``"lbfgs"``
        (requires scipy), or ``"auto"``.
    max_iter, step, tol, decay
        Optimiser schedule; ``decay`` applies to the CD step schedule only.
    k : int
        CD-k sweep count per negative phase.  Non-persistent chains restart
        from the deterministic greedy state every iteration, so ``k`` is
        also the negative phase's burn-in -- hence the default of 10 sweeps
        rather than the classical CD-1 (which assumes data-initialised
        chains).
    n_negative : int
        Negative chains per CD iteration.
    persistent : bool
        Persistent CD: keep the negative chains alive across iterations
        (serial/batched runtimes only).
    seed : int
        Root seed of the CD negative phases.
    obs : bool or repro.obs.Observability, optional
        As on :class:`~repro.runtime.executor.Runtime`: ``True`` enables
        the process-wide obs handle for the duration of each ``fit`` call.
    """

    def __init__(
        self,
        family: ModelFamily,
        method: str = "pl",
        runtime=None,
        kernel="glauber",
        l2: float = 0.0,
        optimizer: str = "ascent",
        max_iter: Optional[int] = None,
        step: Optional[float] = None,
        tol: float = 1e-5,
        decay: float = 1.0,
        k: int = 10,
        n_negative: int = 64,
        persistent: bool = False,
        seed: int = 0,
        obs: Union[None, bool, object] = None,
    ) -> None:
        if method not in ("pl", "cd"):
            raise ValueError(f'method must be "pl" or "cd", got {method!r}')
        self.family = family
        self.method = method
        self.runtime = runtime
        self.kernel = kernel
        self.l2 = float(l2)
        self.optimizer = optimizer
        self.max_iter = max_iter if max_iter is not None else (200 if method == "pl" else 80)
        self.step = step if step is not None else (0.5 if method == "pl" else 0.01)
        self.tol = float(tol)
        self.decay = float(decay)
        self.k = int(k)
        self.n_negative = int(n_negative)
        self.persistent = bool(persistent)
        self.seed = int(seed)
        self.obs = obs

    # ------------------------------------------------------------------
    def fit(
        self,
        data: Union[np.ndarray, Sequence[dict]],
        theta0: Optional[np.ndarray] = None,
    ) -> FitResult:
        """Fit the family to the data; returns a :class:`FitResult`.

        ``data`` is either a ``(samples, n)`` code matrix in compiled
        coding or a sequence of configuration dicts (the samplers' output
        format), encoded via the family template's compiled engine.
        """
        from repro import obs as obs_api

        owned = False
        if self.obs is True and obs_api.active() is None:
            obs_api.enable()
            owned = True
        elif self.obs is not None and self.obs not in (True, False):
            obs_api.install(self.obs)
        try:
            return self._fit(data, theta0)
        finally:
            if owned:
                obs_api.disable()

    def _fit(self, data, theta0) -> FitResult:
        family = self.family
        codes = self._encode(data)
        start = (
            np.zeros(family.n_parameters)
            if theta0 is None
            else np.asarray(theta0, dtype=float).copy()
        )
        if len(start) != family.n_parameters:
            raise ValueError(
                f"theta0 has {len(start)} entries; the family has "
                f"{family.n_parameters} parameters {family.parameter_names}"
            )
        with obs.span(
            "learning.fit",
            family=type(family).__name__,
            method=self.method,
            samples=int(codes.shape[0]),
            nodes=int(codes.shape[1]),
        ):
            if self.method == "pl":
                outcome = self._fit_pl(codes, start)
            else:
                outcome = self._fit_cd(codes, start)
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter("learning.fits").inc()
            handle.metrics.gauge("learning.last_iterations").set(outcome.iterations)
        theta = outcome.theta
        return FitResult(
            theta,
            family.build(theta),
            family,
            self.method,
            outcome.trajectory,
            outcome.converged,
            outcome.iterations,
            outcome.value,
        )

    def _fit_pl(self, codes: np.ndarray, theta0: np.ndarray) -> OptimizeResult:
        def value_and_grad(theta):
            with obs.span("learning.iteration", method="pl"):
                value, grad = pl_value_and_grad(
                    self.family, codes, theta, l2=self.l2
                )
            handle = obs.active()
            if handle is not None:
                handle.metrics.counter("learning.pl.evaluations").inc()
                handle.metrics.gauge("learning.pl.objective").set(value)
            return value, grad

        return maximize(
            value_and_grad,
            theta0,
            method=self.optimizer,
            max_iter=self.max_iter,
            tol=self.tol,
            **({"step": self.step} if self.optimizer == "ascent" else {}),
        )

    def _fit_cd(self, codes: np.ndarray, theta0: np.ndarray) -> OptimizeResult:
        runtime = resolve_runtime(self.runtime)
        state = None
        if self.persistent:
            state = persistent_state(
                self.family,
                theta0,
                codes,
                kernel=self.kernel,
                n_negative=self.n_negative,
                seed=self.seed,
            )

        def grad_fn(theta, iteration):
            with obs.span("learning.iteration", method="cd", iteration=iteration):
                grad, _ = cd_gradient(
                    self.family,
                    codes,
                    theta,
                    kernel=self.kernel,
                    runtime=runtime,
                    k=self.k,
                    n_negative=self.n_negative,
                    seed=self.seed,
                    iteration=iteration,
                    l2=self.l2,
                    state=state,
                )
            handle = obs.active()
            if handle is not None:
                handle.metrics.counter("learning.cd.iterations").inc()
            return grad

        return follow_gradient(
            grad_fn,
            theta0,
            step=self.step,
            decay=self.decay,
            max_iter=self.max_iter,
            tol=self.tol if self.tol else 0.0,
        )

    def _encode(self, data) -> np.ndarray:
        if isinstance(data, np.ndarray):
            codes = np.asarray(data, dtype=np.int64)
            if codes.ndim != 2:
                raise ValueError(
                    f"a code-matrix dataset must be 2-D, got shape {codes.shape}"
                )
            return codes
        compiled = self.family.template().compiled_engine()
        return encode_configurations(compiled, list(data))


def fit(
    family: ModelFamily,
    data: Union[np.ndarray, Sequence[dict]],
    method: str = "pl",
    theta0: Optional[np.ndarray] = None,
    **options,
) -> FitResult:
    """Fit a model family to data (the one-call form of :class:`Trainer`).

    See :class:`Trainer` for the keyword options (``runtime=``, ``kernel=``,
    ``l2=``, ``k=``, ``persistent=``, ``seed=``, ``obs=``, ...).
    """
    return Trainer(family, method=method, **options).fit(data, theta0=theta0)
