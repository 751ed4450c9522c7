"""Chain kernels: one step-dynamics definition, four execution backends.

The paper's dynamics -- single-site Glauber, Luby-style parallel rounds,
JVV-style rejection resampling, the sequential scan -- are all *step
kernels over a code matrix*: given the current state of one (or many)
chains as integer alphabet codes, advance every chain by one unit of the
dynamics.  This module defines the :class:`ChainKernel` contract that
factors the step definition out of the execution strategy:

* ``serial_run`` -- the reference implementation: advance ONE chain for
  ``count`` units and return its final configuration.  This is the
  bit-pattern the other paths must reproduce.
* ``batched_advance`` -- the vectorised implementation: advance every
  chain of a :class:`~repro.runtime.chains.ChainBatch` (a ``(chains, n)``
  code matrix) in place, bit-identical per chain to ``serial_run``.
* the **RNG-spawn contract** -- chain ``c`` of any multi-chain execution
  uses the ``c``-th ``SeedSequence`` spawned from the root seed
  (:func:`~repro.runtime.chains.chain_seed_sequences`), and consumes its
  generator with exactly the draw pattern of the serial chain (chunked
  ``random`` calls, prefix-consistent buffering).

Concrete kernels are *thin definitions* in the sampler modules --
:class:`~repro.sampling.glauber.GlauberKernel`,
:class:`~repro.sampling.glauber.LubyGlauberKernel`,
:class:`~repro.sampling.jvv.JVVKernel`,
:class:`~repro.sampling.sequential.SequentialKernel` -- registered here by
name.  Every execution backend
(``serial``/``batched``/``process``/``cluster``) reaches them through one
path, :meth:`repro.runtime.executor.Runtime.run_chains`, whose distributed
task body lives in the :data:`repro.runtime.shards.TASK_REGISTRY`; adding
a new dynamics therefore means writing one kernel class, not four
backends of plumbing.

:class:`ScanKernel` implements the shared machinery of the deterministic
scan dynamics (sequential heat-bath scan, optionally gated by a JVV-style
acceptance test), so a new scan-shaped kernel is a ~50-line subclass.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro import obs
from repro.gibbs.instance import SamplingInstance

Node = Hashable
Value = Hashable

#: Chunk size for pre-drawn random numbers in the chain loops (bounds
#: memory for very long chains while amortising the per-call RNG
#: overhead).  Every kernel -- serial and batched -- draws its uniforms in
#: chunks of this size, which is what makes the per-chain streams
#: reproducible across execution strategies.
RNG_CHUNK = 8192


def sample_code(weights, point: float) -> int:
    """The alphabet code whose cumulative weight first covers ``point``."""
    cumulative = 0.0
    for code, weight in enumerate(weights):
        cumulative += weight
        if point <= cumulative:
            return code
    return len(weights) - 1


def scan_waves(scopes: List[List[int]], variables: List[int]) -> List[np.ndarray]:
    """Group a run of scan steps into dependency waves.

    ``variables[s]`` is the node step ``s`` resamples and ``scopes[v]``
    lists ``v`` and its Markov blanket.  The greedy level rule puts step
    ``s`` at ``1 + max(level of earlier steps whose node is in
    scopes[variables[s]])``; a node's steps get increasing levels, so the
    latest one per node is all the rule needs.  Returns the step indices of
    each level in order: a wave's nodes are pairwise distinct and outside
    each other's blankets, and every step it depends on sits in an earlier
    wave.
    """
    last = [0] * len(scopes)
    levels = []
    for variable in variables:
        level = max(map(last.__getitem__, scopes[variable])) + 1
        last[variable] = level
        levels.append(level)
    levels = np.array(levels)
    order = np.argsort(levels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(levels[order])) + 1)


def stuck_node_error(compiled, variable: int) -> ValueError:
    """The shared 'no feasible value' failure of every single-site kernel."""
    node = compiled.nodes[int(variable)]
    return ValueError(
        f"node {node!r} has no feasible value given its neighbourhood; "
        "the single-site dynamics is not ergodic here"
    )


# ----------------------------------------------------------------------
# the kernel contract
# ----------------------------------------------------------------------
class ChainKernel(abc.ABC):
    """One step dynamics, executable serially or over a batched code matrix.

    Subclasses set :attr:`name` (the registry key) and :attr:`unit` (what
    ``count`` measures: ``"steps"``, ``"rounds"``, ...), and implement the
    two execution strategies.  The contract binding them: for every chain
    seed, ``batched_advance`` on a batch seeded with ``seeds`` leaves chain
    ``c`` in **bit-identical** state to ``serial_run(..., seed=seeds[c])``
    for the same ``count`` (matched against a single call; splitting one
    run across several calls moves the RNG chunk boundaries).
    """

    #: Registry key; also the ``kernel=`` string accepted everywhere.
    name: str = ""
    #: Human-readable unit of ``count`` (for docs and error messages).
    unit: str = "steps"

    @abc.abstractmethod
    def serial_run(
        self,
        instance: SamplingInstance,
        count: int,
        seed=0,
        initial: Optional[Dict[Node, Value]] = None,
    ) -> Dict[Node, Value]:
        """Advance one chain by ``count`` units; return its final configuration."""

    @abc.abstractmethod
    def batched_advance(self, batch, count: int, statistic=None):
        """Advance every chain of ``batch`` by ``count`` units, in place.

        Parameters
        ----------
        batch : repro.runtime.chains.ChainBatch
            The ``(chains, n)`` code-matrix state (codes, per-chain
            generators, gather tables, kernel scratch space).
        count : int
            Units of the dynamics per chain.
        statistic : callable, optional
            Applied to the code matrix after every unit; when given, the
            per-chain traces are returned as a ``(chains, count)`` array.

        Returns
        -------
        None or numpy.ndarray
            ``None`` without ``statistic``, else the trace array.
        """

    def fuses(self, packed) -> bool:
        """Whether :meth:`packed_advance` takes the fused step on ``packed``.

        False by default: only kernels that override :meth:`packed_advance`
        with a fused step, and only on a pack that is
        :meth:`~repro.runtime.chains.PackedBatch.fusable`, fuse.
        """
        return False

    def packed_advance(self, packed, count: int) -> None:
        """Advance every group of a :class:`~repro.runtime.chains.PackedBatch`.

        The default advances each group's :class:`~repro.runtime.chains.ChainBatch`
        independently -- solo execution by definition, so bit-identity is
        free.  Kernels with a mask-aware vectorised step (Glauber) override
        this to advance all groups' chains through one padded
        ``(total_chains, n_max)`` code matrix, replicating each chain's
        exact solo draw pattern; the override must fall back to this
        groupwise loop whenever :meth:`fuses` is false.
        """
        for group in packed.groups:
            self.batched_advance(group, count)

    def describe(self) -> str:
        """One-line description used by docs and smoke checks."""
        return f"{self.name} ({self.unit})"


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, ChainKernel] = {}


def register_kernel(kernel: ChainKernel) -> ChainKernel:
    """Register a kernel instance under its :attr:`~ChainKernel.name`.

    Returns the kernel so modules can write
    ``KERNEL = register_kernel(MyKernel())``.  Re-registering a name
    replaces the previous kernel (latest definition wins), which keeps
    module reloads idempotent.
    """
    if not kernel.name:
        raise ValueError("a chain kernel needs a non-empty name")
    _REGISTRY[kernel.name] = kernel
    return kernel


def _ensure_builtin_kernels() -> None:
    """Import the sampler modules that define the built-in kernels.

    Registration happens at module import; resolving by name must not
    depend on whether the caller happened to import the defining module
    first (a cluster worker, for example, imports nothing but the task
    body).
    """
    import repro.sampling.glauber  # noqa: F401  (registers glauber, luby-glauber)
    import repro.sampling.jvv  # noqa: F401  (registers jvv)
    import repro.sampling.sequential  # noqa: F401  (registers sequential)


def registered_kernels() -> Dict[str, ChainKernel]:
    """All registered kernels by name (built-ins imported on demand)."""
    _ensure_builtin_kernels()
    return dict(_REGISTRY)


def get_kernel(name: str) -> ChainKernel:
    """Look a kernel up by name, importing the built-in definitions first."""
    _ensure_builtin_kernels()
    kernel = _REGISTRY.get(name)
    if kernel is None:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ValueError(f"unknown chain kernel {name!r}; registered: {known}")
    return kernel


def resolve_kernel(kernel) -> ChainKernel:
    """Normalise a ``kernel=`` argument: a name or a :class:`ChainKernel`."""
    if isinstance(kernel, ChainKernel):
        return kernel
    if isinstance(kernel, str):
        return get_kernel(kernel)
    raise ValueError(f"expected a kernel name or a ChainKernel, got {kernel!r}")


# ----------------------------------------------------------------------
# shared machinery for deterministic-scan kernels
# ----------------------------------------------------------------------
class ScanKernel(ChainKernel):
    """Deterministic-scan heat-bath dynamics, optionally rejection-gated.

    One unit of the dynamics resamples the next free node of the
    deterministic scan order (``instance.free_nodes``, wrapping around)
    from its exact local conditional given the full current state.  A
    *gated* subclass additionally draws one acceptance uniform per step
    and compares it against :meth:`acceptance_probability` -- the JVV-style
    local rejection with per-chain acceptance masks; rejections raise the
    chain's failure count but the proposal is applied either way, exactly
    like pass 3 of :class:`~repro.sampling.jvv.LocalJVVSampler` (the
    sequence ``sigma_0, ..., sigma_n`` advances regardless; the flags
    decide success).

    The RNG contract per chunk of ``k`` steps: ``random(k)`` proposal
    points, then -- gated kernels only -- ``random(k)`` acceptance points.
    """

    #: Whether each step draws an acceptance uniform against
    #: :meth:`acceptance_probability`.
    gated = False

    def acceptance_probability(self, instance: SamplingInstance) -> float:
        """Per-step acceptance threshold of a gated kernel (1.0 = never reject)."""
        return 1.0

    # -- serial ---------------------------------------------------------
    def serial_run(
        self,
        instance: SamplingInstance,
        count: int,
        seed=0,
        initial: Optional[Dict[Node, Value]] = None,
    ) -> Dict[Node, Value]:
        configuration, _ = self.serial_scan(instance, count, seed=seed, initial=initial)
        return configuration

    def serial_scan(
        self,
        instance: SamplingInstance,
        count: int,
        seed=0,
        initial: Optional[Dict[Node, Value]] = None,
    ):
        """Run one chain and return ``(configuration, failure_count)``.

        ``failure_count`` is the number of rejected steps (always 0 for an
        ungated kernel).
        """
        from repro.sampling.glauber import (
            _compiled_state,
            _decode_state,
            greedy_feasible_configuration,
        )

        if count < 0:
            raise ValueError(f"{self.unit} must be non-negative")
        rng = np.random.default_rng(seed)
        configuration = (
            dict(initial)
            if initial is not None
            else greedy_feasible_configuration(instance)
        )
        free_nodes = instance.free_nodes
        if not free_nodes or count == 0:
            return configuration, 0
        acceptance = self.acceptance_probability(instance) if self.gated else None
        failures = 0
        compiled, conditionals, codes = _compiled_state(instance, configuration)
        tables = conditionals.tables
        free_index = [compiled.node_index[node] for node in free_nodes]
        q = compiled.q
        position = 0
        remaining = count
        while remaining > 0:
            chunk = min(remaining, RNG_CHUNK)
            remaining -= chunk
            points = rng.random(chunk)
            gates = rng.random(chunk) if self.gated else None
            for step in range(chunk):
                variable = free_index[position]
                position += 1
                if position == len(free_index):
                    position = 0
                # Inlined CompiledConditionals.weights_by_codes, exactly the
                # Glauber hot path (same gather, same product order).
                weights = None
                for flat, stride0, others, strides in tables[variable]:
                    offset = 0
                    for other, stride in zip(others, strides):
                        offset += codes[other] * stride
                    gathered = flat[offset::stride0]
                    if weights is None:
                        weights = gathered
                    else:
                        weights = [w * g for w, g in zip(weights, gathered)]
                if weights is None:
                    # A factorless free node resamples uniformly.
                    codes[variable] = min(int(points[step] * q), q - 1)
                else:
                    total = sum(weights)
                    if total <= 0.0:
                        raise stuck_node_error(compiled, variable)
                    codes[variable] = sample_code(weights, points[step] * total)
                if self.gated and not gates[step] < acceptance:
                    failures += 1
        return _decode_state(compiled, codes), failures

    # -- batched --------------------------------------------------------
    def batched_advance(self, batch, count: int, statistic=None):
        """Advance every chain of ``batch`` by ``count`` scan steps.

        Each RNG chunk's steps run in dependency waves
        (:func:`scan_waves`): steps whose nodes neither coincide nor lie in
        each other's Markov blanket read disjoint state, so one
        :meth:`~repro.runtime.chains._BatchedTables.sample_columns` call
        resamples a whole wave in every chain, bit-identical to stepping
        one node at a time.  Each step is its own wave when ``statistic``
        is given (the trace samples after every step) or when the tables
        ``may_stick`` (the stuck-node error then names the same node, with
        the same partial state, as a step-by-step scan).
        """
        if count < 0:
            raise ValueError(f"{self.unit} must be non-negative")
        state = batch.scratch(self.name)
        if "position" not in state:
            state["position"] = 0
            state["failures"] = np.zeros(batch.n_chains, dtype=np.int64)
        free_index = batch.free_index
        trace: Optional[List[np.ndarray]] = [] if statistic is not None else None
        if len(free_index) == 0 or count == 0:
            if trace is not None:
                for _ in range(count):
                    trace.append(np.asarray(statistic(batch.codes), dtype=float))
                return batch.stack_trace(trace)
            return None
        acceptance = self.acceptance_probability(batch.instance) if self.gated else None
        chains = batch.n_chains
        codes = batch.codes
        tables = batch.tables
        q = tables.q
        factorless = tables.factorless
        failures = state["failures"]
        position = state["position"]
        if statistic is not None:
            per_step = "statistic"
        elif tables.may_stick:
            per_step = "may_stick"
        else:
            per_step = None
        remaining = count
        while remaining > 0:
            chunk = min(remaining, RNG_CHUNK)
            remaining -= chunk
            points = np.empty((chains, chunk))
            gates = np.empty((chains, chunk)) if self.gated else None
            for chain, rng in enumerate(batch.rngs):
                points[chain] = rng.random(chunk)
                if self.gated:
                    gates[chain] = rng.random(chunk)
            variables = free_index[(position + np.arange(chunk)) % len(free_index)]
            position = (position + chunk) % len(free_index)
            if per_step:
                waves = [slice(step, step + 1) for step in range(chunk)]
            else:
                waves = scan_waves(tables.scan_scopes(), variables.tolist())
            obs.instant(
                "runtime.scan.schedule",
                kernel=self.name,
                steps=chunk,
                waves=len(waves),
                per_step=per_step,
            )
            for steps in waves:
                wave = variables[steps]
                new_codes = tables.sample_columns(
                    codes, wave, points[:, steps], batch.compiled
                )
                if batch.any_factorless:
                    # Serial fast path: a factorless node resamples
                    # uniformly via truncation.
                    uniform = factorless[wave]
                    new_codes[:, uniform] = np.minimum(
                        (points[:, steps][:, uniform] * q).astype(np.int64), q - 1
                    )
                codes[:, wave] = new_codes
                if trace is not None:
                    trace.append(np.asarray(statistic(codes), dtype=float))
            if self.gated:
                # The per-chain acceptance masks: rejected steps raise the
                # chain's failure count; the proposal applies either way.
                failures += np.count_nonzero(~(gates < acceptance), axis=1)
        state["position"] = position
        if trace is not None:
            return batch.stack_trace(trace)
        return None

    def failure_counts(self, batch) -> np.ndarray:
        """Per-chain rejected-step counts accumulated by ``batched_advance``."""
        state = batch.scratch(self.name)
        failures = state.get("failures")
        if failures is None:
            return np.zeros(batch.n_chains, dtype=np.int64)
        return failures.copy()
