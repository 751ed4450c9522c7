"""The distributed JVV sampler (Theorem 4.2 / Proposition 4.3).

``local-JVV`` is a three-pass SLOCAL algorithm that turns approximate
inference (with multiplicative error ``1/n^3``) into *exact* sampling for
local Gibbs distributions, via a local rejection-sampling step:

* **Pass 1 (ground state).**  Scanning the nodes in the adversarial order,
  each node pins itself to a value of positive estimated marginal given the
  pins placed so far; the result is a feasible configuration ``sigma_0``.
* **Pass 2 (proposal).**  Scanning again, each node samples its value from
  the estimated marginal conditioned on the previously sampled values; the
  result ``Y`` follows a distribution ``mu_hat`` within ``e^{±1/n^2}`` of the
  target (Claim 4.5).
* **Pass 3 (local rejection).**  A sequence of feasible configurations
  ``sigma_0, sigma_1, ..., sigma_n = Y`` is built, where ``sigma_i`` agrees
  with ``Y`` on the first ``i`` nodes and differs from ``sigma_{i-1}`` only
  inside the radius-``t`` ball of the ``i``-th node.  Node ``v_i`` computes

  ``q_{v_i} = [mu_hat(sigma_{i-1}) * w(sigma_i)] / [mu_hat(sigma_i) *
  w(sigma_{i-1})] * e^{-3/n^2}``

  from information within radius ``3 t + l`` (Claim 4.7) and *accepts* with
  probability ``q_{v_i}``, otherwise it raises its locally certifiable
  failure flag.  (The paper's text says "fails if ``F'_v = 1``" while its
  Lemma 4.8 computes the success probability as the product of the ``q``'s;
  we follow the mathematics: acceptance happens with probability ``q``.)

The product of the acceptance probabilities telescopes to
``mu_hat(sigma_0) * w(Y) / (mu_hat(Y) * w(sigma_0)) * e^{-3/n}``, so
conditioned on global acceptance the output is distributed exactly according
to ``mu^tau``, and the failure probability is ``O(1/n)``.

The rejection pass is additionally exposed as a *chain kernel*
(:class:`JVVKernel`, see :mod:`repro.sampling.kernels`): with an exact
local oracle the per-node quantity ``q_{v_i}`` of equation (9) collapses to
the slack constant ``e^{-3/n^2}`` (the ``mu_hat`` ratio cancels the weight
ratio exactly -- the identity the acceptance test of
``tests/test_sampling_jvv.py`` pins down), so one unit of the kernel is:
resample the next scan node from its exact conditional (that is ``sigma_i``
adopting the proposal) and draw the acceptance gate against ``e^{-3/n^2}``,
raising the chain's failure count on rejection -- exactly the
``sigma_{i-1} -> sigma_i`` step of pass 3, iterated over the scan.  A full
scan (``n_free`` units) is one rejection pass; a chain succeeds iff no step
rejected, with success probability ``e^{-3 n_free / n^2} ~ e^{-3/n}``
(Lemma 4.8).  The batched implementation advances many chains as one
``(chains, n)`` code matrix with per-chain acceptance masks, bit-identical
per chain to :func:`jvv_rejection_sample`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.analysis.distances import sample_from
from repro.gibbs.instance import SamplingInstance
from repro.gibbs.factors import code_tables
from repro.graphs.structure import distances_from
from repro.inference.base import InferenceAlgorithm
from repro.localmodel.network import Network
from repro.localmodel.scheduler import ScheduledRunResult, simulate_slocal_as_local
from repro.localmodel.slocal import SLocalAlgorithm, StateAccess, run_slocal_algorithm
from repro.sampling.kernels import ScanKernel, register_kernel

Node = Hashable
Value = Hashable


class JVVKernel(ScanKernel):
    """JVV-style local rejection resampling as a chain kernel.

    The deterministic-scan heat-bath step of :class:`ScanKernel`, gated by
    the pass-3 acceptance test of :class:`LocalJVVSampler` specialised to
    an exact local oracle: each step accepts with probability
    ``e^{-3/n^2}`` (equation (9) with the ``mu_hat``/weight ratios
    cancelling) and raises the chain's failure count otherwise, while the
    proposal is applied either way -- the sequence ``sigma_0, ...,
    sigma_n`` of the paper's construction advances regardless of the
    flags.  Per chunk of ``k`` steps each chain draws ``random(k)``
    proposal points then ``random(k)`` acceptance points, which is the
    contract making the batched per-chain acceptance masks bit-identical
    to the serial :func:`jvv_rejection_sample`.
    """

    name = "jvv"
    unit = "steps"
    gated = True

    def acceptance_probability(self, instance: SamplingInstance) -> float:
        """The slack constant ``e^{-3/n^2}`` of equation (9)."""
        n = max(2, instance.size)
        return math.exp(-3.0 / n ** 2)


#: The registered kernel instance (also ``kernel="jvv"`` everywhere).
JVV_KERNEL = register_kernel(JVVKernel())


def jvv_rejection_sample(
    instance: SamplingInstance,
    steps: int,
    seed=0,
    initial: Optional[Dict[Node, Value]] = None,
    return_failures: bool = False,
):
    """Run the serial JVV rejection chain for ``steps`` scan updates.

    The serial reference of :class:`JVVKernel`: starting from ``initial``
    (default: the greedy ground state, the pass-1 analogue), each step
    resamples the next free node of the deterministic scan order from its
    exact local conditional and draws the ``e^{-3/n^2}`` acceptance gate.
    ``steps = len(instance.free_nodes)`` is one full rejection pass.

    Parameters
    ----------
    instance, steps, seed, initial
        As for :func:`repro.sampling.glauber.glauber_sample`.
    return_failures : bool
        When set, return ``(configuration, failure_count)`` instead of the
        configuration alone; a run is a JVV success iff no step rejected.
    """
    configuration, failures = JVV_KERNEL.serial_scan(
        instance, steps, seed=seed, initial=initial
    )
    if return_failures:
        return configuration, failures
    return configuration


def jvv_chain_stats(
    instance: SamplingInstance,
    steps: int,
    n_chains: Optional[int] = None,
    seed=0,
    seeds=None,
    initial: Optional[Dict[Node, Value]] = None,
    runtime=None,
):
    """Final states *and* per-chain rejection counts of independent JVV chains.

    The failure-count sibling of ``Runtime.run_chains("jvv", ...)``, for
    consumers (E4's rejection-law rows, E12's jvv-kernel row) that need the
    acceptance masks alongside the states.  A serial runtime runs the
    per-seed serial reference loop; every other runtime takes the chain
    dispatch of ``run_chains`` (its transport and inline threshold
    included): one in-process :class:`~repro.runtime.chains.ChainBatch`
    whose accumulated masks are read directly, or distributed blocks with
    the ``chain_block`` payload's ``stats=True`` flag, which carries the
    per-chain failure counts back over the pipe/socket alongside the
    configurations.  States and counts are identical across runtimes under
    the spawned-seed convention.

    Returns
    -------
    (list of dict, list of int)
        Per-chain final configurations and rejected-step counts, in seed
        order.
    """
    from repro.runtime import resolve_runtime
    from repro.runtime.chains import as_seed_list, chain_seed_sequences

    resolved = resolve_runtime(runtime)
    if seeds is None:
        seeds = chain_seed_sequences(
            seed, n_chains if n_chains is not None else resolved.n_chains
        )
    else:
        seeds = as_seed_list(seeds)
    if resolved.is_serial:
        pairs = [
            jvv_rejection_sample(
                instance, steps, seed=chain_seed, initial=initial, return_failures=True
            )
            for chain_seed in seeds
        ]
        return [state for state, _ in pairs], [count for _, count in pairs]
    states, counts = resolved._chain_blocks(
        JVV_KERNEL, instance, steps, seeds, initial=initial, stats=True
    )
    return states, list(counts)


class LocalJVVSampler(SLocalAlgorithm):
    """The three-pass local-JVV SLOCAL algorithm.

    All three passes reach the inference engine through one memo owned by
    the sampler, keyed on ``(node, frozenset(free part of the
    conditioning))``: passes 1 and 2 condition on the values already
    placed, and pass 3 re-asks, for every visible node, the marginal given
    its step-order prefix of ``sigma_{i-1}`` and of ``sigma_i`` -- mostly
    questions an earlier step or pass already asked.  The memo is sound
    because inference engines are deterministic (Proposition 3.3, see
    :class:`~repro.inference.base.InferenceAlgorithm`); a non-deterministic
    engine would make repeated questions disagree with their first answer.
    The memo lives as long as the sampler; :func:`sample_exact_slocal` and
    :func:`sample_exact_local` build a fresh sampler per run.
    """

    passes = 3

    def __init__(
        self,
        instance: SamplingInstance,
        inference: InferenceAlgorithm,
        inference_error: Optional[float] = None,
        max_rejection_candidates: int = 4096,
    ) -> None:
        self.instance = instance
        self.inference = inference
        n = max(2, instance.size)
        #: Multiplicative error the inference engine is asked for (1/n^3 in
        #: Proposition 4.3).
        self.inference_error = inference_error if inference_error is not None else 1.0 / n ** 3
        self.max_rejection_candidates = max_rejection_candidates
        self._step_counter = 0
        #: The oracle's answers, keyed on ``(node, frozenset(conditioning))``.
        self._marginals: Dict[tuple, Dict[Value, float]] = {}
        #: Pass 3's symbol codes, and the pins outside the alphabet (no code).
        self._symbol_index = {
            value: code for code, value in enumerate(instance.distribution.alphabet)
        }
        self._strays = {
            node: value
            for node, value in instance.pinning.items()
            if value not in self._symbol_index
        }

    # ------------------------------------------------------------------
    def base_radius(self, network: Network) -> int:
        """The inference engine's radius ``t`` at the requested accuracy."""
        return self.inference.locality(self.instance, self.inference_error)

    def locality(self, network: Network) -> int:
        """``3 t + l`` -- the radius Claim 4.7 charges for the rejection pass."""
        return 3 * self.base_radius(network) + self.instance.distribution.locality()

    def initial_state(self, node: Node, network: Network) -> dict:
        return {}

    # ------------------------------------------------------------------
    def _free_values(self, access: StateAccess, key: str, node: Node) -> Dict[Node, Value]:
        """The ``key`` entries of every visible free node other than ``node``."""
        pinning = self.instance.pinning
        values: Dict[Node, Value] = {}
        for other in access.visible_nodes:
            state = access.read(other)
            if key in state and other != node and other not in pinning:
                values[other] = state[key]
        return values

    def _marginal(self, node: Node, free_assignment: Dict[Node, Value]) -> Dict[Value, float]:
        """The oracle's estimate of ``node``'s marginal given ``free_assignment``.

        ``free_assignment`` pins free nodes only (the instance's pinning is
        implied).  Each ``(node, conditioning)`` reaches the engine once per
        sampler; repeats are answered from the memo.
        """
        key = (node, frozenset(free_assignment.items()))
        marginal = self._marginals.get(key)
        if marginal is None:
            marginal = self.inference.marginal(
                self.instance.conditioned(free_assignment), node, self.inference_error
            )
            self._marginals[key] = marginal
        return marginal

    # ------------------------------------------------------------------
    def process(
        self,
        pass_index: int,
        node: Node,
        access: StateAccess,
        rng: np.random.Generator,
        network: Network,
    ) -> None:
        if pass_index == 0:
            self._process_ground(node, access)
        elif pass_index == 1:
            self._process_proposal(node, access, rng)
        else:
            self._process_rejection(node, access, rng, network)

    # -- pass 1: ground state -------------------------------------------
    def _process_ground(self, node: Node, access: StateAccess) -> None:
        instance = self.instance
        step = self._step_counter
        self._step_counter += 1
        access.write(node, "step", step)
        if node in instance.pinning:
            access.write(node, "ground", instance.pinning[node])
            return
        marginal = self._marginal(node, self._free_values(access, "ground", node))
        positive = {value: p for value, p in marginal.items() if p > 0.0}
        if not positive:
            raise RuntimeError(
                f"the inference engine reported an all-zero marginal at {node!r}; "
                "cannot build a ground state"
            )
        choice = max(sorted(positive, key=repr), key=lambda v: positive[v])
        access.write(node, "ground", choice)

    # -- pass 2: proposal --------------------------------------------------
    def _process_proposal(self, node: Node, access: StateAccess, rng) -> None:
        instance = self.instance
        if node in instance.pinning:
            access.write(node, "sample", instance.pinning[node])
            return
        marginal = self._marginal(node, self._free_values(access, "sample", node))
        access.write(node, "sample", sample_from(marginal, rng))

    # -- pass 3: local rejection ------------------------------------------
    #
    # Pass 3 holds sigma_{i-1}, sigma_i, the proposal and every candidate as
    # ``{node: symbol code}`` and weighs factors through their code tables
    # (``table[c0][c1]...``, see repro.gibbs.factors.code_tables), which
    # hold the floats Factor.evaluate returns.  A node pinned outside the
    # alphabet carries code 0; the factors reading it weigh its pinned value
    # through their callable.
    @staticmethod
    def _ball_feasible(codes: Dict[Node, int], factors) -> bool:
        """Whether every ``(table, scope)`` factor is positive under ``codes``.

        ``factors`` are the factors contained in the check ball, which
        ``codes`` assigns in full.
        """
        for table, scope in factors:
            for other in scope:
                table = table[codes[other]]
            if table == 0.0:
                return False
        return True

    def _process_rejection(self, node: Node, access: StateAccess, rng, network: Network) -> None:
        instance = self.instance
        distribution = instance.distribution
        pinning = instance.pinning
        symbol_index = self._symbol_index
        t = self.base_radius(network)
        ell = distribution.locality()
        my_state = access.read(node)
        my_step = my_state["step"]

        # Current configuration sigma_{i-1} and proposal Y on the visible ball.
        visible = access.visible_nodes
        current: Dict[Node, int] = {}
        proposal: Dict[Node, int] = {}
        steps: Dict[Node, int] = {}
        for other in visible:
            state = access.read(other)
            if other in pinning:
                current[other] = proposal[other] = symbol_index.get(pinning[other], 0)
            else:
                current[other] = symbol_index[state.get("current", state["ground"])]
                proposal[other] = symbol_index[state["sample"]]
            steps[other] = state["step"]

        # One BFS gives both balls: the update ball B_t and the check ball
        # B_{t+l}, whose factors are weighed for every candidate.
        distances = distances_from(instance.graph, node, t + ell)
        check_ball = {other for other in distances if other in visible}
        update_ball = {other for other in check_ball if distances[other] <= t}
        factors = code_tables(
            distribution.factors_within(check_ball), distribution.alphabet, self._strays
        )

        # Build sigma_i: agree with Y on nodes already processed in this pass
        # (step <= my_step), keep the pinning, and adjust the remaining free
        # nodes of the update ball if needed to restore feasibility.
        fixed: Dict[Node, int] = {}
        adjustable: List[Node] = []
        for other in sorted(update_ball, key=repr):
            if other in pinning or steps[other] <= my_step:
                fixed[other] = proposal[other]
            else:
                adjustable.append(other)

        candidate = {other: current[other] for other in check_ball}
        candidate.update(fixed)
        if not self._ball_feasible(candidate, factors):
            found = self._search_feasible_update(candidate, adjustable, factors)
            if not found:
                # Claim 4.6 guarantees existence when the inference error is
                # small enough; with a coarse engine we fail locally instead.
                access.write(node, "output", my_state["sample"])
                access.write(node, "failed", True)
                for other in update_ball:
                    access.write(other, "current", self._value_of(other, current[other]))
                return

        sigma_previous = current
        sigma_next = dict(current)
        for other in update_ball:
            sigma_next[other] = candidate[other]

        acceptance = self._acceptance_probability(
            sigma_previous, sigma_next, steps, factors, visible
        )

        accepted = bool(rng.random() < acceptance)
        for other in update_ball:
            access.write(other, "current", self._value_of(other, sigma_next[other]))
        access.write(node, "output", my_state["sample"])
        access.write(node, "failed", not accepted)
        access.write(node, "acceptance", acceptance)

    def _value_of(self, node: Node, code: int) -> Value:
        """The symbol a pass-3 code stands for (a pinned node keeps its pin)."""
        pinning = self.instance.pinning
        if node in pinning:
            return pinning[node]
        return self.instance.distribution.alphabet[code]

    def _search_feasible_update(
        self, candidate: Dict[Node, int], adjustable: Sequence[Node], factors
    ) -> bool:
        """Enumerate codes of the adjustable nodes until the check ball is feasible.

        Tries code tuples over ``range(q)`` in ``itertools.product`` order,
        which is the alphabet order, writing each into ``candidate``; on
        success ``candidate`` holds the first feasible assignment.
        """
        count = 0
        q = len(self.instance.distribution.alphabet)
        for codes in itertools.product(range(q), repeat=len(adjustable)):
            count += 1
            if count > self.max_rejection_candidates:
                return False
            candidate.update(zip(adjustable, codes))
            if self._ball_feasible(candidate, factors):
                return True
        return False

    def _acceptance_probability(
        self,
        sigma_previous: Dict[Node, int],
        sigma_next: Dict[Node, int],
        steps: Dict[Node, int],
        factors,
        visible,
    ) -> float:
        """The quantity ``q_{v_i}`` of equation (9), computed locally."""
        instance = self.instance
        alphabet = instance.distribution.alphabet
        n = max(2, instance.size)

        # Weight ratio w(sigma_i) / w(sigma_{i-1}) over the factors inside the
        # (t + l)-ball -- all other factors see identical configurations.
        weight_ratio = 1.0
        for table, scope in factors:
            new_weight = old_weight = table
            for other in scope:
                new_weight = new_weight[sigma_next[other]]
                old_weight = old_weight[sigma_previous[other]]
            if old_weight <= 0.0:
                return 0.0
            weight_ratio *= new_weight / old_weight

        # Estimated-distribution ratio mu_hat(sigma_{i-1}) / mu_hat(sigma_i).
        # For a genuinely t-local inference engine only nodes within distance
        # 2t of v_i contribute a non-trivial factor (equation (11)); we sum
        # over every visible node so that the telescoping identity also holds
        # exactly for non-local oracles such as ExactInference, which the
        # correctness tests use.  Walking the nodes in step order, each
        # node's conditioning is the free part of the configuration on the
        # nodes before it, so the two prefixes grow by one node per step.
        mu_ratio = 1.0
        pinning = instance.pinning
        prefix_previous: Dict[Node, Value] = {}
        prefix_next: Dict[Node, Value] = {}
        for other in sorted(visible, key=lambda u: steps[u]):
            if other in pinning:
                continue
            previous_value = alphabet[sigma_previous[other]]
            next_value = alphabet[sigma_next[other]]
            if previous_value is not None and next_value is not None:
                numerator = self._marginal(other, prefix_previous).get(previous_value, 0.0)
                denominator = self._marginal(other, prefix_next).get(next_value, 0.0)
                if denominator <= 0.0:
                    return 0.0
                mu_ratio *= numerator / denominator
            prefix_previous[other] = previous_value
            prefix_next[other] = next_value

        acceptance = mu_ratio * weight_ratio * math.exp(-3.0 / n ** 2)
        return min(1.0, max(0.0, acceptance))


@dataclass
class ExactSampleResult:
    """A sample produced by the local-JVV sampler."""

    configuration: Dict[Node, Value]
    failures: Dict[Node, bool]
    rounds: int
    ordering: Sequence[Node]
    details: Dict[str, object]

    @property
    def success(self) -> bool:
        """True when every node accepted (no local rejection, no scheduling failure)."""
        return not any(self.failures.values())

    @property
    def failure_count(self) -> int:
        """Number of nodes that raised their failure flag."""
        return sum(1 for failed in self.failures.values() if failed)


def sample_exact_slocal(
    instance: SamplingInstance,
    inference: InferenceAlgorithm,
    seed: int = 0,
    ordering: Optional[Sequence[Node]] = None,
    inference_error: Optional[float] = None,
) -> ExactSampleResult:
    """One run of the local-JVV sampler in the SLOCAL model."""
    algorithm = LocalJVVSampler(instance, inference, inference_error=inference_error)
    network = Network(instance.graph, seed=seed)
    result = run_slocal_algorithm(algorithm, network, ordering)
    return ExactSampleResult(
        configuration={node: result.outputs[node] for node in network.nodes},
        failures=result.failures,
        rounds=result.locality,
        ordering=result.ordering,
        details={"mode": "slocal", "inference": inference.name()},
    )


def sample_exact_local(
    instance: SamplingInstance,
    inference: InferenceAlgorithm,
    seed: int = 0,
    inference_error: Optional[float] = None,
) -> ExactSampleResult:
    """One run of the local-JVV sampler simulated in the LOCAL model (Lemma 3.1)."""
    algorithm = LocalJVVSampler(instance, inference, inference_error=inference_error)
    network = Network(instance.graph, seed=seed)
    result: ScheduledRunResult = simulate_slocal_as_local(algorithm, network, seed=seed)
    return ExactSampleResult(
        configuration={node: result.outputs[node] for node in network.nodes},
        failures=result.failures,
        rounds=result.rounds,
        ordering=result.ordering,
        details={"mode": "local", "inference": inference.name(), **result.details},
    )
