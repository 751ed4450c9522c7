"""Markov-chain baselines: Glauber dynamics and the LubyGlauber parallel chain.

The paper positions its reductions against the previous approach to
distributed sampling -- parallelised Markov chains such as the LubyGlauber
algorithm of Feng, Sun and Yin (PODC 2017).  These baselines are implemented
here for the comparison experiment (E12):

* :func:`glauber_sample` -- classical single-site Glauber dynamics: pick a
  uniformly random free node, resample it from its conditional distribution
  given its neighbourhood;
* :func:`luby_glauber_sample` -- per round, an independent set of free nodes
  is selected through random priorities (a Luby step) and all selected nodes
  update simultaneously; one round is ``O(1)`` LOCAL rounds.

Both chains have the target distribution ``mu^tau`` as their stationary
distribution whenever the single-site dynamics is ergodic (which local
admissibility guarantees for the models used in the experiments).

The chains run on the compiled evaluation engine only (see
:mod:`repro.engine`): the state lives in an integer code array, and one
conditional is a single gather into each precomputed per-node factor table
followed by a product over the alphabet axis.  The dict engine stays an
evaluation reference: :func:`local_conditional` takes ``engine="dict"`` and
weighs the factors through ``Factor.evaluate``.

Both dynamics are exposed as *chain kernels*
(:class:`GlauberKernel` / :class:`LubyGlauberKernel`, see
:mod:`repro.sampling.kernels`): the serial loops below are the reference
bit-patterns, the ``batched_advance`` methods are the vectorised
``(chains, n)`` code-matrix implementations, and every execution backend
(serial/batched/process/cluster) dispatches them through the same
``run_chains`` path.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.analysis.distances import normalize
from repro.engine import resolve_engine
from repro.gibbs.instance import SamplingInstance
from repro.sampling.kernels import (
    RNG_CHUNK,
    ChainKernel,
    register_kernel,
    sample_code,
)

Node = Hashable
Value = Hashable


def greedy_feasible_configuration(instance: SamplingInstance) -> Dict[Node, Value]:
    """A feasible full configuration extending the pinning, built greedily.

    Processes the free nodes in deterministic order and assigns each the
    first alphabet value that keeps every fully assigned factor positive.
    For locally admissible distributions this always succeeds and the result
    is feasible (it is the sequential-local-oblivious construction of
    Remark 2.3); a ``RuntimeError`` is raised otherwise.

    The start is built once per instance (:func:`greedy_start_codes`) and
    decoded into a fresh dict on every call.
    """
    compiled = instance.distribution.compiled_engine()
    return _decode_state(compiled, greedy_start_codes(instance).tolist())


def greedy_start_codes(instance: SamplingInstance) -> np.ndarray:
    """The compiled greedy start as a read-only code vector, memoised.

    The construction is deterministic and draws no randomness, so the
    codes are kept on the instance, tied to the compiled engine they were
    built from.  An instance's pinning is fixed, but its distribution may
    be reweighted in place
    (:meth:`~repro.gibbs.distribution.GibbsDistribution.update_factors`),
    which builds a new compiled engine and so gets a fresh start.  A stuck
    construction caches nothing, so it raises the same ``RuntimeError`` on
    every call.
    """
    compiled = instance.distribution.compiled_engine()
    memo = instance._greedy_start
    if memo is not None and memo[0] is compiled:
        return memo[1]
    conditionals = compiled.conditionals
    codes = [-1] * len(compiled.nodes)
    for node, value in instance.pinning.items():
        codes[compiled.node_index[node]] = compiled.symbol_index[value]
    for variable, node in enumerate(compiled.nodes):
        if codes[variable] >= 0:
            continue
        weights = conditionals.weights_partial(variable, codes)
        chosen = next((code for code, weight in enumerate(weights) if weight > 0.0), None)
        if chosen is None:
            raise RuntimeError(
                f"greedy construction got stuck at node {node!r}; "
                "the distribution is not locally admissible"
            )
        codes[variable] = chosen
    start = np.array(codes, dtype=np.int64)
    start.flags.writeable = False
    instance._greedy_start = (compiled, start)
    return start


def warm_start_configuration(
    instance: SamplingInstance, sweeps: int = 3
) -> Dict[Node, Value]:
    """A deterministic local-search warm start for chain initialisation.

    Starts from :func:`greedy_feasible_configuration` and runs up to
    ``sweeps`` deterministic coordinate-ascent sweeps: each free node (in
    deterministic order) is set to the argmax of its local conditional
    weights, first maximum winning ties.  This is the chain-bootstrap idiom
    of pracmln's ``SAMaxWalkSAT`` -- seed the chain near a mode instead of at
    an arbitrary feasible state -- without the stochastic walk, so the result
    is a pure function of the instance.  No RNG is consumed: passing the
    result as ``initial=`` to a sampler changes only the starting state,
    never the kernel's draw sequence.
    """
    if sweeps < 0:
        raise ValueError("sweeps must be non-negative")
    configuration = greedy_feasible_configuration(instance)
    free_nodes = instance.free_nodes
    if not free_nodes:
        return configuration
    compiled, conditionals, codes = _compiled_state(instance, configuration)
    free_index = [compiled.node_index[node] for node in free_nodes]
    for _ in range(sweeps):
        changed = False
        for variable in free_index:
            weights = conditionals.weights_by_codes(variable, codes)
            total = sum(weights)
            if total <= 0.0:
                node = compiled.nodes[variable]
                raise ValueError(
                    f"node {node!r} has no feasible value given its neighbourhood; "
                    "the single-site dynamics is not ergodic here"
                )
            best = max(range(compiled.q), key=lambda code: weights[code])
            if codes[variable] != best:
                codes[variable] = best
                changed = True
        if not changed:
            break
    return _decode_state(compiled, codes)


def local_conditional(
    instance: SamplingInstance,
    configuration: Dict[Node, Value],
    node: Node,
    engine: Optional[str] = None,
) -> Dict[Value, float]:
    """Conditional distribution of ``node`` given the rest of the configuration.

    Only the factors containing ``node`` matter, so this is a strictly local
    computation (one LOCAL round).
    """
    distribution = instance.distribution
    if resolve_engine(engine) == "compiled":
        conditionals = distribution.compiled_engine().conditionals
        weights_list = conditionals.weights_by_mapping(node, configuration)
        total = sum(weights_list)
        if total <= 0.0:
            raise ValueError(
                f"node {node!r} has no feasible value given its neighbourhood; "
                "the single-site dynamics is not ergodic here"
            )
        return {
            value: weights_list[code] / total
            for code, value in enumerate(distribution.alphabet)
        }
    weights: Dict[Value, float] = {}
    working = dict(configuration)
    for value in distribution.alphabet:
        working[node] = value
        weight = 1.0
        for factor in distribution.factors_at(node):
            weight *= factor.evaluate(working)
            if weight == 0.0:
                break
        weights[value] = weight
    total = sum(weights.values())
    if total <= 0.0:
        raise ValueError(
            f"node {node!r} has no feasible value given its neighbourhood; "
            "the single-site dynamics is not ergodic here"
        )
    return normalize(weights)


def _compiled_state(instance: SamplingInstance, configuration: Dict[Node, Value]):
    """The (compiled, conditionals, code-list) triple for a chain run."""
    compiled = instance.distribution.compiled_engine()
    symbol_index = compiled.symbol_index
    codes = [symbol_index[configuration[node]] for node in compiled.nodes]
    return compiled, compiled.conditionals, codes


def _decode_state(compiled, codes) -> Dict[Node, Value]:
    alphabet = compiled.alphabet
    return {
        node: alphabet[codes[variable]]
        for variable, node in enumerate(compiled.nodes)
    }


def glauber_sample(
    instance: SamplingInstance,
    steps: int,
    seed: int = 0,
    initial: Optional[Dict[Node, Value]] = None,
) -> Dict[Node, Value]:
    """Run single-site Glauber dynamics for ``steps`` updates and return the state."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = np.random.default_rng(seed)
    configuration = (
        dict(initial)
        if initial is not None
        else greedy_feasible_configuration(instance)
    )
    free_nodes = instance.free_nodes
    if not free_nodes:
        return configuration
    compiled, conditionals, codes = _compiled_state(instance, configuration)
    free_index = [compiled.node_index[node] for node in free_nodes]
    free_count = len(free_index)
    tables = conditionals.tables
    remaining = steps
    while remaining > 0:
        chunk = min(remaining, RNG_CHUNK)
        remaining -= chunk
        choices = rng.integers(0, free_count, size=chunk)
        points = rng.random(chunk)
        for step in range(chunk):
            variable = free_index[choices[step]]
            # Inlined CompiledConditionals.weights_by_codes: this loop is the
            # single-site hot path, and the call overhead is measurable.
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
                codes[variable] = min(int(points[step] * compiled.q), compiled.q - 1)
                continue
            total = sum(weights)
            if total <= 0.0:
                node = compiled.nodes[variable]
                raise ValueError(
                    f"node {node!r} has no feasible value given its neighbourhood; "
                    "the single-site dynamics is not ergodic here"
                )
            codes[variable] = sample_code(weights, points[step] * total)
    return _decode_state(compiled, codes)


def luby_glauber_sample(
    instance: SamplingInstance,
    rounds: int,
    seed: int = 0,
    initial: Optional[Dict[Node, Value]] = None,
) -> Dict[Node, Value]:
    """Run the LubyGlauber parallel chain for ``rounds`` rounds and return the state.

    In each round every free node draws a uniform priority; a node updates
    iff its priority beats all of its free neighbours' (the selected nodes
    form an independent set, so the simultaneous updates commute with the
    sequential chain and stationarity is preserved).
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    rng = np.random.default_rng(seed)
    configuration = (
        dict(initial)
        if initial is not None
        else greedy_feasible_configuration(instance)
    )
    graph = instance.graph
    free_nodes = instance.free_nodes
    free_set = set(free_nodes)
    if not free_nodes:
        return configuration
    compiled, conditionals, codes = _compiled_state(instance, configuration)
    free_index = [compiled.node_index[node] for node in free_nodes]
    free_position = {variable: i for i, variable in enumerate(free_index)}
    # Free neighbours of each free node, as positions into the priority array.
    neighbour_positions = [
        [
            free_position[compiled.node_index[neighbour]]
            for neighbour in graph.neighbors(node)
            if neighbour in free_set
        ]
        for node in free_nodes
    ]
    for _ in range(rounds):
        priorities = rng.random(len(free_index))
        selected = [
            variable
            for position, variable in enumerate(free_index)
            if all(
                priorities[position] > priorities[other]
                for other in neighbour_positions[position]
            )
        ]
        points = rng.random(len(selected))
        # The selected nodes form an independent set, so evaluating their
        # conditionals against the same pre-round snapshot and applying the
        # updates afterwards matches the simultaneous-update semantics.
        updates = []
        for index, variable in enumerate(selected):
            weights = conditionals.weights_by_codes(variable, codes)
            total = sum(weights)
            if total <= 0.0:
                node = compiled.nodes[variable]
                raise ValueError(
                    f"node {node!r} has no feasible value given its neighbourhood; "
                    "the single-site dynamics is not ergodic here"
                )
            updates.append((variable, sample_code(weights, points[index] * total)))
        for variable, code in updates:
            codes[variable] = code
    return _decode_state(compiled, codes)


# ----------------------------------------------------------------------
# kernel definitions (see repro.sampling.kernels)
# ----------------------------------------------------------------------
class GlauberKernel(ChainKernel):
    """Single-site Glauber dynamics as a chain kernel.

    One unit = one uniformly random free node resampled from its exact
    local conditional.  ``serial_run`` is :func:`glauber_sample`;
    ``batched_advance`` is the vectorised ``(chains, n)`` implementation
    (one batched gather per step), bit-identical per chain under the
    chunked RNG contract (``integers(0, free, k)`` then ``random(k)`` per
    chunk of ``k`` steps).
    """

    name = "glauber"
    unit = "steps"

    def serial_run(self, instance, count, seed=0, initial=None):
        return glauber_sample(instance, count, seed=seed, initial=initial)

    def batched_advance(self, batch, count, statistic=None):
        if count < 0:
            raise ValueError("steps must be non-negative")
        free_index = batch.free_index
        trace: Optional[List[np.ndarray]] = [] if statistic is not None else None
        if len(free_index) == 0 or count == 0:
            if trace is not None:
                for _ in range(count):
                    trace.append(np.asarray(statistic(batch.codes), dtype=float))
                return batch.stack_trace(trace)
            return None
        chains = batch.n_chains
        self._steps(
            batch.tables,
            batch.codes,
            batch.rngs,
            [len(free_index)] * chains,
            free_index,
            0,
            0,
            batch.compiled,
            batch.any_factorless,
            count,
            statistic,
            trace,
        )
        if trace is not None:
            return batch.stack_trace(trace)
        return None

    @staticmethod
    def _steps(
        tables,
        codes,
        rngs,
        free_counts,
        free_lookup,
        lookup_starts,
        node_offsets,
        compiled,
        any_factorless,
        count,
        statistic=None,
        trace=None,
    ) -> None:
        """The chunked draw-and-step loop of one code matrix, in place.

        Chain ``c`` draws ``integers(0, free_counts[c], chunk)`` then
        ``random(chunk)`` per chunk, the serial pattern.  Its ``j``-th free
        node sits in column ``free_lookup[lookup_starts[c] + j]`` of its
        row, and in table row ``node_offsets[c]`` plus that column (0 for
        one model, the group's node offset in a pack).  Both the choice
        lookup and the write are flat ``take``/``put`` calls.
        """
        chains = len(rngs)
        q = tables.q
        factorless = tables.factorless
        chain_ids = np.arange(chains)
        row_starts = chain_ids * codes.shape[1]
        remaining = count
        while remaining > 0:
            chunk = min(remaining, RNG_CHUNK)
            remaining -= chunk
            choices = np.empty((chains, chunk), dtype=np.int64)
            points = np.empty((chains, chunk))
            for chain, (rng, free) in enumerate(zip(rngs, free_counts)):
                choices[chain] = rng.integers(0, free, size=chunk)
                points[chain] = rng.random(chunk)
            # Step-major, so each step reads contiguous rows.
            columns = free_lookup.take(choices.T + lookup_starts)
            variables = columns + node_offsets
            points = np.ascontiguousarray(points.T)
            for step in range(chunk):
                chosen = variables[step]
                point = points[step]
                new_codes = tables.sample_codes(codes, chain_ids, chosen, point, compiled)
                if any_factorless:
                    # Replicate the serial fast path for factorless nodes
                    # (uniform resample via truncation, not cumulative search).
                    uniform = np.minimum((point * q).astype(np.int64), q - 1)
                    new_codes = np.where(factorless[chosen], uniform, new_codes)
                codes.put(row_starts + columns[step], new_codes)
                if trace is not None:
                    trace.append(np.asarray(statistic(codes), dtype=float))

    def fuses(self, packed) -> bool:
        """Fused whenever the pack is fusable (see :meth:`packed_advance`)."""
        return packed.fusable()

    def packed_advance(self, packed, count) -> None:
        """Fused multi-instance step over one padded code matrix.

        Advances every group of a :class:`~repro.runtime.chains.PackedBatch`
        -- possibly *different models* -- through the same chunk loop as
        :meth:`batched_advance`, with one ``sample_codes`` gather per step
        across all ``total_chains`` rows instead of one per group.
        Bit-identity with solo groups holds because each chain replays its
        exact solo draw pattern (``integers(0, group_free, chunk)`` then
        ``random(chunk)`` per chunk, per chain) and the merged tables hold
        each group's own blanket rows (or, past a blanket cap, the padded
        gather, whose padding multiplies by 1.0 after the real factor
        entries); the *write* column is the chain's group-local variable,
        while the *table* row is its global id (group node offset +
        local).  Falls back to the groupwise loop when the pack is not
        fusable (mixed alphabet sizes or a group with no free nodes).
        """
        if count < 0:
            raise ValueError("steps must be non-negative")
        if count == 0:
            return None
        if not self.fuses(packed):
            return super().packed_advance(packed, count)
        layout = packed.layout()
        codes = packed.gather_codes()
        free_lookup = layout.free_lookup

        # stuck_node_error only reads .nodes; give it the packed label map.
        class _packed_compiled:  # noqa: N801 - local shim
            nodes = layout.nodes

        self._steps(
            layout.tables,
            codes,
            layout.rngs,
            layout.free_counts.tolist(),
            free_lookup.ravel(),
            np.arange(layout.total_chains) * free_lookup.shape[1],
            layout.chain_node_offset,
            _packed_compiled,
            layout.any_factorless,
            count,
        )
        packed.scatter_codes(codes)
        return None


class LubyGlauberKernel(ChainKernel):
    """The LubyGlauber parallel chain as a chain kernel.

    One unit = one round: every free node draws a priority, the local
    maxima form an independent set, and all selected nodes resample
    simultaneously from the pre-round snapshot.  ``serial_run`` is
    :func:`luby_glauber_sample`; ``batched_advance`` advances every chain's
    round with one batched priority comparison and one batched gather.
    Both of a round's draws come from the batch's uniforms buffer
    (:class:`~repro.runtime.chains.ChainUniforms`): the priorities are one
    equal take for every chain, the update points one ragged take of each
    chain's selection count -- no per-chain Python loop.  All draws are
    prefix-consistent doubles, so a run split across several calls equals
    one whole run.
    """

    name = "luby-glauber"
    unit = "rounds"

    def serial_run(self, instance, count, seed=0, initial=None):
        return luby_glauber_sample(instance, count, seed=seed, initial=initial)

    def batched_advance(self, batch, count, statistic=None):
        if count < 0:
            raise ValueError("rounds must be non-negative")
        trace: Optional[List[np.ndarray]] = [] if statistic is not None else None
        uniforms = batch.uniforms()
        neighbour_index = self._neighbour_index(batch)
        for done in range(count):
            if len(batch.free_index):
                self._round(batch, uniforms, neighbour_index, count - done)
            if trace is not None:
                trace.append(np.asarray(statistic(batch.codes), dtype=float))
        if trace is not None:
            return batch.stack_trace(trace)
        return None

    def _neighbour_index(self, batch) -> np.ndarray:
        """Positions (into the priority array) of each free node's free
        neighbours, one column per free node (shape ``(width, free)``, so
        the round's neighbour max runs over the leading axis), padded with
        a sentinel that reads a ``-inf`` priority -- so isolated nodes are
        always selected, matching the serial all-of-empty convention.
        Cached per batch."""
        state = batch.scratch(self.name)
        cached = state.get("neighbour_index")
        if cached is not None:
            return cached
        instance = batch.instance
        compiled = batch.compiled
        free_nodes = instance.free_nodes
        free_set = set(free_nodes)
        free_position = {
            variable: position
            for position, variable in enumerate(batch.free_index.tolist())
        }
        graph = instance.graph
        neighbour_positions = [
            [
                free_position[compiled.node_index[neighbour]]
                for neighbour in graph.neighbors(node)
                if neighbour in free_set
            ]
            for node in free_nodes
        ]
        width = max((len(positions) for positions in neighbour_positions), default=0) or 1
        sentinel = len(free_nodes)
        neighbour_index = np.full((width, len(free_nodes)), sentinel, dtype=np.int64)
        for position, neighbours in enumerate(neighbour_positions):
            neighbour_index[: len(neighbours), position] = neighbours
        state["neighbour_index"] = neighbour_index
        return neighbour_index

    def _round(self, batch, uniforms, neighbour_index, rounds) -> None:
        """One round of every chain; ``rounds`` counts it and the rounds
        left after it in this call (the refill size of the buffer)."""
        free_index = batch.free_index
        priorities = uniforms.take(len(free_index), rounds)
        extended = np.concatenate(
            [priorities, np.full((batch.n_chains, 1), -np.inf)], axis=1
        )
        selected = priorities > np.maximum.reduce(extended[:, neighbour_index], axis=1)
        # Every chain consumes exactly its selection count, matching the
        # serial rng.random(len(selected)) draw.
        points = uniforms.take_ragged(selected.sum(axis=1), rounds)
        rows, positions = np.nonzero(selected)
        if len(rows) == 0:
            return
        variables = free_index[positions]
        # All conditionals read the pre-round snapshot; the selected nodes
        # form an independent set per chain, so the simultaneous updates
        # below cannot interact.
        new_codes = batch.tables.sample_codes(
            batch.codes, rows, variables, points, batch.compiled
        )
        batch.codes[rows, variables] = new_codes


#: The registered kernel instances (also reachable by name through
#: :func:`repro.sampling.kernels.get_kernel`).
GLAUBER_KERNEL = register_kernel(GlauberKernel())
LUBY_GLAUBER_KERNEL = register_kernel(LubyGlauberKernel())
