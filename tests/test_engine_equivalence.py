"""Randomized equivalence suite: compiled engine vs reference dict engine.

The array-backed compiled engine (:mod:`repro.engine`) and the reference
dict-of-tuples eliminator (:mod:`repro.gibbs.elimination`) are independent
implementations of the same mathematics.  This suite drives both through the
public APIs -- partition functions, marginals, ball-restricted marginals and
Glauber conditionals -- across hardcore, Ising/two-spin, matching and
coloring instances on randomized graphs with randomized pinnings, and
requires agreement to 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CompiledGibbs
from repro.gibbs import SamplingInstance
from repro.graphs import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
    torus_graph,
)
from repro.models import (
    coloring_model,
    hardcore_model,
    ising_model,
    matching_model,
    two_spin_model,
)
from repro.sampling.glauber import (
    glauber_sample,
    greedy_feasible_configuration,
    local_conditional,
    luby_glauber_sample,
)

TOLERANCE = 1e-9


def _model_instances():
    """(label, distribution) pairs covering all four model families."""
    rng = np.random.default_rng(20260726)
    instances = []
    for trial in range(3):
        graph = random_tree(9, seed=trial)
        fugacity = float(rng.uniform(0.3, 3.0))
        instances.append((f"hardcore-tree{trial}", hardcore_model(graph, fugacity)))
    instances.append(("hardcore-grid", hardcore_model(grid_graph(3, 4), 1.2)))
    instances.append(
        ("ising-cycle", ising_model(cycle_graph(7), interaction=0.4, external_field=0.2))
    )
    instances.append(
        ("two-spin-path", two_spin_model(path_graph(7), beta=0.5, gamma=1.6, field=1.1))
    )
    instances.append(("matching-cycle", matching_model(cycle_graph(6), edge_weight=1.4)))
    instances.append(("matching-star", matching_model(star_graph(4), edge_weight=0.7)))
    instances.append(("coloring-cycle", coloring_model(cycle_graph(6), num_colors=3)))
    instances.append(("coloring-tree", coloring_model(random_tree(8, seed=5), num_colors=4)))
    return instances


MODEL_INSTANCES = _model_instances()
MODEL_IDS = [label for label, _ in MODEL_INSTANCES]


def _random_feasible_pinning(distribution, rng, max_pins=3):
    """A random pinning kept only if feasible (checked with the dict engine)."""
    nodes = distribution.nodes
    count = int(rng.integers(0, max_pins + 1))
    if count == 0:
        return {}
    chosen = rng.choice(len(nodes), size=min(count, len(nodes)), replace=False)
    pinning = {
        nodes[int(i)]: distribution.alphabet[int(rng.integers(0, distribution.alphabet_size))]
        for i in chosen
    }
    if distribution.partition_function(pinning, engine="dict") > 0.0:
        return pinning
    return {}


@pytest.mark.parametrize(("label", "distribution"), MODEL_INSTANCES, ids=MODEL_IDS)
class TestEngineEquivalence:
    def test_partition_functions_agree(self, label, distribution):
        rng = np.random.default_rng(hash(label) % (2**32))
        for _ in range(4):
            pinning = _random_feasible_pinning(distribution, rng)
            z_compiled = distribution.partition_function(pinning, engine="compiled")
            z_dict = distribution.partition_function(pinning, engine="dict")
            assert z_compiled == pytest.approx(z_dict, rel=TOLERANCE, abs=1e-12)

    def test_marginals_agree(self, label, distribution):
        rng = np.random.default_rng((hash(label) + 1) % (2**32))
        nodes = distribution.nodes
        for _ in range(3):
            pinning = _random_feasible_pinning(distribution, rng)
            for node in nodes[:4]:
                if node in pinning:
                    continue
                compiled = distribution.marginal(node, pinning, engine="compiled")
                reference = distribution.marginal(node, pinning, engine="dict")
                for value in distribution.alphabet:
                    assert compiled[value] == pytest.approx(
                        reference[value], rel=TOLERANCE, abs=TOLERANCE
                    )

    def test_joint_marginals_agree(self, label, distribution):
        # The compiled engine computes the whole joint from one contraction
        # schedule with multiple kept axes; the dict engine loops value
        # tuples over the partition function.  They must agree entrywise.
        rng = np.random.default_rng((hash(label) + 3) % (2**32))
        nodes = distribution.nodes
        for size in (1, 2, 3):
            if len(nodes) < size:
                continue
            pinning = _random_feasible_pinning(distribution, rng)
            chosen = [nodes[int(i)] for i in rng.choice(len(nodes), size=size, replace=False)]
            compiled = distribution.joint_marginal(chosen, pinning, engine="compiled")
            reference = distribution.joint_marginal(chosen, pinning, engine="dict")
            assert set(compiled) == set(reference)
            for key, probability in reference.items():
                assert compiled[key] == pytest.approx(
                    probability, rel=TOLERANCE, abs=TOLERANCE
                )
            assert sum(compiled.values()) == pytest.approx(1.0, abs=1e-9)

    def test_joint_marginal_with_pinned_query_nodes(self, label, distribution):
        nodes = distribution.nodes
        pinned_value = distribution.alphabet[0]
        pinning = {nodes[0]: pinned_value}
        if distribution.partition_function(pinning, engine="dict") <= 0.0:
            pinning = {nodes[0]: distribution.alphabet[-1]}
        compiled = distribution.joint_marginal((nodes[0], nodes[2]), pinning, engine="compiled")
        reference = distribution.joint_marginal((nodes[0], nodes[2]), pinning, engine="dict")
        assert set(compiled) == set(reference)
        for key, probability in reference.items():
            assert compiled[key] == pytest.approx(probability, rel=TOLERANCE, abs=TOLERANCE)

    def test_ball_restricted_marginals_agree(self, label, distribution):
        rng = np.random.default_rng((hash(label) + 2) % (2**32))
        nodes = distribution.nodes
        for radius in (0, 1, 2):
            pinning = _random_feasible_pinning(distribution, rng)
            for center in nodes[:3]:
                if center in pinning:
                    continue
                compiled = distribution.ball_marginal(
                    center, radius, pinning, center, engine="compiled"
                )
                reference = distribution.ball_marginal(
                    center, radius, pinning, center, engine="dict"
                )
                for value in distribution.alphabet:
                    assert compiled[value] == pytest.approx(
                        reference[value], rel=TOLERANCE, abs=TOLERANCE
                    )

    def test_local_conditionals_agree(self, label, distribution):
        instance = SamplingInstance(distribution)
        configuration = greedy_feasible_configuration(instance)
        for node in distribution.nodes[:5]:
            compiled = local_conditional(instance, configuration, node, engine="compiled")
            reference = local_conditional(instance, configuration, node, engine="dict")
            for value in distribution.alphabet:
                assert compiled[value] == pytest.approx(
                    reference[value], rel=TOLERANCE, abs=TOLERANCE
                )


class TestPinnedSubInstances:
    """Conditioned (self-reduced) instances exercise the pinning signatures."""

    def test_conditioned_marginals_agree(self):
        distribution = hardcore_model(cycle_graph(8), fugacity=1.5)
        rng = np.random.default_rng(7)
        instance = SamplingInstance(distribution, {0: 1})
        for _ in range(5):
            extra_node = int(rng.integers(1, 8))
            extra = {extra_node: 0}
            conditioned = instance.conditioned(extra)
            for node in conditioned.free_nodes:
                compiled = distribution.marginal(node, conditioned.pinning, engine="compiled")
                reference = distribution.marginal(node, conditioned.pinning, engine="dict")
                for value in distribution.alphabet:
                    assert compiled[value] == pytest.approx(
                        reference[value], rel=TOLERANCE, abs=TOLERANCE
                    )

    def test_infeasible_pinning_behaviour_matches(self):
        distribution = hardcore_model(path_graph(4), fugacity=1.0)
        infeasible = {0: 1, 1: 1}
        assert distribution.partition_function(infeasible, engine="compiled") == 0.0
        assert distribution.partition_function(infeasible, engine="dict") == 0.0
        with pytest.raises(ValueError):
            distribution.marginal(3, infeasible, engine="compiled")
        with pytest.raises(ValueError):
            distribution.marginal(3, infeasible, engine="dict")

    def test_unknown_engine_rejected(self):
        distribution = hardcore_model(path_graph(3), fugacity=1.0)
        with pytest.raises(ValueError):
            distribution.partition_function({}, engine="quantum")


class TestBlanketTables:
    """The batched kernels' blanket-indexed tables vs the per-step gather."""

    @staticmethod
    def _random_instances(q, rng, count=8):
        """Seeded random models over ``q`` codes: ``(compiled, scopes, arrays)``."""
        for _ in range(count):
            n = int(rng.integers(4, 7))
            # Two weight tables per arity (zeros are hard constraints), drawn
            # with replacement, so equal factors exercise the table dedupe.
            palette = {
                arity: [
                    rng.random((q,) * arity) * (rng.random((q,) * arity) > 0.25)
                    for _ in range(2)
                ]
                for arity in (1, 2, 3)
            }
            scopes, arrays = [], []
            for _ in range(int(rng.integers(n, 2 * n))):
                arity = int(rng.integers(1, 4))
                # Node n - 1 is in no scope: a factorless free node.
                scope = rng.choice(n - 1, size=arity, replace=False)
                scopes.append(tuple(int(node) for node in scope))
                arrays.append(palette[arity][int(rng.integers(2))])
            yield CompiledGibbs(range(n), range(q), scopes, arrays), scopes, arrays

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_blanket_weights_equal_the_gather_bit_for_bit(self, q):
        from repro.runtime.chains import _BatchedTables

        rng = np.random.default_rng(4100 + q)
        parts = []
        for compiled, scopes, arrays in self._random_instances(q, rng):
            n = len(compiled.nodes)
            tables = compiled.batched_tables
            assert tables.rows is not None and tables.factorless[n - 1]
            codes = rng.integers(0, q, size=(32, n))
            # Pinned blanket nodes hold one code in every chain.
            for node in rng.choice(n - 1, size=2, replace=False):
                codes[:, node] = int(rng.integers(q))
            rows = rng.integers(0, 32, size=200)
            variables = rng.integers(0, n, size=200)
            blanket = tables.weights(codes, rows, variables)
            gathered = tables._gather(codes, rows, variables)
            assert blanket.tobytes() == gathered.tobytes()
            serial = [
                compiled.conditionals.weights_by_codes(int(v), codes[r].tolist())
                for r, v in zip(rows, variables)
            ]
            assert blanket.tobytes() == np.array(serial).tobytes()
            # The cumulative columns the samplers select from (q-major) are
            # the running sums of exactly these weight rows.
            cumulative = tables.cumulative[:, tables._row_index(codes, rows, variables)]
            assert cumulative.tobytes() == np.cumsum(blanket, axis=1).T.tobytes()
            assert tables.may_stick == bool(np.any(tables.rows.sum(axis=1) <= 0.0))
            parts.append(tables)
            # All three read CompiledConditionals' entry layout, so check it
            # against the dense arrays indexed directly, in the same factor
            # order (one IEEE product per factor, hence exact equality).
            direct = []
            for r, v in zip(rows, variables):
                weights = np.ones(q)
                for scope, array in zip(scopes, arrays):
                    if v in scope:
                        index = [codes[r, node] for node in scope]
                        index[scope.index(v)] = slice(None)
                        weights = weights * array[tuple(index)]
                direct.append(weights)
            np.testing.assert_array_equal(np.array(serial), np.array(direct))
        merged = _BatchedTables.merged(parts)
        assert merged.cumulative.tobytes() == np.cumsum(merged.rows, axis=1).T.tobytes()
        assert merged.cumulative.tobytes() == np.concatenate(
            [part.cumulative for part in parts], axis=1
        ).tobytes()
        assert merged.may_stick == any(part.may_stick for part in parts)

    @staticmethod
    def _edge_points(rng, size):
        """Uniform points with 0.0 and the clamp edge ``nextafter(1, 0)`` mixed in."""
        points = rng.random(size)
        points.flat[::3] = 0.0
        points.flat[1::3] = np.nextafter(1.0, 0.0)
        return points

    @staticmethod
    def _serial_weights(compiled, variable, chain):
        """The serial conditional weights of one pair and their total."""
        weights = compiled.conditionals.weights_by_codes(int(variable), chain)
        return weights, sum(weights)

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_q_major_sample_codes_equal_the_serial_pick(self, q):
        """Both table forms pick the serial :func:`sample_code` code, from
        one pair (the serve shape) up to a LubyGlauber round of 10 000,
        at the uniform point's edges, and name the earliest stuck pair."""
        import copy

        from repro.sampling.kernels import sample_code, stuck_node_error

        rng = np.random.default_rng(5200 + q)
        for compiled, _, _ in self._random_instances(q, rng, count=4):
            n = len(compiled.nodes)
            blanket = compiled.batched_tables
            gather = copy.copy(blanket)
            gather._clear_blanket()
            codes = rng.integers(0, q, size=(64, n))
            serial = {
                (row, variable): self._serial_weights(compiled, variable, chain)
                for row, chain in enumerate(codes.tolist())
                for variable in range(n)
            }
            feasible = np.array([pair for pair, (_, total) in serial.items() if total > 0.0])
            stuck = [pair for pair, (_, total) in serial.items() if total <= 0.0]
            for pairs in (1, 200, 10_000):
                rows, variables = feasible[rng.integers(0, len(feasible), size=pairs)].T
                points = self._edge_points(rng, pairs)
                expected = []
                for row, variable, point in zip(rows.tolist(), variables.tolist(), points.tolist()):
                    weights, total = serial[row, variable]
                    expected.append(sample_code(weights, point * total))
                for tables in (blanket, gather):
                    picked = tables.sample_codes(codes, rows, variables, points, compiled)
                    assert picked.tolist() == expected
            if len(stuck) >= 2:
                # Two stuck pairs among feasible ones: the first names the node.
                rows, variables = np.concatenate(
                    [feasible[:50], stuck[:1], feasible[50:100], stuck[1:2]]
                ).T
                message = str(stuck_node_error(compiled, stuck[0][1]))
                for tables in (blanket, gather):
                    with pytest.raises(ValueError) as raised:
                        tables.sample_codes(
                            codes, rows, variables, rng.random(len(rows)), compiled
                        )
                    assert str(raised.value) == message

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_q_major_sample_columns_equal_the_serial_pick_on_a_wave(self, q):
        import copy

        from repro.sampling.kernels import sample_code, scan_waves

        rng = np.random.default_rng(5300 + q)
        checked = 0
        for compiled, _, _ in self._random_instances(q, rng):
            n = len(compiled.nodes)
            blanket = compiled.batched_tables
            gather = copy.copy(blanket)
            gather._clear_blanket()
            # The widest wave of one scan over nodes 0..n-1 (so its step
            # indices are node ids), in every chain whose wave nodes are
            # all feasible.
            wave = max(scan_waves(blanket.scan_scopes(), list(range(n))), key=len)
            codes = rng.integers(0, q, size=(200, n))
            serial = [
                [self._serial_weights(compiled, v, chain) for v in wave.tolist()]
                for chain in codes.tolist()
            ]
            keep = [all(total > 0.0 for _, total in row) for row in serial]
            if not any(keep):
                continue
            codes = codes[keep]
            serial = [row for row, kept in zip(serial, keep) if kept]
            points = self._edge_points(rng, (len(codes), len(wave)))
            expected = [
                [sample_code(w, p * t) for (w, t), p in zip(row, chain_points)]
                for row, chain_points in zip(serial, points.tolist())
            ]
            for tables in (blanket, gather):
                picked = tables.sample_columns(codes, wave, points, compiled)
                assert picked.shape == (len(codes), len(wave))
                assert picked.tolist() == expected
            checked += 1
        assert checked

    def test_torus_colouring_tables_stay_small(self):
        distribution = coloring_model(torus_graph(12, 12), num_colors=6)
        tables = distribution.compiled_engine().batched_tables
        assert tables.rows is not None
        assert tables.rows.nbytes < 512 * 1024

    def test_may_stick_flags_rows_that_total_zero(self):
        # On a degree-4 graph, 3 colours can all be taken by the neighbours.
        stuck = coloring_model(torus_graph(4, 4), num_colors=3).compiled_engine()
        assert stuck.batched_tables.may_stick
        roomy = coloring_model(torus_graph(4, 4), num_colors=6).compiled_engine()
        assert not roomy.batched_tables.may_stick
        # The gather form has no rows to check, so any step may stick.
        hub = coloring_model(star_graph(8), num_colors=6).compiled_engine()
        assert hub.batched_tables.rows is None and hub.batched_tables.may_stick

    @staticmethod
    def _stuck_colouring():
        instance = SamplingInstance(coloring_model(torus_graph(4, 4), num_colors=3))
        rng = np.random.default_rng(5)
        # An improper start in which some node sees all three colours.
        initial = {node: int(rng.integers(3)) for node in instance.free_nodes}
        return instance, initial

    @staticmethod
    def _stuck_message(node):
        return (
            f"node {node!r} has no feasible value given its neighbourhood; "
            "the single-site dynamics is not ergodic here"
        )

    def test_stuck_colouring_raises_the_step_by_step_error(self):
        from repro.runtime import Runtime

        instance, initial = self._stuck_colouring()
        # The nodes named before the wave schedule and the cumulative rows:
        # the scan kernels stop at the same step whatever the layout; the
        # batched Glauber names the first stuck step over all chains, the
        # serial loop the first stuck chain's, and the process pool (two
        # blocks of two chains) the first block's.
        expected = {
            ("jvv", "serial"): (0, 2),
            ("jvv", "batched"): (0, 2),
            ("jvv", "process"): (0, 2),
            ("sequential", "serial"): (0, 2),
            ("sequential", "batched"): (0, 2),
            ("sequential", "process"): (0, 2),
            ("glauber", "serial"): (2, 1),
            ("glauber", "batched"): (1, 0),
            ("glauber", "process"): (3, 0),
        }
        for (kernel, backend), node in expected.items():
            if backend == "process":
                # inline_threshold=0: the blocks go through the pool.
                runtime = Runtime(backend, n_chains=4, n_workers=2, inline_threshold=0)
            else:
                runtime = Runtime(backend, n_chains=4)
            with runtime, pytest.raises(ValueError) as raised:
                runtime.run_chains(kernel, instance, 40, seed=2, initial=initial)
            assert str(raised.value) == self._stuck_message(node), (kernel, backend)

    @pytest.mark.slow
    def test_stuck_colouring_reports_the_worker_error_on_the_cluster(self):
        import threading

        from repro.cluster.worker import ClusterWorker
        from repro.runtime import Runtime

        instance, initial = self._stuck_colouring()
        workers = [ClusterWorker() for _ in range(2)]
        for worker in workers:
            threading.Thread(target=worker.serve_forever, daemon=True).start()
        runtime = Runtime(
            "cluster", n_chains=4, addresses=[worker.address for worker in workers]
        )
        try:
            # The wire carries the worker's own exception: the same
            # ValueError, with the same message, as on the process backend.
            for kernel, node in (("jvv", (0, 2)), ("sequential", (0, 2)), ("glauber", (3, 0))):
                with pytest.raises(ValueError) as raised:
                    runtime.run_chains(kernel, instance, 40, seed=2, initial=initial)
                assert str(raised.value) == self._stuck_message(node), kernel
        finally:
            runtime.shutdown()
            for worker in workers:
                worker.close()

    def test_either_cap_keeps_the_whole_instance_on_the_gather(self, monkeypatch):
        from repro.runtime import chains

        # The hub of an 8-leaf star has 3**8 blanket rows: over the row cap.
        hub = coloring_model(star_graph(8), num_colors=3).compiled_engine()
        assert hub.batched_tables.rows is None
        small = coloring_model(path_graph(5), num_colors=3).compiled_engine()
        assert small.batched_tables.rows is not None
        monkeypatch.setattr(chains, "BLANKET_MAX_CELLS", 8)
        assert chains._BatchedTables(small).rows is None


class TestChainEquivalence:
    """Every registered chain kernel samples the exact target law."""

    def test_glauber_stays_feasible_and_respects_pinning(self):
        distribution = coloring_model(cycle_graph(6), num_colors=3)
        instance = SamplingInstance(distribution, {0: 1})
        state = glauber_sample(instance, steps=120, seed=3)
        assert distribution.weight(state) > 0.0
        assert state[0] == 1
        parallel = luby_glauber_sample(instance, rounds=40, seed=3)
        assert distribution.weight(parallel) > 0.0
        assert parallel[0] == 1

    # Units per chain: enough for each dynamics to mix on the 4-path
    # (the scan kernels make 10 sweeps of its 4 free nodes).
    @pytest.mark.parametrize(
        "kernel, count",
        [("glauber", 60), ("luby-glauber", 20), ("sequential", 40), ("jvv", 40)],
    )
    def test_compiled_glauber_matches_target_distribution(self, kernel, count):
        from repro.analysis import empirical_distribution, total_variation
        from repro.analysis.distances import configuration_key
        from repro.runtime import Runtime
        from repro.sampling import enumerate_target_distribution

        distribution = hardcore_model(path_graph(4), fugacity=1.0)
        instance = SamplingInstance(distribution)
        truth = enumerate_target_distribution(instance)
        chains = 4000
        # The bound is fixed by the support and sample sizes before any run:
        # 0.097 for 8 states and 4000 chains, well under the TV a biased
        # blanket table gives any kernel (see docs/TESTING.md).
        noise = 3.0 * (len(truth) / (4.0 * chains)) ** 0.5 + 0.03
        states = Runtime("batched", n_chains=chains).run_chains(kernel, instance, count)
        empirical = empirical_distribution([configuration_key(s) for s in states])
        assert total_variation(empirical, truth) < noise
