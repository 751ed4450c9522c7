"""Exact sampling of matchings (the monomer--dimer model).

The paper derives an O(sqrt(Delta) log^3 n)-round exact sampler for matchings
from the strong spatial mixing of the monomer--dimer model (Bayati et al.)
through the line-graph duality.  This example:

1. builds the matching model of a 3x3 grid,
2. runs the distributed JVV sampler to draw exact samples,
3. translates the line-graph configurations back to edge sets and verifies
   they are matchings,
4. compares the empirical edge-occupancy marginals with the exact ones,
5. draws a batch of LubyGlauber chains through the batched runtime (all
   chains advance as one ``(chains, n)`` code matrix; see
   :mod:`repro.runtime`) and summarises their mixing with split R-hat.

(The per-node cost of the correlation-decay engine grows with the number of
self-avoiding walks in the line graph, so for an interactive example we keep
the grid small; the degree-scaling experiment lives in
``benchmarks/bench_matching_rounds.py``.)

Run with::

    python examples/matching_sampler.py
"""

from collections import Counter

from repro.analysis import split_r_hat
from repro.core import LocalSamplingProblem
from repro.gibbs import SamplingInstance
from repro.graphs import grid_graph
from repro.models import matching_model
from repro.models.matching import configuration_to_matching, is_valid_matching
from repro.runtime import ChainBatch


def main() -> None:
    graph = grid_graph(3, 3)
    model = matching_model(graph, edge_weight=1.5)
    print(
        f"monomer-dimer model on a 3x3 grid: {graph.number_of_edges()} edges, "
        f"edge weight {model.metadata['edge_weight']}, "
        f"SSM decay rate {model.metadata['ssm_decay_rate']:.3f}"
    )

    problem = LocalSamplingProblem(model, seed=7)

    num_samples = 12
    edge_counts: Counter = Counter()
    sizes = []
    failures = 0
    for index in range(num_samples):
        result = problem.sample_exact(seed=100 + index)
        matching = configuration_to_matching(model, result.configuration)
        assert is_valid_matching(graph, matching), "sampler returned a non-matching!"
        if not result.success:
            failures += 1
        sizes.append(len(matching))
        edge_counts.update(matching)

    print(f"\ndrew {num_samples} samples ({failures} with local failures flagged)")
    print(f"matching sizes: min {min(sizes)}, mean {sum(sizes) / len(sizes):.2f}, max {max(sizes)}")

    print(
        "\nmost frequently matched edges (empirical over "
        f"{num_samples} samples -- expect noise -- vs exact marginal):"
    )
    inverse = {edge: node for node, edge in model.metadata["edge_of_node"].items()}
    for edge, count in edge_counts.most_common(5):
        line_node = inverse[edge]
        exact = problem.exact_marginal(line_node)[1]
        print(f"  {edge}: empirical {count / num_samples:.2f}, exact {exact:.2f}")

    report = problem.infer(error=0.05)
    print(f"\ninference rounds for 5% accuracy: {report.rounds}")
    print(f"approximate sampler rounds (incl. scheduling): {problem.sample(0.05).rounds}")

    # Batched multi-chain sampling: 32 independent LubyGlauber chains advance
    # as one (chains, n) code matrix on the compiled engine.  Each chain is
    # bit-identical to the serial chain under its spawned seed; the per-round
    # matching-size traces feed the split R-hat mixing diagnostic.
    instance = SamplingInstance(model)
    batch = ChainBatch(instance, n_chains=32, seed=11)
    traces = batch.advance(
        "luby-glauber", 40, statistic=lambda codes: codes.sum(axis=1)
    )
    matchings = [
        configuration_to_matching(model, configuration)
        for configuration in batch.configurations()
    ]
    assert all(is_valid_matching(graph, matching) for matching in matchings)
    sizes = [len(matching) for matching in matchings]
    print(
        f"\nbatched runtime: {batch.n_chains} LubyGlauber chains x 40 rounds, "
        f"matching sizes min {min(sizes)} / mean {sum(sizes) / len(sizes):.2f} / "
        f"max {max(sizes)}"
    )
    print(f"split R-hat of the size traces: {split_r_hat(traces):.3f} (mixed if < 1.1)")


if __name__ == "__main__":
    main()
