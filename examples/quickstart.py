"""Quickstart: distributed sampling and counting on the hardcore model.

This example walks through the three tasks the paper studies -- inference,
approximate sampling and exact sampling -- on a small hardcore (weighted
independent set) instance, using the high-level API.

Run with::

    python examples/quickstart.py
"""

from repro.analysis import total_variation
from repro.core import LocalSamplingProblem, estimate_partition_function
from repro.graphs import cycle_graph
from repro.inference import ExactInference
from repro.models import hardcore_model


def main() -> None:
    # A hardcore model on a 12-cycle with fugacity 0.8: every configuration
    # is an independent set, weighted by 0.8 per occupied node.  Degree-2
    # graphs are always in the uniqueness regime, so the paper's machinery
    # applies with polylogarithmic round complexity.
    graph = cycle_graph(12)
    model = hardcore_model(graph, fugacity=0.8)
    print(f"model: {model.name}, n = {model.size}, uniqueness = {model.metadata['uniqueness']}")

    # Pin node 0 to "occupied": instances carry a partial configuration tau,
    # which is what makes the problem self-reducible (Definition 2.2).
    problem = LocalSamplingProblem(model, pinning={0: 1}, seed=42)

    # --- Task 1: approximate inference (local counting) -------------------
    report = problem.infer(error=0.05)
    print(f"\ninference engine: {report.engine}, rounds: {report.rounds}")
    for node in (1, 3, 6):
        estimated = report.marginals[node][1]
        exact = problem.exact_marginal(node)[1]
        print(f"  P(node {node} occupied) ~ {estimated:.4f}   (exact {exact:.4f})")

    # --- Task 2: approximate sampling (Theorem 3.2) ------------------------
    sample = problem.sample(error=0.05)
    occupied = sorted(node for node, value in sample.configuration.items() if value == 1)
    print(f"\napproximate sample (rounds = {sample.rounds}): occupied set = {occupied}")

    # --- Task 3: exact sampling via the distributed JVV sampler (Thm 4.2) --
    exact_sample = problem.sample_exact()
    occupied = sorted(node for node, value in exact_sample.configuration.items() if value == 1)
    print(
        f"exact sample     (rounds = {exact_sample.rounds}, "
        f"accepted = {exact_sample.success}): occupied set = {occupied}"
    )

    # --- Bonus: global counting through the chain rule ---------------------
    counting = estimate_partition_function(problem.instance, ExactInference())
    exact_z = model.partition_function({0: 1})
    print(f"\nconditional partition function Z(tau): estimated {counting.estimate:.4f}, exact {exact_z:.4f}")

    # Sanity: the inference marginals are within the requested error.
    worst = max(
        total_variation(report.marginals[node], problem.exact_marginal(node))
        for node in problem.instance.free_nodes
    )
    print(f"worst marginal TV error: {worst:.4f} (requested 0.05)")

    # --- Bonus: the execution knob trio (engine / runtime / addresses) -----
    # `engine=` picks how one quantity is evaluated, `runtime=` picks which
    # backend executes, and -- for the cluster backend -- `addresses=` picks
    # which machines.  Here we rehearse a multi-machine deployment on one
    # host: two real worker subprocesses on loopback, reached over the same
    # TCP transport remote workers would use.  Every value is bit-identical
    # to the serial loop.
    from repro import cluster
    from repro.inference.ssm_inference import TruncatedBallInference
    from repro.runtime import Runtime

    engine = TruncatedBallInference(radius=2, engine="compiled")
    with cluster.local.spawn_workers(2) as pool:
        runtime = Runtime(backend="cluster", addresses=pool.addresses)
        with runtime:
            clustered = engine.marginals(problem.instance, error=0.05, runtime=runtime)
    serial = engine.marginals(problem.instance, error=0.05)
    print(
        f"\ncluster backend: 2 localhost workers at {pool.addresses}, "
        f"marginals identical to serial: {clustered == serial}"
    )


if __name__ == "__main__":
    main()
