"""Locality primitives on simple undirected graphs.

The LOCAL model measures information by graph distance: a t-round algorithm
at node ``v`` sees exactly the radius-t ball ``B_t(v)``.  These helpers make
that notion concrete and are used by the simulator to *enforce* locality
(nodes are handed ball subgraphs, never the full graph).

All functions accept plain :class:`networkx.Graph` objects.  Node labels can
be any hashable value; the simulator assigns integer IDs separately via
:func:`node_ids`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Set

import networkx as nx

Node = Hashable


def distance(graph: nx.Graph, u: Node, v: Node) -> int:
    """Shortest-path distance between ``u`` and ``v``.

    Raises :class:`networkx.NetworkXNoPath` if the nodes are disconnected.
    """
    return nx.shortest_path_length(graph, u, v)


def distances_from(graph: nx.Graph, source: Node, radius: int | None = None) -> Dict[Node, int]:
    """All shortest-path distances from ``source``.

    If ``radius`` is given, the BFS is truncated at that radius, which keeps
    the cost proportional to the ball size rather than the graph size.  The
    BFS walks the graph's adjacency dicts directly (``graph._adj``, the
    dict-of-dicts networkx's own BFS reads: wrapping every row in the
    ``graph.adj`` view costs more than the search) and skips networkx's
    backend dispatch.  The result equals
    ``nx.single_source_shortest_path_length(graph, source, cutoff=radius)``
    item for item *and in order* (level by level, neighbours in adjacency
    order), which matters because :func:`power_graph` inserts its edges in
    this order and the seeded network decomposition reads that order.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be non-negative")
    if source not in graph:
        raise nx.NodeNotFound(f"Source {source} is not in G")
    adjacency = graph._adj
    lengths = {source: 0}
    frontier = [source]
    level = 0
    while frontier and (radius is None or level < radius):
        level += 1
        next_frontier = []
        for node in frontier:
            for neighbour in adjacency[node]:
                if neighbour not in lengths:
                    lengths[neighbour] = level
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return lengths


def ball(graph: nx.Graph, center: Node, radius: int) -> Set[Node]:
    """The set ``B_r(v)`` of nodes within distance ``radius`` of ``center``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return set(distances_from(graph, center, radius))


def sphere(graph: nx.Graph, center: Node, radius: int) -> Set[Node]:
    """Nodes at distance exactly ``radius`` from ``center``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    dists = distances_from(graph, center, radius)
    return {node for node, dist in dists.items() if dist == radius}


def ball_subgraph(graph: nx.Graph, center: Node, radius: int) -> nx.Graph:
    """The subgraph induced by ``B_r(center)``, as an independent copy.

    The copy is what a LOCAL algorithm running for ``radius`` rounds at
    ``center`` is allowed to inspect.
    """
    return graph.subgraph(ball(graph, center, radius)).copy()


def induced_subgraph(graph: nx.Graph, nodes: Iterable[Node]) -> nx.Graph:
    """Copy of the subgraph induced by ``nodes``."""
    return graph.subgraph(set(nodes)).copy()


def boundary(graph: nx.Graph, region: Iterable[Node]) -> Set[Node]:
    """External vertex boundary of ``region``.

    Returns the nodes outside ``region`` adjacent to at least one node inside
    it.  In Gibbs-distribution terms this is the separator through which the
    outside influences the inside (Proposition 2.1 in the paper).
    """
    region_set = set(region)
    result: Set[Node] = set()
    for node in region_set:
        for neighbor in graph.neighbors(node):
            if neighbor not in region_set:
                result.add(neighbor)
    return result


def power_graph(graph: nx.Graph, power: int) -> nx.Graph:
    """The graph power ``G^k``: an edge joins u, v whenever dist(u, v) <= k.

    Lemma 3.1 builds a network decomposition of ``G^{r+1}`` to schedule an
    SLOCAL algorithm of locality ``r``.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    result = nx.Graph()
    result.add_nodes_from(graph.nodes())
    for node in graph.nodes():
        for other, dist in distances_from(graph, node, power).items():
            if other != node and dist <= power:
                result.add_edge(node, other)
    return result


def diameter(graph: nx.Graph) -> int:
    """Diameter of a connected graph (0 for a single node)."""
    if graph.number_of_nodes() <= 1:
        return 0
    return nx.diameter(graph)


def node_ids(graph: nx.Graph) -> Dict[Node, int]:
    """Deterministic unique IDs for the nodes of ``graph``.

    The LOCAL model assumes each node holds a unique identifier.  We assign
    consecutive integers in sorted order of the node labels (falling back to
    the string representation when labels are not mutually comparable), so
    the assignment is reproducible across runs.
    """
    try:
        ordered = sorted(graph.nodes())
    except TypeError:
        ordered = sorted(graph.nodes(), key=repr)
    return {node: index for index, node in enumerate(ordered)}
