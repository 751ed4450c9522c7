"""Constraints (factors) of a Gibbs distribution.

A constraint ``(f, S)`` consists of a non-negative function ``f`` on the
configurations of its scope ``S`` (Definition 2.3).  A constraint is *soft*
when ``f`` is strictly positive and *hard* otherwise.  The locality of a
Gibbs distribution (Definition 2.4) is the maximum diameter of a scope in
the underlying graph, which for every model in this repository is a small
constant (1 for edge factors, 0 for vertex factors).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro import obs

Node = Hashable
Value = Hashable
Assignment = Mapping[Node, Value]

#: The dense tables of the whole process, weakly keyed on the factor
#: function: ``{function: {(alphabet, arity): read-only array}}``.  A
#: function's entry goes away with the function, so fresh models never
#: pin the tables of dropped ones.
_SHARED_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: The nested-list copies of those tables (see :meth:`Factor.code_table`),
#: keyed the same way: ``{function: {(alphabet, arity): nested list}}``.
_SHARED_CODE_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class Factor:
    """A weighted constraint ``(f, S)`` of a Gibbs distribution.

    Parameters
    ----------
    scope:
        The ordered tuple of nodes the constraint reads.  Order only matters
        for how ``function`` receives its arguments.
    function:
        A callable taking one value per scope node (in scope order) and
        returning a non-negative weight.  It must be a pure function of
        those values: :meth:`evaluate` caches each weight it returns, and
        factors sharing one callable share one dense table per alphabet
        and arity (see :meth:`dense_table`).
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = (
        "scope", "scope_set", "function", "name", "_table_cache", "_dense_cache", "_code_cache"
    )

    def __init__(
        self,
        scope: Sequence[Node],
        function: Callable[..., float],
        name: str = "factor",
    ) -> None:
        if len(scope) == 0:
            raise ValueError("a factor needs a non-empty scope")
        if len(set(scope)) != len(scope):
            raise ValueError("factor scope contains duplicate nodes")
        self.scope: Tuple[Node, ...] = tuple(scope)
        #: Frozen scope set, precomputed because containment tests against it
        #: sit inside every sampler and feasibility loop.
        self.scope_set = frozenset(self.scope)
        self.function = function
        self.name = name
        self._table_cache: Dict[Tuple[Value, ...], float] = {}
        self._dense_cache: Dict[Tuple[Value, ...], object] = {}
        # Made on the first code_table call: most factors never get one.
        self._code_cache: Optional[Dict[Tuple[Value, ...], list]] = None

    @classmethod
    def from_table(
        cls,
        scope: Sequence[Node],
        table: Mapping[Tuple[Value, ...], float],
        default: float = 0.0,
        name: str = "table-factor",
    ) -> "Factor":
        """Build a factor from an explicit weight table.

        Entries absent from ``table`` get weight ``default``.
        """
        frozen = dict(table)

        def lookup(*values: Value) -> float:
            return frozen.get(tuple(values), default)

        return cls(scope, lookup, name=name)

    @classmethod
    def from_dense(
        cls,
        scope: Sequence[Node],
        array,
        alphabet: Sequence[Value],
        name: str = "dense-factor",
    ) -> "Factor":
        """Build a factor around an already-materialised dense table.

        ``array[i, j, ...]`` is the weight of the scope nodes taking the
        symbols with codes ``i, j, ...`` of ``alphabet``.  The array itself
        is installed as the factor's dense table for ``alphabet``, so a
        compilation over that alphabet reuses it instead of re-evaluating
        every entry.
        """
        alphabet = tuple(alphabet)
        symbol_index = {value: code for code, value in enumerate(alphabet)}

        def lookup(*values: Value) -> float:
            return float(array[tuple(symbol_index[value] for value in values)])

        factor = cls(scope, lookup, name=name)
        factor._dense_cache[alphabet] = array
        return factor

    def evaluate(self, assignment: Assignment) -> float:
        """Weight of ``assignment`` restricted to this factor's scope.

        ``assignment`` must define a value for every scope node.
        """
        key = tuple(assignment[node] for node in self.scope)
        cached = self._table_cache.get(key)
        if cached is None:
            cached = float(self.function(*key))
            if cached < 0:
                raise ValueError(
                    f"factor {self.name!r} returned a negative weight {cached} on {key}"
                )
            self._table_cache[key] = cached
        return cached

    def evaluate_values(self, values: Sequence[Value]) -> float:
        """Weight of an explicit value tuple given in scope order."""
        return self.evaluate(dict(zip(self.scope, values)))

    def dense_table(self, alphabet: Sequence[Value]):
        """The factor as a dense NumPy array with one axis per scope node.

        Entry ``[i, j, ...]`` is the weight of assigning the scope nodes the
        alphabet symbols with codes ``i, j, ...``.  Factors built on one
        callable share one table per ``(alphabet, arity)`` across the
        process, so a fresh model whose vertex and edge factors each reuse
        one function materialises two tables, not one per factor.  A
        callable that cannot be weakly referenced gets a table of its own
        per factor.  Tables built from the callable are read-only; an array
        installed by :meth:`from_dense` is returned unchanged, as its
        caller left it.  Either way the table is cached on the factor, so
        every (ball-restricted) compilation referencing it reads the same
        array.
        """
        key = tuple(alphabet)
        cached = self._dense_cache.get(key)
        if cached is None:
            cached = self._dense_cache[key] = _shared_dense_table(self, key)
        return cached

    def code_table(self, alphabet: Sequence[Value]) -> list:
        """The dense table as nested Python lists, indexed by symbol code.

        ``code_table(alphabet)[i][j]...`` is entry ``[i, j, ...]`` of
        :meth:`dense_table` as a Python float.  That table is built through
        :meth:`evaluate_values`, so each entry is the float :meth:`evaluate`
        returns, and products and zero tests over code tables equal those
        over :meth:`evaluate`.  A nested-list lookup costs a fraction of an
        :meth:`evaluate` call or an ndarray tuple index, which is why the
        per-node hot paths (the local-JVV rejection pass, the Theorem 5.1
        boundary extension) weigh factors this way.  Built on first use;
        factors sharing a dense table share its code table.
        """
        key = tuple(alphabet)
        if self._code_cache is None:
            self._code_cache = {}
        cached = self._code_cache.get(key)
        if cached is None:
            cached = self._code_cache[key] = _shared_code_table(self, key)
        return cached

    def is_satisfied(self, assignment: Assignment) -> bool:
        """Whether the assignment has strictly positive weight under this factor."""
        return self.evaluate(assignment) > 0.0

    def is_hard(self, alphabet: Sequence[Value]) -> bool:
        """Whether the factor assigns weight zero to some configuration.

        This is an exhaustive check over ``|alphabet| ** len(scope)``
        configurations, so it is only meaningful for the constant-size scopes
        used throughout the paper.
        """
        import itertools

        for values in itertools.product(alphabet, repeat=len(self.scope)):
            if self.evaluate_values(values) == 0.0:
                return True
        return False

    def scope_diameter(self, graph: nx.Graph) -> int:
        """Diameter of the scope inside ``graph`` (Definition 2.4).

        One breadth-first search per scope node but the last, each stopping
        as soon as it has reached every later scope node, so the cost is the
        ball around the scope rather than the whole graph.
        """
        best = 0
        for i, u in enumerate(self.scope[:-1]):
            later = self.scope[i + 1:]
            lengths = _distances_until(graph, u, later)
            for v in later:
                if v not in lengths:
                    raise nx.NetworkXNoPath(f"scope nodes {u!r}, {v!r} are disconnected")
                best = max(best, lengths[v])
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Factor(name={self.name!r}, scope={self.scope!r})"


def _shared_dense_table(factor: Factor, alphabet: Tuple[Value, ...]):
    """The process-wide table of ``factor.function`` on ``alphabet``.

    Builds it from ``factor`` on a miss.  Two threads missing together may
    both build; ``setdefault`` keeps the first, so every factor still reads
    one array.
    """
    key = (alphabet, len(factor.scope))
    try:
        tables = _SHARED_TABLES.get(factor.function)
        if tables is None:
            tables = _SHARED_TABLES.setdefault(factor.function, {})
    except TypeError:
        tables = None
    table = None if tables is None else tables.get(key)
    handle = obs.active()
    if table is not None:
        if handle is not None:
            handle.metrics.counter("engine.dense_tables.shared").inc()
        return table
    from repro.engine.compiled import dense_table_from_callable

    table = dense_table_from_callable(factor, alphabet)
    table.setflags(write=False)
    if handle is not None:
        handle.metrics.counter("engine.dense_tables.built").inc()
    return table if tables is None else tables.setdefault(key, table)


def _shared_code_table(factor: Factor, alphabet: Tuple[Value, ...]) -> list:
    """The nested-list copy of ``factor``'s dense table on ``alphabet``.

    Shared through :data:`_SHARED_CODE_TABLES` when the dense table is the
    callable's shared one; an array installed by :meth:`Factor.from_dense`,
    or the table of a callable without weak references, gets its own copy.
    """
    dense = factor.dense_table(alphabet)
    key = (alphabet, len(factor.scope))
    try:
        shared = _SHARED_TABLES.get(factor.function)
    except TypeError:
        shared = None
    if shared is None or shared.get(key) is not dense:
        # ``float`` is what :meth:`Factor.evaluate` returns for any entry type.
        return np.asarray(dense, dtype=float).tolist()
    tables = _SHARED_CODE_TABLES.get(factor.function)
    if tables is None:
        tables = _SHARED_CODE_TABLES.setdefault(factor.function, {})
    table = tables.get(key)
    if table is None:
        table = tables.setdefault(key, dense.tolist())
    return table


class StrayCodeTable:
    """A code table for a factor that reads a node pinned outside the alphabet.

    Such a node has no symbol code.  Callers give it any code; this table
    indexes like :meth:`Factor.code_table`, puts the pinned value at that
    node's scope positions and the symbol of each code elsewhere, and
    weighs the full value tuple with :meth:`Factor.evaluate_values`.  The
    weight, or the exception the callable raises, is the one
    :meth:`Factor.evaluate` gives on the same assignment.
    """

    __slots__ = ("factor", "alphabet", "strays", "values")

    def __init__(self, factor: Factor, alphabet, strays: Mapping[Node, Value], values=()):
        self.factor = factor
        self.alphabet = alphabet
        self.strays = strays
        self.values = values

    def __getitem__(self, code: int):
        scope = self.factor.scope
        node = scope[len(self.values)]
        value = self.strays[node] if node in self.strays else self.alphabet[code]
        values = self.values + (value,)
        if len(values) == len(scope):
            return self.factor.evaluate_values(values)
        return StrayCodeTable(self.factor, self.alphabet, self.strays, values)


def code_tables(
    factors: Sequence[Factor], alphabet: Tuple[Value, ...], strays: Mapping[Node, Value]
) -> List[Tuple[object, Tuple[Node, ...]]]:
    """``(table, scope)`` pairs that weigh ``factors`` by symbol code.

    ``strays`` maps the nodes pinned to values outside ``alphabet`` to those
    values; a factor reading one gets a :class:`StrayCodeTable`, every other
    factor its shared :meth:`Factor.code_table`.  A factor's weight under a
    ``{node: code}`` assignment is then ``table[codes[scope[0]]][...]...``.
    """
    pairs = []
    for factor in factors:
        if strays and not factor.scope_set.isdisjoint(strays):
            table = StrayCodeTable(factor, alphabet, strays)
        else:
            table = factor.code_table(alphabet)
        pairs.append((table, factor.scope))
    return pairs


def _distances_until(
    graph: nx.Graph, source: Node, targets: Sequence[Node]
) -> Dict[Node, int]:
    """BFS distances from ``source``, stopping once every target is reached.

    Returns the distances of every node seen; a target missing from the
    result lies in another connected component.
    """
    if source not in graph:
        raise nx.NodeNotFound(f"Source {source} is not in G")
    lengths = {source: 0}
    remaining = set(targets)
    remaining.discard(source)
    frontier = [source]
    depth = 0
    adjacency = graph.adj
    while remaining and frontier:
        depth += 1
        next_frontier = []
        for node in frontier:
            for neighbour in adjacency[node]:
                if neighbour not in lengths:
                    lengths[neighbour] = depth
                    remaining.discard(neighbour)
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return lengths
