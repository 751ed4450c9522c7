"""The serving model registry: named, picklable ``InstanceSpec`` entries.

A *model* is a conditioned :class:`~repro.gibbs.SamplingInstance` frozen
into the picklable :class:`~repro.runtime.shards.InstanceSpec` -- the same
snapshot the cluster ships to its workers.  Serving from the spec's
reconstruction (``spec.to_instance()``) rather than the original object
buys the registry the spec's bit-identity guarantee for free: the compiled
engine is installed directly from the shipped arrays, so every sample and
marginal computed for a registered model is bit-identical to the same
computation on the instance that was registered.

Models enter the registry either programmatically
(:meth:`ModelRegistry.register_instance`, used at server startup and by
tests) or as a declarative JSON payload (:meth:`ModelRegistry.register_payload`,
the body of ``PUT /v1/models/<name>``)::

    {"family": "hardcore", "graph": {"kind": "cycle", "n": 16},
     "fugacity": 1.2, "pinning": {"0": 1}}

Families map onto the model constructors of :mod:`repro.models`, graphs
onto the generators of :mod:`repro.graphs`.  Grid nodes are 2-tuples; in
JSON they are spelled ``"row,col"`` (pinning keys) and encoded as
``[row, col]`` pairs (states).

Each entry also carries its model's JSON fragments
(:class:`StateEncoding`), built once at registration, from which the
server joins every ``/v1/sample`` response body.
"""

from __future__ import annotations

import functools
import json
import math
import re
import threading
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.gibbs import SamplingInstance
from repro.runtime.shards import InstanceSpec

Node = Hashable
Value = Hashable

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class RegistryError(ValueError):
    """An invalid model name or declarative model payload (HTTP 400)."""


class UnknownModelError(KeyError):
    """A model name the registry does not hold (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0] if self.args else ""


def jsonable_node(node: Node):
    """A node as JSON: ints/strings pass through, tuples become lists."""
    if isinstance(node, tuple):
        return list(node)
    return node


def encode_state(nodes, state: Dict[Node, Value]) -> List:
    """One configuration as ``[[node, value], ...]`` in canonical node order.

    The canonical order is the spec's compiled node order, so two
    bit-identical configurations encode to identical JSON -- which is what
    lets clients assert bit-identity on the serialised responses alone.
    The server writes the same JSON text from a :class:`StateEncoding`
    without building these lists.
    """
    return [[jsonable_node(node), state[node]] for node in nodes]


#: Compact JSON text, as in every response body.
compact_json = functools.partial(json.dumps, separators=(",", ":"))


class StateEncoding:
    """A model's JSON fragments, built once per registered entry.

    ``nodes`` is the text of the model's ``"nodes"`` array, ``prefixes[j]``
    the text ``[<node j>,`` and ``symbols[value]`` the text of one alphabet
    value followed by ``]``.  Each is :func:`compact_json`'s own text for
    its part, so joining ``prefixes[j] + symbols[state[order[j]]]`` over
    ``j`` with commas yields exactly ``compact_json(encode_state(order,
    state))`` for any configuration over the alphabet.
    """

    __slots__ = ("order", "nodes", "prefixes", "symbols")

    def __init__(self, nodes, alphabet) -> None:
        self.order = tuple(nodes)
        self.nodes = compact_json([jsonable_node(node) for node in self.order])
        self.prefixes = tuple(
            "[" + compact_json(jsonable_node(node)) + "," for node in self.order
        )
        self.symbols = {value: compact_json(value) + "]" for value in alphabet}


def parse_node(key: str) -> Node:
    """A JSON pinning key back into a graph node.

    ``"3"`` is the integer node 3; ``"1,2"`` is the grid node ``(1, 2)``;
    anything else stays a string.
    """
    text = key.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
        try:
            return tuple(int(part) for part in parts)
        except ValueError:
            pass
    return text


def _build_graph(payload) -> object:
    from repro.graphs import (
        cycle_graph,
        grid_graph,
        path_graph,
        random_tree,
    )

    if not isinstance(payload, dict):
        raise RegistryError('"graph" must be an object like {"kind": "cycle", "n": 12}')
    kind = payload.get("kind")
    try:
        if kind == "cycle":
            return cycle_graph(int(payload["n"]))
        if kind == "path":
            return path_graph(int(payload["n"]))
        if kind == "grid":
            return grid_graph(int(payload["rows"]), int(payload["cols"]))
        if kind == "tree":
            return random_tree(int(payload["n"]), seed=int(payload.get("seed", 0)))
    except KeyError as error:
        raise RegistryError(f"graph kind {kind!r} is missing parameter {error}")
    except (TypeError, ValueError, OverflowError) as error:
        raise RegistryError(f"invalid graph parameters: {error}")
    raise RegistryError(
        f"unknown graph kind {kind!r}; expected cycle, path, grid or tree"
    )


def _build_distribution(family: str, graph, payload):
    from repro.models import (
        coloring_model,
        hardcore_model,
        ising_model,
        matching_model,
        two_spin_model,
    )

    def real(name: str, default: Optional[float] = None) -> float:
        # JSON admits NaN and +/-Infinity; a model built on one samples garbage.
        value = float(payload[name] if default is None else payload.get(name, default))
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        return value

    try:
        if family == "hardcore":
            return hardcore_model(graph, fugacity=real("fugacity", 1.0))
        if family == "coloring":
            return coloring_model(graph, num_colors=int(payload["num_colors"]))
        if family == "two-spin":
            return two_spin_model(
                graph,
                beta=real("beta"),
                gamma=real("gamma"),
                field=real("field", 1.0),
            )
        if family == "ising":
            return ising_model(
                graph,
                interaction=real("interaction"),
                external_field=real("external_field", 0.0),
            )
        if family == "matching":
            return matching_model(graph, edge_weight=real("edge_weight", 1.0))
    except KeyError as error:
        raise RegistryError(f"model family {family!r} is missing parameter {error}")
    except (TypeError, ValueError, OverflowError) as error:
        raise RegistryError(f"invalid model parameters: {error}")
    raise RegistryError(
        f"unknown model family {family!r}; expected hardcore, coloring, "
        "two-spin, ising or matching"
    )


def build_instance(payload) -> Tuple[SamplingInstance, Dict[str, object]]:
    """A declarative JSON model payload into a conditioned instance.

    Returns the instance plus the metadata dict echoed by ``GET
    /v1/models``.  Raises :class:`RegistryError` for anything malformed --
    including a pinning that is not feasible for the model.
    """
    if not isinstance(payload, dict):
        raise RegistryError("model payload must be a JSON object")
    family = payload.get("family")
    if not isinstance(family, str):
        raise RegistryError('model payload needs a string "family"')
    graph = _build_graph(payload.get("graph"))
    distribution = _build_distribution(family, graph, payload)
    pinning: Dict[Node, Value] = {}
    raw_pinning = payload.get("pinning", {})
    if not isinstance(raw_pinning, dict):
        raise RegistryError('"pinning" must be an object of node -> value')
    for key, value in raw_pinning.items():
        pinning[parse_node(str(key))] = value
    unknown = [node for node in pinning if node not in distribution.graph]
    if unknown:
        raise RegistryError(f"pinned nodes not in the graph: {unknown!r}")
    try:
        instance = SamplingInstance(distribution, pinning)
        feasible = SamplingInstance(distribution).is_feasible_extension(pinning)
    except Exception as error:
        raise RegistryError(f"invalid pinning for {family!r}: {error}")
    if not feasible:
        raise RegistryError(
            f"pinning {dict(pinning)!r} is not feasible for {family!r}"
        )
    meta = {
        "family": family,
        "graph": dict(payload.get("graph", {})),
        "params": {
            key: value
            for key, value in payload.items()
            if key not in ("family", "graph", "pinning")
        },
        "pinning": {str(key): value for key, value in raw_pinning.items()},
    }
    return instance, meta


class ModelEntry:
    """One registered model: name, spec, metadata, lazy reconstruction."""

    __slots__ = ("name", "spec", "meta", "encoding", "_instance", "_lock")

    def __init__(self, name: str, spec: InstanceSpec, meta: Optional[dict] = None) -> None:
        self.name = name
        self.spec = spec
        self.meta = dict(meta or {})
        #: The response fragments, in canonical (compiled) node order.
        self.encoding = StateEncoding(spec.nodes, spec.alphabet)
        self._instance: Optional[SamplingInstance] = None
        self._lock = threading.Lock()

    @property
    def instance(self) -> SamplingInstance:
        """The spec's reconstruction (memoised; bit-identical to the original)."""
        with self._lock:
            if self._instance is None:
                self._instance = self.spec.to_instance()
            return self._instance

    @property
    def nodes(self) -> List[Node]:
        """Canonical (compiled) node order; the response encoding order."""
        return list(self.spec.nodes)

    def describe(self) -> Dict[str, object]:
        """The ``GET /v1/models`` row for this entry."""
        return {
            "name": self.name,
            "nodes": len(self.spec.nodes),
            "alphabet": len(self.spec.alphabet),
            "meta": dict(self.meta),
        }


class ModelRegistry:
    """Named models the server is willing to sample from (thread-safe)."""

    def __init__(self) -> None:
        self._entries: Dict[str, ModelEntry] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _check_name(name: str) -> str:
        if not isinstance(name, str) or not _NAME_PATTERN.match(name):
            raise RegistryError(
                f"invalid model name {name!r}; use 1-64 characters from "
                "[A-Za-z0-9._-]"
            )
        return name

    def register_instance(
        self, name: str, instance: SamplingInstance, meta: Optional[dict] = None
    ) -> ModelEntry:
        """Register a live instance under ``name`` (snapshot to a spec)."""
        entry = ModelEntry(self._check_name(name), InstanceSpec.from_instance(instance), meta)
        with self._lock:
            self._entries[name] = entry
        return entry

    def register_payload(self, name: str, payload) -> ModelEntry:
        """Register a declarative JSON model payload under ``name``."""
        instance, meta = build_instance(payload)
        return self.register_instance(name, instance, meta)

    def get(self, name: str) -> ModelEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "none"
            raise UnknownModelError(f"unknown model {name!r}; registered: {known}")
        return entry

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> List[Dict[str, object]]:
        with self._lock:
            entries = sorted(self._entries.values(), key=lambda entry: entry.name)
        return [entry.describe() for entry in entries]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
