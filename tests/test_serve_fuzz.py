"""Seeded fuzz tests of the ``repro-serve`` JSON API.

``serve/server.py`` is the trust boundary of the serving layer: whatever
a client sends, the answer must be a 2xx or a 4xx, and it must arrive.
Seeded ``numpy.random`` generators (no new test dependency) build a few
hundred malformed requests and send each one over a real localhost socket
to one running :class:`~repro.serve.SamplingServer`, across its four
routes (``POST /v1/sample``, ``POST /v1/marginal``, ``GET``/``PUT
/v1/models`` and ``GET /v1/healthz``).  Malformed means:

* bodies that are not JSON objects: arrays, strings, numbers, ``null``,
  invalid UTF-8, truncated or deeply nested JSON;
* fields of the wrong JSON type;
* non-finite or overflowing numbers (``NaN``, ``Infinity``, ``1e400``,
  a 400-digit integer);
* unknown models, kernels and nodes, and invalid model names.

Out of scope, and deliberately *not* generated: well-formed requests
that are merely huge.  A ``count`` or ``n_chains`` of ``10**9`` is a
valid request today and runs unbounded, because the server has no
per-request work budget yet (a separate open item).  So the fuzzer keeps
every coercible ``count``, ``n_chains``, ``radius`` and graph size small.
It also never sends a well-formed ``deadline_ms`` (a bool or a numeric
string counts as one, since the server coerces them): a deadline that
expires answers 504 by design.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph, grid_graph
from repro.models import coloring_model, hardcore_model
from repro.serve import ModelRegistry, SamplingServer

#: Requests per seed; each gets its own connection.
CASES = 200

#: Seconds a single response may take before the case counts as a hang.
RESPONSE_TIMEOUT = 5.0

GARBAGE_STRINGS = ["", "abc", "hc ", "é☃", "-", "1,2,3", "null", "{}"]

#: Malformed in every numeric field: wrong types and non-finite numbers.
#: (``1e400`` parses to infinity; the 400-digit integer overflows floats.)
BAD_NUMBERS = [
    None,
    "abc",
    "",
    [],
    [3],
    {},
    {"n": 1},
    float("nan"),
    float("inf"),
    float("-inf"),
    "nan",
    "inf",
    "-inf",
    "1e400",
    -1,
    -(10**30),
]

#: JSON's non-finite numbers (``NaN``, ``Infinity``, ``-Infinity``) and
#: their string spellings: never a valid model parameter.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), "nan", "inf", "-inf"]

#: Malformed deadlines (never a value the server would coerce to a
#: positive finite number of milliseconds).
BAD_DEADLINES = [
    "abc",
    "",
    [],
    {},
    float("nan"),
    float("inf"),
    "nan",
    "inf",
    -1,
    0,
    10**400,
]


def _registry():
    registry = ModelRegistry()
    registry.register_instance(
        "hc", SamplingInstance(hardcore_model(cycle_graph(10), fugacity=1.2), {0: 1})
    )
    registry.register_instance(
        "grid", SamplingInstance(coloring_model(grid_graph(2, 3), 3), {(0, 0): 0})
    )
    return registry


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _non_object(rng: np.random.Generator):
    """A JSON value that is anything but an object."""
    return _pick(
        rng,
        [
            [],
            [{"model": "hc", "count": 1}],
            "hc",
            3,
            2.5,
            None,
            True,
            float("nan"),
            float("inf"),
        ],
    )


def _sample_body(rng: np.random.Generator):
    body = {
        "model": _pick(rng, ["hc", "grid", "fz-a"]),
        "kernel": _pick(rng, ["glauber", "luby-glauber"]),
        "count": int(rng.integers(1, 4)),
        "seed": int(rng.integers(0, 100)),
        "n_chains": int(rng.integers(1, 3)),
    }
    fields = {
        "model": lambda: _pick(rng, ["nope", 3, None, [], {"m": 1}] + GARBAGE_STRINGS),
        "kernel": lambda: _pick(rng, ["bogus", 7, None, [], {}] + GARBAGE_STRINGS),
        "count": lambda: _pick(rng, BAD_NUMBERS + [0]),
        "seed": lambda: _pick(rng, BAD_NUMBERS + [10**400]),
        "n_chains": lambda: _pick(rng, BAD_NUMBERS + [0]),
        "deadline_ms": lambda: _pick(rng, BAD_DEADLINES),
        "initial": lambda: _pick(
            rng,
            [
                [],
                "x",
                3,
                {"0": 1},
                {"99": 0, "0": 1},
                {str(node): [0] for node in range(10)},
                {str(node): "zz" for node in range(10)},
            ],
        ),
    }
    names = sorted(fields)
    for index in rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False):
        name = names[int(index)]
        body[name] = fields[name]()
    return body


def _marginal_body(rng: np.random.Generator):
    body = {"model": _pick(rng, ["hc", "grid", "fz-a"]), "radius": int(rng.integers(0, 2))}
    fields = {
        "model": lambda: _pick(rng, ["nope", 3, None, []] + GARBAGE_STRINGS),
        "radius": lambda: _pick(rng, BAD_NUMBERS),
        "deadline_ms": lambda: _pick(rng, BAD_DEADLINES),
        "nodes": lambda: _pick(
            rng,
            [
                "0",
                3,
                {},
                ["77"],
                [None],
                [[0, 0]],
                [{"a": 1}],
                ["0"],  # pinned, so not free
                ["nan", "inf"],
            ],
        ),
    }
    names = sorted(fields)
    for index in rng.choice(len(names), size=int(rng.integers(1, 3)), replace=False):
        name = names[int(index)]
        body[name] = fields[name]()
    return body


def _model_body(rng: np.random.Generator):
    body = {
        "family": _pick(rng, ["hardcore", "coloring", "ising", "two-spin", "matching"]),
        "graph": {"kind": _pick(rng, ["cycle", "path"]), "n": int(rng.integers(3, 7))},
        "fugacity": 1.1,
        "num_colors": 3,
        "beta": 0.5,
        "gamma": 1.5,
        "interaction": 0.3,
    }
    fields = {
        "family": lambda: _pick(rng, ["bogus", 3, None, []] + GARBAGE_STRINGS),
        "graph": lambda: _pick(
            rng,
            [
                None,
                [],
                "cycle",
                {"kind": "torus", "n": 4},
                {"kind": "cycle"},
                {"kind": "grid", "rows": 2},
                {"kind": "cycle", "n": _pick(rng, BAD_NUMBERS)},
                {"kind": "tree", "n": 5, "seed": _pick(rng, BAD_NUMBERS)},
            ],
        ),
        "fugacity": lambda: _pick(rng, BAD_NUMBERS),
        "num_colors": lambda: _pick(rng, BAD_NUMBERS + [0]),
        "beta": lambda: _pick(rng, BAD_NUMBERS),
        "gamma": lambda: _pick(rng, NON_FINITE),
        "interaction": lambda: _pick(rng, BAD_NUMBERS),
        "external_field": lambda: _pick(rng, NON_FINITE),
        "edge_weight": lambda: _pick(rng, NON_FINITE),
        "pinning": lambda: _pick(
            rng, [[], "0", {"99": 1}, {"0": 7}, {"0": [1]}, {"0": None}]
        ),
    }
    names = sorted(fields)
    for index in rng.choice(len(names), size=int(rng.integers(1, 3)), replace=False):
        name = names[int(index)]
        body[name] = fields[name]()
    return body


def _encode(rng: np.random.Generator, body) -> bytes:
    """``body`` as JSON bytes, sometimes corrupted past parsing."""
    data = json.dumps(body).encode("utf-8")
    roll = rng.random()
    if roll < 0.05:
        return data[: int(rng.integers(len(data)))] or b"{"
    if roll < 0.08:
        return b"\xff\xfe" + data
    if roll < 0.10:
        depth = int(rng.integers(2_000, 20_000))
        return b"[" * depth + b"]" * depth
    return data


def _case(rng: np.random.Generator):
    """One ``(method, path, body bytes)`` request."""
    route = int(rng.integers(5))
    if route == 0:
        body = _non_object(rng) if rng.random() < 0.2 else _sample_body(rng)
        return "POST", "/v1/sample", _encode(rng, body)
    if route == 1:
        body = _non_object(rng) if rng.random() < 0.2 else _marginal_body(rng)
        return "POST", "/v1/marginal", _encode(rng, body)
    if route == 2:
        name = _pick(rng, ["fz-a", "fz-b", "bad name", "x" * 80, "", "a/b"])
        body = _non_object(rng) if rng.random() < 0.2 else _model_body(rng)
        return "PUT", f"/v1/models/{name}", _encode(rng, body)
    path = "/v1/models" if route == 3 else "/v1/healthz"
    return "GET", path, _encode(rng, _non_object(rng))


async def _status(host: str, port: int, method: str, path: str, body: bytes) -> int:
    """Send one raw request and read the whole response; return its status."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        await reader.read()  # the rest, up to the server closing
        return int(status_line.split(b" ", 2)[1])
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@pytest.mark.parametrize("seed", [20, 21])
def test_malformed_requests_never_get_a_5xx_or_hang(seed):
    rng = np.random.default_rng(seed)
    cases = [_case(rng) for _ in range(CASES)]

    async def main():
        server = SamplingServer(_registry())
        host, port = await server.start()
        statuses = []
        try:
            for method, path, body in cases:
                try:
                    status = await asyncio.wait_for(
                        _status(host, port, method, path, body), RESPONSE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    status = None
                statuses.append(status)
        finally:
            await server.close()
        return statuses

    statuses = asyncio.run(main())
    bad = [
        (status, method, path, body[:200])
        for status, (method, path, body) in zip(statuses, cases)
        if status is None or not (200 <= status < 300 or 400 <= status < 500)
    ]
    assert not bad, bad
    # The generator reaches both outcomes: real rejections and real service.
    assert any(400 <= status < 500 for status in statuses)
    assert any(200 <= status < 300 for status in statuses)
