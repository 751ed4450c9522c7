"""Sampling-as-a-service: the asyncio HTTP/JSON front end.

``SamplingServer`` binds the pieces together: the model registry
(:mod:`repro.serve.registry`), the
:class:`~repro.serve.coalesce.RequestCoalescer` each model maps to (one
per model, or one shared by every model with ``cross_model=True``), each
with its own :class:`~repro.runtime.Runtime`, and the thin HTTP/1.1
framing of :mod:`repro.serve.http`.

Endpoints
---------

``POST /v1/sample``
    ``{"model", "kernel", "count", "seed", "n_chains", "initial"?,
    "deadline_ms"?}`` -> ``{"states": [...], "request_id", "batch_id",
    "batch_size", ...}``.  Concurrent requests served by one coalescer
    merge into shared batches: one ``run_chains`` call per model, or one
    packed ``run_packed`` step when a batch spans several models (only
    with ``cross_model=True``).  Either way every response is
    bit-identical to the same request served alone (see
    :mod:`repro.serve.coalesce`).
``POST /v1/marginal``
    ``{"model", "radius", "nodes"?, "deadline_ms"?}`` -> a chunked
    ndjson stream of ``{"node", "marginal"}`` lines, one per completed
    shard of :meth:`Runtime.stream_ball_marginals`.  Once the deadline
    passes the stream stops, its pending shards are cancelled, and it
    ends with an ``{"error": ...}`` line.  A client that hangs up stops
    the stream and cancels its pending shards the same way.
``GET /v1/models`` / ``PUT /v1/models/<name>``
    List / declaratively register models.
``GET /v1/healthz``
    Liveness plus the serving stats of each coalescer, keyed by its name
    (the model name, or ``"*"`` for the shared cross-model coalescer).

Error mapping: unknown model -> 404, malformed payloads -> 400,
queue-cap backpressure -> 429, per-request deadline -> 504 (the queued
work is cancelled), draining -> 503.
"""

from __future__ import annotations

import asyncio
import json
import math
import operator
import threading
import time
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs
from repro.runtime import Runtime
from repro.sampling.kernels import get_kernel
from repro.serve.coalesce import (
    Backpressure,
    CoalescerClosed,
    RequestCoalescer,
    new_request_id,
)
from repro.serve.http import (
    HttpError,
    Request,
    finish_chunked,
    json_response,
    read_request,
    start_chunked,
    write_chunk,
)
from repro.serve.registry import (
    ModelRegistry,
    RegistryError,
    StateEncoding,
    UnknownModelError,
    compact_json,
    jsonable_node,
    parse_node,
)


def encode_state(encoding: StateEncoding, state: Dict) -> str:
    """One configuration's JSON text, joined from its model's fragments.

    The text of ``registry.encode_state(encoding.order, state)`` (see
    :class:`~repro.serve.registry.StateEncoding`), with no list built.
    """
    cells = map(
        operator.add,
        encoding.prefixes,
        map(encoding.symbols.__getitem__, map(state.__getitem__, encoding.order)),
    )
    return "[" + ",".join(cells) + "]"


def sample_body(encoding: StateEncoding, head: Dict, states: Sequence[Dict]) -> bytes:
    """A ``/v1/sample`` body: the (non-empty) ``head`` fields, ``"nodes"``, ``"states"``.

    Byte-identical to the compact ``json.dumps`` of ``{**head, "nodes":
    [...], "states": [...]}``, but only the small ``head`` goes through
    ``json.dumps``: the model's node array is a prebuilt fragment and each
    state is joined by :func:`encode_state`.
    """
    states_text = ",".join([encode_state(encoding, state) for state in states])
    return (
        f'{compact_json(head)[:-1]},"nodes":{encoding.nodes},"states":[{states_text}]}}'
    ).encode("utf-8")


class SamplingServer:
    """The coalescing sampling server (one asyncio event loop).

    Parameters
    ----------
    registry : ModelRegistry, optional
        Models served at startup; an empty registry accepts ``PUT``
        registrations (unless ``allow_register=False``).
    host, port : str, int
        Bind address; port 0 picks a free port (read :attr:`address`).
    max_batch, max_wait_ms, max_queue
        Shape of each coalescer (see
        :class:`~repro.serve.coalesce.RequestCoalescer`).
    default_deadline_ms : float, optional
        Deadline applied to requests that do not carry their own
        ``deadline_ms``; ``None`` means no deadline.
    runtime_factory : callable, optional
        Builds each coalescer's runtime (default: ``Runtime("batched")``
        -- merged requests advance as one code matrix).  Batches with
        several groups (several models, or one model under several
        ``initial`` configurations) run in-process through
        :meth:`Runtime.run_packed`, whatever the runtime's backend.
    allow_register : bool
        Whether ``PUT /v1/models/<name>`` is accepted.
    cross_model : bool
        Map every model to one shared coalescer instead of one coalescer
        per model: concurrent requests for *different* registered models
        (same kernel and count) then fold into a single packed kernel
        step (:meth:`Runtime.run_packed`).  Responses stay bit-identical
        to solo runs either way.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 8,
        max_wait_ms: float = 0.0,
        max_queue: int = 128,
        default_deadline_ms: Optional[float] = None,
        runtime_factory=None,
        allow_register: bool = True,
        cross_model: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else ModelRegistry()
        self.host = host
        self.port = port
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.max_queue = int(max_queue)
        self.default_deadline = (
            None if default_deadline_ms is None else float(default_deadline_ms) / 1000.0
        )
        self.runtime_factory = runtime_factory or (lambda: Runtime("batched"))
        self.allow_register = bool(allow_register)
        #: Model name -> the coalescer serving it (created on first use).
        self._coalescers: Dict[str, RequestCoalescer] = {}
        #: Every coalescer this server created, drained on close.
        self._owned: List[RequestCoalescer] = []
        if cross_model:
            shared = self._new_coalescer("*")
            self._assign = lambda name: shared
        else:
            self._assign = self._new_coalescer
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        #: Writers of the connections idle between requests.
        self._idle: set = set()
        self._draining = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return self.host, self.port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, release.

        Requests already admitted (queued in a coalescer or mid-batch)
        complete and their responses are written; new requests during the
        drain are answered 503.  A kept-alive connection idle between
        requests is closed after one loop turn, unless its next request
        is already buffered by then; one whose request is being read or
        handled closes once its response is written.  Runtimes shut down
        last -- via the event-loop-safe :meth:`Runtime.shutdown` path.
        """
        self._draining = True
        # One loop turn first: a connection whose next request is already
        # in its reader's buffer has its read resumed by then, leaves the
        # idle set and is answered (503 for a sample).
        await asyncio.sleep(0)
        for writer in list(self._idle):
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for coalescer in self._owned:
            await coalescer.drain()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        for coalescer in self._owned:
            coalescer.runtime.unregister_snapshot_section("serve")
            coalescer.runtime.shutdown()
        self._owned.clear()
        self._coalescers.clear()

    def _new_coalescer(self, name: str) -> RequestCoalescer:
        coalescer = RequestCoalescer(
            name,
            self.runtime_factory(),
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            max_queue=self.max_queue,
        )
        # The serving layer contributes its block to the runtime's
        # snapshot, next to "obs" and "cluster".
        coalescer.runtime.register_snapshot_section("serve", coalescer.stats)
        self._owned.append(coalescer)
        return coalescer

    def _model(self, name: str):
        """``(entry, coalescer)`` of a registered model (404 if unknown)."""
        try:
            entry = self.registry.get(name)
        except UnknownModelError as error:
            raise HttpError(404, str(error))
        coalescer = self._coalescers.get(name)
        if coalescer is None:
            coalescer = self._coalescers[name] = self._assign(name)
        return entry, coalescer

    # -- connection handling -------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while not self._draining:
                # Idle until the next request's first byte arrives: only
                # here may a drain close the connection.
                self._idle.add(writer)
                try:
                    first = await reader.read(1)
                finally:
                    self._idle.discard(writer)
                if not first:
                    return
                try:
                    request = await read_request(reader, first)
                except HttpError as error:
                    writer.write(
                        json_response(
                            error.status,
                            {"error": error.message, "status": error.status},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                keep_alive = request.keep_alive and not self._draining
                try:
                    handled = await self._dispatch(request, writer, keep_alive)
                except HttpError as error:
                    self._count_rejection(error.status)
                    writer.write(
                        json_response(
                            error.status,
                            {"error": error.message, "status": error.status},
                            keep_alive=keep_alive,
                        )
                    )
                    await writer.drain()
                    handled = True
                except (ConnectionResetError, BrokenPipeError):
                    return
                except Exception as error:  # defensive: never kill the connection loop silently
                    writer.write(
                        json_response(
                            500,
                            {"error": f"{type(error).__name__}: {error}", "status": 500},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if not handled or not keep_alive:
                    return
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _count_rejection(status: int) -> None:
        handle = obs.active()
        if handle is not None and status == 504:
            handle.metrics.counter("serve.rejected.deadline").inc()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter("serve.requests").inc()
        method, path = request.method, request.path
        if method == "GET" and path == "/v1/healthz":
            payload = {
                "status": "draining" if self._draining else "ok",
                "models": self.registry.names(),
                "serving": {
                    coalescer.name: coalescer.stats() for coalescer in self._owned
                },
            }
            writer.write(json_response(200, payload, keep_alive))
            await writer.drain()
            return True
        if method == "GET" and path == "/v1/models":
            writer.write(
                json_response(200, {"models": self.registry.describe()}, keep_alive)
            )
            await writer.drain()
            return True
        if method == "PUT" and path.startswith("/v1/models/"):
            await self._handle_register(request, writer, keep_alive)
            return True
        if method == "POST" and path == "/v1/sample":
            await self._handle_sample(request, writer, keep_alive)
            return True
        if method == "POST" and path == "/v1/marginal":
            await self._handle_marginal(request, writer)
            return True
        raise HttpError(404, f"no route for {method} {path}")

    # -- routes --------------------------------------------------------
    async def _handle_register(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        if not self.allow_register:
            raise HttpError(405, "model registration is disabled on this server")
        if self._draining:
            raise HttpError(503, "server is draining")
        name = request.path[len("/v1/models/") :]
        try:
            entry = self.registry.register_payload(name, request.json())
        except RegistryError as error:
            raise HttpError(400, str(error))
        writer.write(json_response(200, {"registered": entry.describe()}, keep_alive))
        await writer.drain()

    @staticmethod
    def _payload(request: Request) -> Dict:
        """The request's JSON body, which must be an object (400 if not)."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    def _deadline(self, payload) -> Optional[float]:
        deadline_ms = payload.get("deadline_ms", None)
        if deadline_ms is None:
            return self.default_deadline
        try:
            deadline = float(deadline_ms) / 1000.0
        except (TypeError, ValueError, OverflowError):
            raise HttpError(400, f"malformed deadline_ms {deadline_ms!r}")
        if not math.isfinite(deadline):
            raise HttpError(400, "deadline_ms must be finite")
        if deadline <= 0:
            raise HttpError(400, "deadline_ms must be positive")
        return deadline

    @staticmethod
    def _initial(entry, raw) -> Dict:
        """A request's ``initial`` as a full configuration of the model (400 if not).

        Checked before admission: a malformed initial configuration fails
        its own request, never the batch it would have shared.
        """
        if not isinstance(raw, dict):
            raise HttpError(400, '"initial" must be an object of node -> value')
        initial = {parse_node(str(key)): value for key, value in raw.items()}
        nodes = entry.nodes
        known = set(nodes)
        missing = [node for node in nodes if node not in initial]
        unknown = [node for node in initial if node not in known]
        if missing or unknown:
            raise HttpError(
                400,
                f'"initial" must assign exactly the nodes of {entry.name!r}: '
                f"{len(missing)} missing (e.g. {missing[:3]!r}), "
                f"{len(unknown)} unknown (e.g. {unknown[:3]!r})",
            )
        symbols = set(entry.spec.alphabet)
        invalid = [
            [jsonable_node(node), value]
            for node, value in initial.items()
            if not isinstance(value, Hashable) or value not in symbols
        ]
        if invalid:
            raise HttpError(
                400,
                f'"initial" values outside the alphabet '
                f"{list(entry.spec.alphabet)!r} of {entry.name!r}: {invalid[:3]!r}",
            )
        return initial

    async def _handle_sample(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        if self._draining:
            raise HttpError(503, "server is draining")
        payload = self._payload(request)
        name = payload.get("model")
        if not isinstance(name, str):
            raise HttpError(400, 'sample request needs a string "model"')
        entry, coalescer = self._model(name)
        kernel = payload.get("kernel", "glauber")
        try:
            get_kernel(str(kernel))
        except ValueError as error:
            raise HttpError(400, str(error))
        try:
            count = int(payload.get("count", 0))
            seed = int(payload.get("seed", 0))
            n_chains = int(payload.get("n_chains", 1))
        except (TypeError, ValueError, OverflowError) as error:
            raise HttpError(400, f"malformed sample request: {error}")
        if count < 1:
            raise HttpError(400, '"count" must be a positive integer')
        if n_chains < 1:
            raise HttpError(400, '"n_chains" must be a positive integer')
        initial = None
        if payload.get("initial") is not None:
            initial = self._initial(entry, payload["initial"])
        deadline = self._deadline(payload)
        request_id = new_request_id()
        with obs.span(
            "serve.request",
            endpoint="sample",
            model=name,
            kernel=str(kernel),
            request_id=request_id,
        ):
            call = coalescer.sample(
                name,
                entry.instance,
                str(kernel),
                count,
                seed=seed,
                n_chains=n_chains,
                initial=initial,
                request_id=request_id,
            )
            try:
                if deadline is None:
                    states, batch_id, batch_size = await call
                else:
                    states, batch_id, batch_size = await asyncio.wait_for(
                        call, timeout=deadline
                    )
            except asyncio.TimeoutError:
                raise HttpError(
                    504,
                    f"deadline of {deadline * 1000.0:g} ms exceeded; "
                    "queued work cancelled",
                )
            except Backpressure as error:
                raise HttpError(429, str(error))
            except CoalescerClosed as error:
                raise HttpError(503, str(error))
            except ValueError as error:
                raise HttpError(400, str(error))
        head = {
            "model": name,
            "kernel": str(kernel),
            "count": count,
            "seed": seed,
            "n_chains": n_chains,
            "request_id": request_id,
            # batch_id/batch_size let a client observe coalescing from the
            # JSON responses alone (the CI smoke asserts on them).
            "batch_id": batch_id,
            "batch_size": batch_size,
        }
        body = sample_body(entry.encoding, head, states)
        writer.write(json_response(200, body, keep_alive))
        await writer.drain()

    async def _handle_marginal(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            raise HttpError(503, "server is draining")
        payload = self._payload(request)
        name = payload.get("model")
        if not isinstance(name, str):
            raise HttpError(400, 'marginal request needs a string "model"')
        entry, coalescer = self._model(name)
        try:
            radius = int(payload.get("radius", 0))
        except (TypeError, ValueError, OverflowError) as error:
            raise HttpError(400, f"malformed radius: {error}")
        if radius < 0:
            raise HttpError(400, '"radius" must be a non-negative integer')
        instance = entry.instance
        if payload.get("nodes") is None:
            nodes = list(instance.free_nodes)
        else:
            if not isinstance(payload["nodes"], list):
                raise HttpError(400, '"nodes" must be a list')
            free = set(instance.free_nodes)
            nodes = [parse_node(str(node)) for node in payload["nodes"]]
            unknown = [node for node in nodes if node not in free]
            if unknown:
                raise HttpError(400, f"nodes not free in {name!r}: {unknown!r}")
        deadline = self._deadline(payload)
        started = time.monotonic()
        request_id = new_request_id()
        handle = obs.active()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        _END = object()
        # Set once the handler has stopped reading the queue (the stream
        # ended, or the client went away).
        abandoned = threading.Event()

        def pump() -> None:
            stream = coalescer.runtime.stream_ball_marginals(instance, nodes, radius)
            try:
                for node, marginal in stream:
                    if abandoned.is_set():
                        return
                    if deadline is not None and time.monotonic() - started > deadline:
                        raise TimeoutError(
                            f"deadline of {deadline * 1000.0:g} ms exceeded; "
                            "pending shards cancelled"
                        )
                    loop.call_soon_threadsafe(queue.put_nowait, (node, marginal))
                loop.call_soon_threadsafe(queue.put_nowait, _END)
            except Exception as error:  # surfaced as the stream's last line
                loop.call_soon_threadsafe(queue.put_nowait, error)
            finally:
                stream.close()  # cancels the shards still pending

        with obs.span(
            "serve.request",
            endpoint="marginal",
            model=name,
            radius=radius,
            request_id=request_id,
        ):
            first = True
            # On the executor of the coalescer that runs this model's
            # samples, which runs no batch inline meanwhile: one thread
            # at a time per instance.
            future = coalescer.offload(pump)
            await start_chunked(writer)
            try:
                while True:
                    item = await queue.get()
                    if item is _END:
                        break
                    if isinstance(item, Exception):
                        if isinstance(item, TimeoutError):
                            self._count_rejection(504)
                        line = {"error": f"{type(item).__name__}: {item}"}
                        await write_chunk(
                            writer, json.dumps(line).encode("utf-8") + b"\n"
                        )
                        break
                    node, marginal = item
                    if first and handle is not None:
                        handle.metrics.histogram("serve.ttfr_seconds").observe(
                            time.monotonic() - started
                        )
                    first = False
                    line = {
                        "node": jsonable_node(node),
                        "marginal": sorted(marginal.items()),
                        "request_id": request_id,
                    }
                    await write_chunk(
                        writer, json.dumps(line).encode("utf-8") + b"\n"
                    )
            finally:
                abandoned.set()
                await future
            await finish_chunked(writer)
