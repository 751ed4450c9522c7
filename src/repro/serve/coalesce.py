"""Cross-request coalescing: many concurrent sample requests, one chain batch.

The production-scale move of the serving layer (the adaptive batching
of Clipper, Crankshaw et al., NSDI 2017): concurrent ``POST /v1/sample``
requests are merged into a *single* chain execution per ``(kernel,
count)`` bucket, under one flush rule:

* a bucket is *ripe* once its window ``max_wait`` has passed since its
  first admission (at once with the default window of 0);
* a ripe bucket flushes at once when the coalescer has no batch in
  flight; otherwise it is held, and every ripe bucket flushes when the
  batches in flight have finished;
* a bucket holding ``max_batch`` requests flushes at once.

So a lone request on an idle coalescer runs with no timer, and requests
that arrive while a batch runs form the next batch.  With obs on, every
flush counts under its reason: ``serve.flush.idle`` (ripe on an idle
coalescer at admission), ``.window`` (its window ended on an idle
coalescer), ``.after_batch`` (held until the batches in flight
finished), ``.full`` or ``.drain``.

Every request carries its model ``(name, instance)``.  When a bucket
flushes, its live requests are grouped by ``(model, initial)`` and each
group's per-request seeds are concatenated.  A batch with one group is
one :meth:`Runtime.run_chains` call -- solo execution by definition; a
batch with several groups (different models, or one model under
different initial configurations) is one :meth:`Runtime.run_packed`
call, which advances every group inside a single packed code matrix
(:class:`~repro.runtime.chains.PackedBatch`) where the kernel and the
pack allow it, group by group otherwise.  ``run_packed`` runs in-process
whatever the runtime's backend, so only single-group batches reach a
``process`` or ``cluster`` runtime.  If the packed call fails, every
group is rerun alone, so a request only ever fails together with the
requests of its own group.

Bit-identity is free, not a trade-off.  The chain contract
(:func:`~repro.runtime.chains.chain_seed_sequences` + per-chain RNG
streams) makes chain ``c`` of any multi-chain execution depend only on
its own spawned ``SeedSequence`` -- never on how many other chains share
the code matrix, nor on which other groups share a packed step.  So the
coalescer spawns each request's per-chain seeds from *its own* root
seed and splits the resulting states back by offset: every response is
bit-identical to the same request served alone.

A coalescer owns its execution: one shared
:class:`~repro.runtime.Runtime` and one dedicated single-thread executor.
Every piece of executor work goes through :meth:`RequestCoalescer.offload`,
which counts it while it runs.  A batch runs *inline* on the event-loop
thread when nothing is in flight on the executor and its predicted CPU
time fits within ``sys.getswitchinterval()``; every other batch goes to
the executor.  The prediction is the ``time.thread_time()`` per ``count``
unit the last call of the same shape -- ``(kernel, models, chains)``, the
chain total of every request the call carries -- took on this coalescer,
times ``count``, so the first batch of each shape goes to the executor
and measures it.  The chain total is part of the shape, not a factor of
the prediction: at the serving sizes a call's cost grows far slower than
its chains (one chain or eight barely differ), and a batch of a chain
total never measured, however large, gets no prediction at all.  The rule
fits the GIL: the loop thread already waits up to one switch interval
whenever the executor holds the GIL, so a batch inside that interval
blocks the loop no longer than the executor does, without the hop and the
GIL hand-off.  A distributed runtime waits on its workers, which no
thread's CPU time shows, so its batches always go to the executor.  Either way, every instance a coalescer serves is
touched by one thread at a time.  With obs on, every batch counts once
under ``serve.dispatch.inline`` or ``serve.dispatch.executor``.  The
server runs one coalescer per model by default, and one shared coalescer
for every model with ``SamplingServer(cross_model=True)``.

Backpressure and deadlines live here too: admitting a request beyond
``max_queue`` outstanding raises :class:`Backpressure` (HTTP 429), and a
caller that abandons its request (``asyncio.wait_for`` timeout -> HTTP
504) is removed from its queued bucket -- a bucket whose every request
was abandoned is dropped without running at all.
"""

from __future__ import annotations

import asyncio
import functools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs
from repro.gibbs import SamplingInstance
from repro.runtime import Runtime
from repro.runtime.chains import as_seed_list, chain_seed_sequences

Node = Hashable
Value = Hashable

#: Boundaries of the ``serve.batch_size`` histogram (requests per batch).
_BATCH_SIZE_BUCKETS = tuple(2**i for i in range(9))


class Backpressure(RuntimeError):
    """The coalescer's outstanding-request cap was hit (HTTP 429)."""


class CoalescerClosed(RuntimeError):
    """The coalescer is draining; no new requests are admitted (HTTP 503)."""


def new_request_id() -> str:
    """A fresh request id (never touches numpy RNG state)."""
    return os.urandom(8).hex()


class _Pending:
    """One admitted request waiting for its slice of a batch."""

    __slots__ = (
        "request_id",
        "model",
        "instance",
        "initial",
        "group",
        "seeds",
        "future",
        "admitted",
        "settled",
    )

    def __init__(
        self,
        request_id: str,
        model: str,
        instance: SamplingInstance,
        initial: Optional[Dict[Node, Value]],
        seeds: Sequence,
        future: asyncio.Future,
    ) -> None:
        self.request_id = request_id
        self.model = model
        self.instance = instance
        self.initial = initial
        # Requests with equal groups share one chain execution.  The
        # instance is keyed by identity: a re-registered model is a new
        # instance under the same name.
        self.group = (
            model,
            id(instance),
            None if initial is None else frozenset(initial.items()),
        )
        # Kept as given: a lazy SpawnedSeeds builds no child SeedSequence
        # on the loop thread.
        self.seeds = as_seed_list(seeds)
        self.future = future
        self.admitted = time.monotonic()
        self.settled = False


class _Bucket:
    """Requests merged into one batch: same kernel and count."""

    __slots__ = ("key", "requests", "timer", "ripe")

    def __init__(self, key: Tuple) -> None:
        self.key = key
        self.requests: List[_Pending] = []
        self.timer: Optional[asyncio.TimerHandle] = None
        #: Whether the bucket's window has passed: it flushes as soon as
        #: no batch is in flight.
        self.ripe = False


class RequestCoalescer:
    """Request coalescer over one shared runtime and one executor thread.

    Parameters
    ----------
    name : str
        Label of the models this coalescer serves (metric labels, span
        attributes, the executor thread name): the model name for a
        per-model coalescer.
    runtime : Runtime
        The shared execution policy for merged batches (typically
        ``Runtime("batched")``).  Batches with several groups run
        in-process through :meth:`Runtime.run_packed`, whatever the
        runtime's backend.
    max_batch : int
        Requests merged per batch; the ``max_batch``-th admission flushes
        immediately.
    max_wait : float
        Seconds a partially filled bucket waits for co-travellers before
        it is ripe.  The default 0 makes every bucket ripe at once: it
        waits only while a batch is in flight.
    max_queue : int
        Outstanding-request cap across queued and in-flight batches;
        admissions beyond it raise :class:`Backpressure`.
    """

    def __init__(
        self,
        name: str,
        runtime: Runtime,
        max_batch: int = 8,
        max_wait: float = 0.0,
        max_queue: int = 128,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.name = name
        self.runtime = runtime
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_queue = int(max_queue)
        self._open: Dict[Tuple, _Bucket] = {}
        self._inflight: set = set()
        # Batches dispatched and not yet answered; ripe buckets are held
        # while it is non-zero.
        self._running = 0
        self._outstanding = 0
        self._closing = False
        # One executor thread per coalescer, and no batch inline while it
        # has work in flight: the instances it serves (and their ball
        # caches) are touched by one thread at a time, and the loop blocks
        # on a batch only as long as the GIL would make it wait anyway.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"serve-{name}"
        )
        # Calls submitted to the executor (concurrent futures), see
        # _in_flight.
        self._offloaded: list = []
        # (kernel, models, chains) -> CPU seconds per count unit of the
        # last call of that shape.
        self._unit_cost: Dict[Tuple, float] = {}
        # A distributed runtime waits on its workers, which no thread's
        # CPU time shows: its batches always go to the executor.
        self._may_inline = not getattr(runtime, "is_distributed", False)
        self._batches = 0
        self._served_by_model: Dict[str, int] = {}

    # -- accounting ----------------------------------------------------
    def offload(self, call) -> asyncio.Future:
        """Run ``call()`` on the executor thread; an awaitable of its result.

        All executor work goes through here -- the batches that do not run
        inline and the server's marginal streams -- so no batch runs inline
        while any of it is unfinished.
        """
        work = self._executor.submit(call)
        self._in_flight().append(work)
        return asyncio.wrap_future(work)

    def _in_flight(self) -> list:
        """The executor's unfinished calls (finished ones are dropped)."""
        self._offloaded = [work for work in self._offloaded if not work.done()]
        return self._offloaded

    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet answered (the queue depth)."""
        return self._outstanding

    @property
    def batches(self) -> int:
        """Batches dispatched so far."""
        return self._batches

    def stats(self) -> Dict[str, object]:
        """The serving block this coalescer contributes to ``Runtime.snapshot()``."""
        return {
            "model": self.name,
            "outstanding": self._outstanding,
            "batches": self._batches,
            "served": sum(self._served_by_model.values()),
            "served_by_model": dict(sorted(self._served_by_model.items())),
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait * 1000.0,
            "max_queue": self.max_queue,
            "draining": self._closing,
        }

    def _gauge(self) -> None:
        handle = obs.active()
        if handle is not None:
            handle.metrics.gauge("serve.queue_depth").set(self._outstanding)

    def _settle(self, pending: _Pending) -> None:
        if not pending.settled:
            pending.settled = True
            self._outstanding -= 1
            self._gauge()

    # -- admission -----------------------------------------------------
    async def sample(
        self,
        model: str,
        instance: SamplingInstance,
        kernel: str,
        count: int,
        seed=0,
        n_chains: int = 1,
        initial: Optional[Dict[Node, Value]] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[List[Dict[Node, Value]], str, int]:
        """Admit one sample request; resolves to ``(states, batch_id, batch_size)``.

        ``states`` is bit-identical to ``Runtime.run_chains(kernel,
        instance, count, seeds=chain_seed_sequences(seed, n_chains))``
        served alone -- regardless of which other requests, for this or
        another model, share the batch.  ``batch_id``/``batch_size``
        identify the coalesced batch the request rode in, so clients can
        observe coalescing from responses alone.
        """
        if self._closing:
            raise CoalescerClosed(f"coalescer {self.name!r} is draining")
        if self._outstanding >= self.max_queue:
            handle = obs.active()
            if handle is not None:
                handle.metrics.counter("serve.rejected.backpressure").inc()
            raise Backpressure(
                f"coalescer {self.name!r} has {self._outstanding} outstanding "
                f"requests (cap {self.max_queue})"
            )
        if count < 1:
            raise ValueError("count must be at least 1")
        if n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request_id or new_request_id(),
            model,
            instance,
            initial,
            chain_seed_sequences(seed, n_chains),
            loop.create_future(),
        )
        self._outstanding += 1
        self._gauge()
        key = (str(kernel), int(count))
        bucket = self._open.get(key)
        if bucket is None:
            bucket = self._open[key] = _Bucket(key)
            if self.max_wait > 0:
                bucket.timer = loop.call_later(
                    self.max_wait, functools.partial(self._ripen, bucket)
                )
            else:
                bucket.ripe = True
        bucket.requests.append(pending)
        if len(bucket.requests) >= self.max_batch:
            self._flush(key, "full")
        elif bucket.ripe and not self._running:
            self._flush(key, "idle")
        try:
            return await pending.future
        except asyncio.CancelledError:
            # The caller gave up (deadline): take the request back out of
            # its queued bucket so abandoned work is never executed.
            self._discard(key, pending)
            raise

    def _discard(self, key: Tuple, pending: _Pending) -> None:
        self._settle(pending)
        bucket = self._open.get(key)
        if bucket is None:
            return
        bucket.requests = [
            request for request in bucket.requests if request is not pending
        ]
        if not bucket.requests:
            if bucket.timer is not None:
                bucket.timer.cancel()
            del self._open[key]

    # -- flushing ------------------------------------------------------
    def _ripen(self, bucket: _Bucket) -> None:
        """The bucket's window has passed: flush it now, or once idle."""
        if self._open.get(bucket.key) is not bucket:
            return
        bucket.timer = None
        bucket.ripe = True
        if not self._running:
            self._flush(bucket.key, "window")

    def _flush(self, key: Tuple, reason: str) -> None:
        """Close a bucket and dispatch it as one batch (sync, loop thread).

        ``reason`` names the ``serve.flush.<reason>`` counter it counts
        under (with obs on).
        """
        bucket = self._open.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        live = [
            request
            for request in bucket.requests
            if not request.future.cancelled() and not request.settled
        ]
        if not live:
            return
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter(f"serve.flush.{reason}").inc()
        self._running += 1
        task = asyncio.get_running_loop().create_task(self._run_batch(key, live))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, key: Tuple, requests: List[_Pending]) -> None:
        try:
            await self._serve_batch(key, requests)
        finally:
            self._running -= 1
            if not self._running:
                # Every bucket that ripened while batches ran goes now.
                ripe = [held for held, bucket in self._open.items() if bucket.ripe]
                for held in ripe:
                    self._flush(held, "after_batch")

    async def _serve_batch(self, key: Tuple, requests: List[_Pending]) -> None:
        kernel, count = key
        groups: Dict[Tuple, List[_Pending]] = {}
        for request in requests:
            groups.setdefault(request.group, []).append(request)
        members = list(groups.values())
        group_seeds = [
            member[0].seeds
            if len(member) == 1
            else [seed for request in member for seed in request.seeds]
            for member in members
        ]
        self._batches += 1
        batch_id = new_request_id()
        models = sorted({request.model for request in requests})
        chains = sum(len(seeds) for seeds in group_seeds)
        inline = self._inline((kernel, tuple(models), chains), count)
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter("serve.batches").inc()
            handle.metrics.counter("serve.coalesced_requests").inc(len(requests))
            handle.metrics.histogram("serve.batch_size", _BATCH_SIZE_BUCKETS).observe(
                len(requests)
            )
        # One span per coalesced batch, carrying every request id it
        # serves -- the stitch between per-request traces and the single
        # chain execution.
        with obs.span(
            "serve.batch",
            model=",".join(models),
            kernel=kernel,
            count=count,
            batch_id=batch_id,
            requests=",".join(request.request_id for request in requests),
            size=len(requests),
            groups=len(members),
            chains=chains,
        ):
            if len(members) == 1:
                outcomes = [
                    await self._run_group(inline, kernel, count, members[0], group_seeds[0])
                ]
            else:
                if handle is not None:
                    handle.metrics.counter("serve.packed_batches").inc()
                call = functools.partial(
                    self.runtime.run_packed,
                    kernel,
                    [
                        (member[0].instance, seeds, member[0].initial)
                        for member, seeds in zip(members, group_seeds)
                    ],
                    count,
                )
                try:
                    outcomes = await self._execute(
                        inline, (kernel, tuple(models), chains), count, call
                    )
                except Exception:
                    # One group's failure (say, an initial configuration
                    # the kernel cannot move from) must not fail the
                    # others: rerun every group alone, so a request only
                    # ever fails with the requests of its own group.  The
                    # reruns follow the batch's decision: together they
                    # carry the batch's chains.
                    outcomes = [
                        await self._run_group(inline, kernel, count, member, seeds)
                        for member, seeds in zip(members, group_seeds)
                    ]
        now = time.monotonic()
        for member, states in zip(members, outcomes):
            if isinstance(states, Exception):
                for request in member:
                    if not request.future.done():
                        request.future.set_exception(states)
                    self._settle(request)
                continue
            offset = 0
            for request in member:
                slice_ = states[offset : offset + len(request.seeds)]
                offset += len(request.seeds)
                if not request.future.done():
                    request.future.set_result((slice_, batch_id, len(requests)))
                    self._served_by_model[request.model] = (
                        self._served_by_model.get(request.model, 0) + 1
                    )
                    if handle is not None:
                        handle.metrics.histogram("serve.ttfr_seconds").observe(
                            now - request.admitted
                        )
                self._settle(request)

    async def _run_group(self, inline, kernel, count, member, seeds):
        """One group alone -- one ``run_chains`` call; its states or its error."""
        first = member[0]
        call = functools.partial(
            self.runtime.run_chains, kernel, first.instance, count, seeds=seeds
        )
        if first.initial is not None:
            call = functools.partial(call, initial=first.initial)
        try:
            return await self._execute(
                inline, (kernel, (first.model,), len(seeds)), count, call
            )
        except Exception as error:
            return error

    def _inline(self, shape: Tuple, count: int) -> bool:
        """Whether a batch of ``shape`` runs inline (see the module notes).

        Decided once per batch, and counted under ``serve.dispatch.*``
        with obs on.
        """
        cost = self._unit_cost.get(shape)
        inline = (
            self._may_inline
            and not self._in_flight()
            and cost is not None
            and cost * count <= sys.getswitchinterval()
        )
        handle = obs.active()
        if handle is not None:
            where = "inline" if inline else "executor"
            handle.metrics.counter(f"serve.dispatch.{where}").inc()
        return inline

    async def _execute(self, inline: bool, shape: Tuple, count: int, call):
        """``call()`` on the loop thread or the executor, its CPU time kept per unit."""

        def measured():
            start = time.thread_time()
            result = call()
            self._unit_cost[shape] = (time.thread_time() - start) / count
            return result

        return measured() if inline else await self.offload(measured)

    # -- lifecycle -----------------------------------------------------
    async def drain(self) -> None:
        """Flush every queued bucket and wait for in-flight batches.

        Admissions after this point raise :class:`CoalescerClosed`;
        requests already admitted complete normally (graceful drain).
        """
        self._closing = True
        for key in list(self._open):
            self._flush(key, "drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)
