"""Sampling-as-a-service: the coalescing HTTP/JSON serving layer.

The front end that turns the FengY18 reproduction from a library into a
system with users: named models (picklable
:class:`~repro.runtime.shards.InstanceSpec` snapshots) served over a
small asyncio HTTP/1.1 server, with concurrent sample requests
*coalesced* into shared chain batches -- one :meth:`Runtime.run_chains`
call per model, or one packed :meth:`Runtime.run_packed` step across
models -- bit-identical per request to a solo run, by the per-chain seed
contract (see :mod:`repro.serve.coalesce`).

Layout: :mod:`~repro.serve.registry` (named models),
:mod:`~repro.serve.coalesce` (the batching core),
:mod:`~repro.serve.http` (HTTP/1.1 framing),
:mod:`~repro.serve.server` (routes + lifecycle),
:mod:`~repro.serve.client` (test/benchmark client),
:mod:`~repro.serve.cli` (the ``repro-serve`` console script).
"""

from repro.serve.coalesce import (
    Backpressure,
    CoalescerClosed,
    RequestCoalescer,
)
from repro.serve.registry import (
    ModelEntry,
    ModelRegistry,
    RegistryError,
    UnknownModelError,
    build_instance,
    encode_state,
)
from repro.serve.server import SamplingServer

__all__ = [
    "Backpressure",
    "CoalescerClosed",
    "RequestCoalescer",
    "ModelEntry",
    "ModelRegistry",
    "RegistryError",
    "UnknownModelError",
    "build_instance",
    "encode_state",
    "SamplingServer",
]
