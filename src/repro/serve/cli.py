"""``repro-serve``: run the coalescing sampling server from the shell.

Mirrors the ``repro-cluster-worker`` CLI contract: the process prints one
``repro-serve listening on HOST:PORT`` banner to stdout (flushed) so a
parent that launched it with ``--port 0`` can discover the bound port,
then serves until SIGINT/SIGTERM, at which point it drains gracefully --
in-flight requests complete before the process exits.

Models come from repeated ``--model NAME=JSON`` flags (the declarative
payload of ``PUT /v1/models/<name>``), e.g.::

    repro-serve --port 0 --max-batch 8 \
        --model 'demo={"family": "hardcore", "graph": {"kind": "cycle", "n": 16}, "fugacity": 1.2}'

``--demo`` registers a small hardcore model under ``demo`` when no
``--model`` was given, so the server is probeable out of the box.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional

from repro.serve.registry import ModelRegistry, RegistryError
from repro.serve.server import SamplingServer

DEMO_MODEL = {
    "family": "hardcore",
    "graph": {"kind": "cycle", "n": 16},
    "fugacity": 1.2,
    "pinning": {"0": 1},
}


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Coalescing sampling-as-a-service server (repro.serve).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (see the banner)"
    )
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=0.0,
        help="coalescing window: a queued batch waits this long for "
        "co-travellers before it may run; with 0 (the default) a request "
        "runs at once on an idle model and waits only while a batch runs",
    )
    parser.add_argument("--max-queue", type=int, default=128)
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (requests may override)",
    )
    parser.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="NAME=JSON",
        help="register a model at startup (repeatable)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="register a demo hardcore model when no --model is given",
    )
    parser.add_argument(
        "--no-register",
        action="store_true",
        help="disable PUT /v1/models registration",
    )
    parser.add_argument(
        "--cross-model",
        action="store_true",
        help=(
            "serve every model from one shared coalescer, so concurrent "
            "requests for different models fold into one packed kernel step"
        ),
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable metrics + span tracing for the server's lifetime",
    )
    return parser.parse_args(argv)


def build_registry(specs: List[str], demo: bool) -> ModelRegistry:
    """A registry from ``NAME=JSON`` CLI specs (plus the optional demo)."""
    registry = ModelRegistry()
    for spec in specs:
        name, separator, payload = spec.partition("=")
        if not separator:
            raise RegistryError(
                f"--model expects NAME=JSON, got {spec!r}"
            )
        try:
            decoded = json.loads(payload)
        except json.JSONDecodeError as error:
            raise RegistryError(f"--model {name!r}: invalid JSON: {error}")
        registry.register_payload(name, decoded)
    if demo and not len(registry):
        registry.register_payload("demo", DEMO_MODEL)
    return registry


async def _serve(args: argparse.Namespace, registry: ModelRegistry) -> int:
    server = SamplingServer(
        registry,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        allow_register=not args.no_register,
        cross_model=args.cross_model,
    )
    host, port = await server.start()
    print(f"repro-serve listening on {host}:{port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix platforms
            pass
    await stop.wait()
    print("repro-serve draining", flush=True)
    await server.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        registry = build_registry(args.model, args.demo)
    except RegistryError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 2
    handle_owned = False
    if args.obs:
        from repro import obs

        if obs.active() is None:
            obs.enable(proc="serve")
            handle_owned = True
    try:
        return asyncio.run(_serve(args, registry))
    finally:
        if handle_owned:
            from repro import obs

            obs.disable()


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
