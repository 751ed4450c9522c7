"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The serving layer (:mod:`repro.serve.server`) needs exactly four things
from HTTP: parse a request head + body, write a JSON response, stream a
chunked body, and keep-alive.  This module provides them on top of
``asyncio.StreamReader``/``StreamWriter`` with no third-party dependency
-- the same "thin framing over a trusted transport" stance as the cluster
wire protocol (:mod:`repro.cluster.protocol`), with the same hard limits
on header and body size so a stray client cannot make the server buffer
an unbounded request.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Refuse request heads (request line + headers) above this size.
MAX_HEADER_BYTES = 64 * 1024
#: Refuse request bodies above this size (model specs and sample requests
#: are kilobytes; nothing legitimate approaches this).
MAX_BODY_BYTES = 16 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """An error with an HTTP status; rendered as a JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message


class Request:
    """One parsed HTTP request: method, split target, headers, raw body."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self):
        """The body decoded as JSON (``{}`` when empty); 400 on bad JSON."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}")
        except RecursionError:
            raise HttpError(400, "request body is nested too deeply")

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive semantics: persistent unless ``close``."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(reader: asyncio.StreamReader, first: bytes) -> Request:
    """Parse one request from the stream, whose first byte ``first`` was
    already read (a server reads it while the connection idles between
    requests, where the peer may also hang up cleanly).

    Raises
    ------
    HttpError
        On malformed request lines, oversized heads/bodies, or a body
        truncated by the peer mid-transfer.
    """
    try:
        head = first + await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        raise HttpError(400, "connection closed mid request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        body_bytes = int(length)
    except ValueError:
        raise HttpError(400, f"malformed Content-Length {length!r}")
    if body_bytes < 0 or body_bytes > MAX_BODY_BYTES:
        raise HttpError(413, f"request body of {body_bytes} bytes refused")
    body = b""
    if body_bytes:
        try:
            body = await reader.readexactly(body_bytes)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid request body")
    return Request(method, split.path, query, headers, body)


def _head(
    status: int, content_type: str, extra: Tuple[Tuple[str, str], ...]
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
    lines.extend(f"{name}: {value}" for name, value in extra)
    return ("\r\n".join(lines) + "\r\n").encode("latin-1")


def json_response(status: int, payload, keep_alive: bool = True) -> bytes:
    """Render a complete JSON response frame (headers + body).

    ``payload`` is any JSON-serialisable object, or ``bytes`` already
    holding the encoded JSON body.
    """
    if isinstance(payload, bytes):
        body = payload
    else:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    extra = (
        ("Content-Length", str(len(body))),
        ("Connection", "keep-alive" if keep_alive else "close"),
    )
    return _head(status, "application/json", extra) + b"\r\n" + body


async def start_chunked(
    writer: asyncio.StreamWriter,
    status: int = 200,
    content_type: str = "application/x-ndjson",
) -> None:
    """Write the head of a chunked (streaming) response."""
    extra = (("Transfer-Encoding", "chunked"), ("Connection", "keep-alive"))
    writer.write(_head(status, content_type, extra) + b"\r\n")
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Write one chunk of a chunked response body."""
    if not data:
        return  # a zero-length chunk would terminate the body
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def finish_chunked(writer: asyncio.StreamWriter) -> None:
    """Terminate a chunked response body."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()
