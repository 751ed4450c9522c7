"""Framed length-prefixed pickle messages: the cluster wire protocol.

Every message on a coordinator <-> worker connection is one *frame*::

    +-------+------+----------------+---------------------+-----------+
    | magic | type | payload length | pickled payload ... | HMAC tag  |
    | 4 B   | 1 B  | 8 B big-endian | `payload length` B  | 0 or 32 B |
    +-------+------+----------------+---------------------+-----------+

The fixed header makes the stream self-describing and cheap to validate:
a frame whose magic bytes, message type or length field is wrong raises
:class:`ProtocolError` *before* any payload bytes are unpickled, so a
stray client speaking the wrong protocol (or a corrupted stream) is
rejected instead of interpreted.  Length limits are enforced *per message
kind* on both sides (see :func:`frame_limit`): control frames (HELLO,
HEARTBEAT, ERROR) are capped at :data:`MAX_CONTROL_FRAME_BYTES`, data
frames (SPEC, TASK, RESULT) at :data:`MAX_FRAME_BYTES`, and an oversize
length field is rejected on the header alone -- no payload byte is read,
buffered or unpickled.  A clean EOF raises the :class:`ConnectionClosed`
subclass, which the coordinator treats as worker death and the worker
treats as the coordinator hanging up.

Authenticated frames
--------------------

With a shared secret (``auth_key=`` on the coordinator/worker, or the
:data:`AUTH_KEY_ENV` environment variable) every frame is *authenticated*:
the magic switches to :data:`MAGIC_AUTH` and a 32-byte HMAC-SHA256 tag
over ``header || payload`` follows the payload.  The receiver verifies the
tag with a constant-time compare **before unpickling a single payload
byte**, so a peer without the key -- or an on-path tamperer flipping bits
-- produces :class:`AuthenticationError`, never an unpickle of attacker
bytes.  The two magics keep the stream self-describing in both
directions:

* an *unauthenticated* frame arriving at a keyed receiver is rejected on
  the header (and answered with a plaintext ``ERROR`` the keyless peer
  can actually read, instead of leaving it hanging);
* an *authenticated* frame arriving at a keyless receiver is likewise a
  header-level :class:`AuthenticationError`;
* a keyed receiver that sees a plaintext ``ERROR`` frame (the handshake
  rejection of a keyless peer) reports the mismatch *without unpickling
  the untrusted payload*.

The HELLO payloads additionally carry an ``"auth"`` flag, so a mismatch
that somehow survives the frame layer still fails the handshake.  HMAC
authenticates peers and frame integrity; the payloads remain pickled, so
the key must be a *shared secret among mutually trusting hosts* -- anyone
holding it can execute code on the workers.  Without a key the transport
trusts its network exactly like ``multiprocessing`` pipes do: only bind
workers on networks you trust.

Message types
-------------

``HELLO``
    Handshake, both directions.  The coordinator speaks first; payloads
    carry ``{"role", "version", "pid", "auth"}`` (workers add
    ``"capacity"``, their relative dispatch weight) and a version or auth
    mismatch is a :class:`ProtocolError`.
``SPEC``
    Coordinator -> worker: ``(spec_id, spec)``, a pickled
    ``InstanceSpec``.  Sent once per spec id per connection, and again
    only once the worker's FIFO spec cache has evicted it; later ``TASK``
    frames reference the id.
``TASK``
    Coordinator -> worker: ``(task_id, kind, args)``.  Task kinds are the
    registered bodies of :mod:`repro.runtime.shards` plus ``ping`` and
    ``cancel``; see :mod:`repro.cluster.worker`.
``RESULT``
    Worker -> coordinator: ``(task_id, result, events)``, where
    ``events`` carries the worker's trace events for a task that shipped
    a trace context and is ``None`` otherwise.
``HEARTBEAT``
    Coordinator -> worker, echoed back verbatim.  The coordinator uses
    the echo (or any other traffic) as liveness; a silent worker past the
    heartbeat timeout is declared dead and its tasks are requeued.
``ERROR``
    Worker -> coordinator: ``(task_id, error)`` for a failed task (its
    exception, or its text when it does not pickle), or ``(None,
    message)`` for a connection-level protocol failure.

The payloads are pickled (protocol :data:`pickle.HIGHEST_PROTOCOL`); the
same frames run over TCP between hosts and over the socket pairs of the
process backend's forked workers.

Fault injection
---------------

:func:`send_message` accepts a ``faults=`` hook (a
:class:`repro.cluster.chaos.FaultPlan`) consulted once per outgoing frame:
the plan can *drop* the frame, *delay* it, *corrupt* a deterministic bit
of its magic or payload, or *truncate* it mid-payload and tear the
connection down.  The hook sits below the worker/coordinator logic, so
chaos tests exercise exactly the code paths a flaky network would.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import logging
import os
import pickle
import socket
import struct
import time
from typing import Optional, Tuple

from repro import obs

_log = obs.get_logger("cluster.protocol")

#: Frame magic: rejects peers that are not speaking this protocol.
MAGIC = b"RCW1"
#: Magic of *authenticated* frames (a 32-byte HMAC tag follows the payload).
MAGIC_AUTH = b"RCA1"
#: Bumped on incompatible wire changes; checked during the HELLO handshake.
#: Version 5 returns a chain block's final code matrix, not decoded
#: configurations; in version 6 a ``ball_marginals`` task returns
#: ``{(center, radius): marginal}`` only, with no compiled balls or memos;
#: in version 7 a failed task's ``ERROR`` carries its exception when it pickles.
PROTOCOL_VERSION = 7
#: Bytes of the HMAC-SHA256 tag appended to authenticated frames.
TAG_BYTES = 32
#: Environment variable both sides read for a default shared auth key.
AUTH_KEY_ENV = "REPRO_CLUSTER_AUTH_KEY"
#: Refuse frames above this payload size (a corrupt length field would
#: otherwise make the receiver try to allocate petabytes).
MAX_FRAME_BYTES = 1 << 30
#: Tighter ceiling for *control* frames (HELLO, HEARTBEAT, ERROR): their
#: payloads are a role dict, a timestamp or an error report -- never
#: remotely megabytes (workers cap their reports well below this constant,
#: see :data:`repro.cluster.worker._ERROR_TEXT_LIMIT`).  Enforcing the
#: small limit per kind means a stray or malicious peer cannot make the
#: receiver buffer a giant allocation *during the handshake*, before it has
#: proven it speaks the protocol at all.  Data frames (SPEC/TASK/RESULT)
#: keep the large limit, since they legitimately carry compiled balls and
#: chain blocks.
MAX_CONTROL_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">4sBQ")

# message types ---------------------------------------------------------
HELLO = 1
SPEC = 2
TASK = 3
RESULT = 4
HEARTBEAT = 5
ERROR = 6

MESSAGE_NAMES = {
    HELLO: "HELLO",
    SPEC: "SPEC",
    TASK: "TASK",
    RESULT: "RESULT",
    HEARTBEAT: "HEARTBEAT",
    ERROR: "ERROR",
}


class ProtocolError(RuntimeError):
    """A malformed frame, unknown message type, or handshake mismatch."""


class AuthenticationError(ProtocolError):
    """A frame failed (or lacked) HMAC authentication.

    ``peer_plain`` distinguishes the two directions: ``True`` when the
    *peer* sent unauthenticated frames to a keyed receiver (the rejection
    reply must then be plaintext so the keyless peer can read it),
    ``False`` when the peer sent authenticated frames this side cannot
    verify (missing key or bad tag).
    """

    def __init__(self, message: str, peer_plain: bool = False) -> None:
        super().__init__(message)
        self.peer_plain = peer_plain


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF mid-frame or between frames)."""


def normalize_auth_key(key) -> Optional[bytes]:
    """Normalise an auth key argument: ``None``, ``str`` (UTF-8) or bytes.

    The empty string/bytes count as "no key", so ``auth_key=os.environ.get(
    AUTH_KEY_ENV, "")`` composes without surprises.
    """
    if key is None:
        return None
    if isinstance(key, str):
        key = key.encode("utf-8")
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError(f"auth key must be str or bytes, got {type(key).__name__}")
    return bytes(key) or None


def auth_key_from_env() -> Optional[bytes]:
    """The shared key of :data:`AUTH_KEY_ENV`, or ``None`` when unset."""
    return normalize_auth_key(os.environ.get(AUTH_KEY_ENV))


def _tag(key: bytes, header: bytes, data: bytes) -> bytes:
    """The HMAC-SHA256 tag over one frame's header and payload."""
    mac = hmac_module.new(key, header, hashlib.sha256)
    mac.update(data)
    return mac.digest()


def frame_limit(kind: int) -> int:
    """The maximum payload size accepted for a message kind.

    Control frames (HELLO, HEARTBEAT, ERROR) are capped at
    :data:`MAX_CONTROL_FRAME_BYTES`; data frames (SPEC, TASK, RESULT) at
    :data:`MAX_FRAME_BYTES`.  Both sides enforce the
    limit: the sender before the first byte touches the socket, the
    receiver after reading the fixed header and *before* reading (let
    alone unpickling) any payload bytes.
    """
    if kind in (HELLO, HEARTBEAT, ERROR):
        return MAX_CONTROL_FRAME_BYTES
    return MAX_FRAME_BYTES


def set_nodelay(sock: socket.socket) -> None:
    """Turn Nagle's algorithm off (``TCP_NODELAY``) on a connected TCP socket.

    :func:`send_message` writes a frame as separate ``sendall`` calls
    (header, payload, tag) so the payload is never copied; with Nagle on,
    the payload would wait for the peer's delayed ACK of the header.
    Coordinator and worker set it on every connection.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_message(
    sock: socket.socket, kind: int, payload=None, key: Optional[bytes] = None,
    faults=None,
) -> None:
    """Send one framed message, optionally authenticated and fault-injected.

    Parameters
    ----------
    sock : socket.socket
        A connected stream socket (TCP ones with :func:`set_nodelay`).
        Callers serialise concurrent senders themselves (one lock per
        connection).
    kind : int
        One of the message-type constants of this module.
    payload : object
        Any picklable payload (``None`` is fine).
    key : bytes, optional
        Shared HMAC key; when given the frame carries :data:`MAGIC_AUTH`
        and a :data:`TAG_BYTES`-byte tag over header and payload.
    faults : repro.cluster.chaos.FaultPlan, optional
        Deterministic fault-injection hook consulted once per frame (test
        harness only; production paths pass ``None``).

    Raises
    ------
    ProtocolError
        For unknown message kinds or payloads above the per-kind limit.
    OSError
        When the socket write fails (the peer is gone) -- including the
        injected mid-frame truncation of a fault plan.
    """
    if kind not in MESSAGE_NAMES:
        raise ProtocolError(f"unknown message type {kind!r}")
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    limit = frame_limit(kind)
    if len(data) > limit:
        raise ProtocolError(
            f"refusing to send a {len(data)}-byte {MESSAGE_NAMES[kind]} frame "
            f"(limit {limit})"
        )
    magic = MAGIC if key is None else MAGIC_AUTH
    header = _HEADER.pack(magic, kind, len(data))
    tag = b"" if key is None else _tag(key, header, data)
    if faults is not None:
        action = faults.frame_action(kind)
        if action is not None:
            name = action[0]
            if name == "drop":
                return  # the frame silently never reaches the wire
            if name == "delay":
                time.sleep(action[1])
            elif name == "corrupt":
                where, position = action[1], action[2]
                if where == "magic":
                    header = bytes([header[0] ^ 0x01]) + header[1:]
                    if key is not None:
                        # The tag covered the original header; keep it so
                        # only the magic byte is wrong on the wire.
                        pass
                elif data:
                    position %= len(data)
                    data = (
                        data[:position]
                        + bytes([data[position] ^ 0x01])
                        + data[position + 1 :]
                    )
                    # Deliberately NOT recomputing the tag: a tamperer does
                    # not hold the key, so the tag no longer matches.
            elif name == "truncate":
                keep = min(action[1], len(data))
                sock.sendall(header)
                if keep:
                    sock.sendall(data[:keep])
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError as error:
                    # The socket may already be torn down by the peer; the
                    # truncation is reported via the OSError below either way.
                    obs.log_event(
                        _log, logging.DEBUG, "protocol.truncate_shutdown_failed",
                        error=error,
                    )
                raise OSError("fault injection: frame truncated mid-payload")
    # Separate sends instead of one concatenation: prepending 13 header
    # bytes must not transiently double the memory of a large payload.
    # Callers hold a per-connection lock, so the frame stays contiguous on
    # the wire.
    sock.sendall(header)
    sock.sendall(data)
    if tag:
        sock.sendall(tag)
    handle = obs.active()
    if handle is not None:
        handle.metrics.counter(f"cluster.frames_sent.{MESSAGE_NAMES[kind]}").inc()
        handle.metrics.counter("cluster.bytes_sent").inc(len(header) + len(data) + len(tag))


def _recv_exact(sock: socket.socket, count: int, on_data=None) -> bytes:
    """Read exactly ``count`` bytes, raising :class:`ConnectionClosed` on EOF.

    ``on_data`` (if given) is invoked after every received chunk -- the
    coordinator uses it to refresh a worker's liveness timestamp *while* a
    large frame is still streaming, so a slow transfer is never mistaken
    for a dead peer.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {count} bytes unread"
            )
        if on_data is not None:
            on_data()
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket, on_data=None, key: Optional[bytes] = None
) -> Tuple[int, object]:
    """Receive one framed message, validating header (and tag) before unpickling.

    Parameters
    ----------
    sock : socket.socket
        A connected stream socket.
    on_data : callable, optional
        Progress callback invoked per received chunk (see
        :func:`_recv_exact`).
    key : bytes, optional
        Shared HMAC key.  With a key, only :data:`MAGIC_AUTH` frames with
        a valid tag are accepted -- except a plaintext ``ERROR`` frame,
        which is reported as an auth-mismatch rejection *without its
        payload being unpickled* (it is how a keyless peer says no).
        Without a key, authenticated frames are rejected.

    Returns
    -------
    (int, object)
        The message type and the unpickled payload.

    Raises
    ------
    ProtocolError
        Bad magic bytes, unknown message type, oversized length field, or
        an unpicklable payload -- the frame is rejected without being
        interpreted.
    AuthenticationError
        Tag verification failure or an auth-mode mismatch between the
        peers; raised before any payload byte is unpickled.
    ConnectionClosed
        EOF from the peer (between frames or mid-frame).
    """
    header = _recv_exact(sock, _HEADER.size, on_data)
    magic, kind, length = _HEADER.unpack(header)
    if magic not in (MAGIC, MAGIC_AUTH):
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if kind not in MESSAGE_NAMES:
        raise ProtocolError(f"unknown message type {kind}")
    limit = frame_limit(kind)
    if length > limit:
        # Reject oversize frames on the header alone: no payload byte is
        # read, buffered or unpickled for a length the kind cannot carry.
        raise ProtocolError(
            f"{MESSAGE_NAMES[kind]} frame length {length} exceeds the "
            f"{limit}-byte limit"
        )
    authenticated = magic == MAGIC_AUTH
    if authenticated and key is None:
        # Drain payload + tag (bounded by the per-kind limit) without
        # unpickling: rejecting on the header alone would leave the frame
        # unread in the kernel buffer, and the later shutdown would then
        # RST the connection under a peer still mid-send -- its rejection
        # reply must travel on a clean stream.
        _recv_exact(sock, length + TAG_BYTES, on_data)
        raise AuthenticationError(
            f"authenticated {MESSAGE_NAMES[kind]} frame received but no auth "
            "key is configured on this side; payload discarded unread"
        )
    if not authenticated and key is not None:
        if kind == ERROR:
            # A keyless peer rejecting the connection: drain the frame so
            # the stream stays parseable, but never unpickle its untrusted
            # payload.
            _recv_exact(sock, length, on_data)
            raise AuthenticationError(
                "peer rejected the connection with an unauthenticated ERROR "
                "frame (authentication mismatch: this side has an auth key, "
                "the peer does not); payload discarded unread"
            )
        raise AuthenticationError(
            f"unauthenticated {MESSAGE_NAMES[kind]} frame rejected: this side "
            "requires HMAC-authenticated frames",
            peer_plain=True,
        )
    data = _recv_exact(sock, length, on_data)
    if authenticated:
        tag = _recv_exact(sock, TAG_BYTES, on_data)
        if not hmac_module.compare_digest(tag, _tag(key, header, data)):
            raise AuthenticationError(
                f"HMAC verification failed on a {MESSAGE_NAMES[kind]} frame "
                "(wrong key or tampered payload); payload not unpickled"
            )
    try:
        payload = pickle.loads(data)
    except Exception as error:
        raise ProtocolError(f"undecodable {MESSAGE_NAMES[kind]} payload: {error}")
    handle = obs.active()
    if handle is not None:
        handle.metrics.counter(f"cluster.frames_received.{MESSAGE_NAMES[kind]}").inc()
        handle.metrics.counter("cluster.bytes_received").inc(len(header) + length)
    return kind, payload


def hello_payload(role: str, auth: bool = False, capacity: Optional[int] = None) -> dict:
    """The handshake payload each side announces itself with.

    ``auth`` states whether this side sends authenticated frames (belt and
    braces on top of the per-frame magic); workers additionally announce a
    ``capacity`` -- their relative weight in least-loaded dispatch.
    """
    payload = {"role": role, "version": PROTOCOL_VERSION, "pid": os.getpid(),
               "auth": bool(auth)}
    if capacity is not None:
        payload["capacity"] = int(capacity)
    return payload


def check_hello(payload, expected_role: str, auth: bool = False) -> dict:
    """Validate a received HELLO payload, raising :class:`ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed HELLO payload {payload!r}")
    if payload.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {payload.get('version')!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    if payload.get("role") != expected_role:
        raise ProtocolError(
            f"expected a {expected_role!r} peer, got {payload.get('role')!r}"
        )
    if bool(payload.get("auth")) != bool(auth):
        raise AuthenticationError(
            "authentication mismatch in HELLO: peer "
            f"{'sends' if payload.get('auth') else 'does not send'} "
            "authenticated frames, this side "
            f"{'does' if auth else 'does not'}",
            peer_plain=not payload.get("auth"),
        )
    return payload
