"""Property-based round-trip tests of the cluster wire protocol framing.

``cluster/protocol.py`` is the trust boundary of the distributed backend,
so its framing gets randomized coverage beyond the handshake unit tests:
seeded ``numpy.random`` generators (no new test dependency) drive random
payload shapes and sizes through every frame kind, HMAC on and off, and
the limit boundaries are pinned exactly -- a payload pickling to exactly
the control-frame cap round-trips, one byte more is refused by *both*
sides, and an oversized length field is rejected on the header alone
(no allocation, no payload read).

Each case uses a fresh ``socket.socketpair()`` -- a real kernel socket
pair, the same transport the coordinator and workers speak over TCP.
"""

from __future__ import annotations

import hashlib
import hmac
import pickle
import socket
import struct
import threading

import numpy as np
import pytest

from repro.cluster.protocol import (
    ERROR,
    HEARTBEAT,
    HELLO,
    MAGIC,
    MAGIC_AUTH,
    MAX_CONTROL_FRAME_BYTES,
    MAX_FRAME_BYTES,
    MESSAGE_NAMES,
    RESULT,
    SPEC,
    TASK,
    TAG_BYTES,
    AuthenticationError,
    ConnectionClosed,
    ProtocolError,
    check_hello,
    frame_limit,
    hello_payload,
    normalize_auth_key,
    recv_message,
    send_message,
)

ALL_KINDS = sorted(MESSAGE_NAMES)
KEY = normalize_auth_key("property-test-key")


def _roundtrip(kind, payload, key=None):
    """Send one frame through a real socketpair and receive it back.

    The send runs on a helper thread: frames bigger than the kernel's
    socket buffer (a few hundred KB for AF_UNIX) would deadlock a
    single-threaded send-then-receive.
    """
    left, right = socket.socketpair()
    try:
        sender = threading.Thread(
            target=send_message, args=(left, kind, payload), kwargs={"key": key}
        )
        sender.start()
        try:
            return recv_message(right, key=key)
        finally:
            sender.join(timeout=30)
            assert not sender.is_alive(), "sender thread wedged"
    finally:
        left.close()
        right.close()


def _random_payload(rng: np.random.Generator):
    """One random payload: nested JSON-ish shapes, numpy arrays, bytes."""
    choice = int(rng.integers(0, 6))
    if choice == 0:
        return None
    if choice == 1:
        return {
            f"k{i}": int(value)
            for i, value in enumerate(rng.integers(-(2 ** 40), 2 ** 40, size=5))
        }
    if choice == 2:
        return [float(x) for x in rng.normal(size=int(rng.integers(0, 32)))]
    if choice == 3:
        return rng.bytes(int(rng.integers(0, 4096)))
    if choice == 4:
        return rng.standard_normal(size=(int(rng.integers(1, 8)), 3))
    return ("task", int(rng.integers(0, 1 << 31)), {"args": rng.bytes(17)})


def _payloads_equal(sent, received) -> bool:
    if isinstance(sent, np.ndarray):
        return isinstance(received, np.ndarray) and np.array_equal(
            sent, received, equal_nan=True
        )
    if isinstance(sent, tuple):
        return isinstance(received, tuple) and len(sent) == len(received) and all(
            _payloads_equal(a, b) for a, b in zip(sent, received)
        )
    return sent == received


def _pickled_bytes_of_size(target: int) -> bytes:
    """A bytes payload whose *pickle* is exactly ``target`` bytes long."""
    # pickle overhead depends (slightly) on the payload size -- framing
    # kicks in for large objects -- so solve by fixed-point iteration.
    size = target
    for _ in range(8):
        overhead = (
            len(pickle.dumps(b"\x00" * size, protocol=pickle.HIGHEST_PROTOCOL)) - size
        )
        if size + overhead == target:
            break
        size = target - overhead
    payload = b"\x00" * size
    assert len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) == target
    return payload


class TestRandomizedRoundTrips:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[MESSAGE_NAMES[k] for k in ALL_KINDS])
    @pytest.mark.parametrize("keyed", [False, True], ids=["plain", "hmac"])
    def test_every_kind_roundtrips_random_payloads(self, kind, keyed):
        rng = np.random.default_rng(1000 * kind + int(keyed))
        for _ in range(16):
            payload = _random_payload(rng)
            got_kind, got_payload = _roundtrip(
                kind, payload, key=KEY if keyed else None
            )
            assert got_kind == kind
            assert _payloads_equal(payload, got_payload)

    @pytest.mark.parametrize("keyed", [False, True], ids=["plain", "hmac"])
    def test_random_payload_sizes_up_to_megabytes(self, keyed):
        """Log-uniform payload sizes, including multi-chunk receives
        (recv reads at most 1 MiB per chunk)."""
        rng = np.random.default_rng(7 + int(keyed))
        sizes = sorted(
            int(x) for x in np.exp(rng.uniform(0, np.log(3 * (1 << 20)), size=8))
        )
        for size in sizes:
            payload = rng.bytes(size)
            got_kind, got_payload = _roundtrip(
                RESULT, payload, key=KEY if keyed else None
            )
            assert got_kind == RESULT and got_payload == payload

    def test_back_to_back_frames_stay_delimited(self):
        """Many frames on one connection parse back in order -- the length
        prefix really does delimit the stream."""
        rng = np.random.default_rng(42)
        left, right = socket.socketpair()
        try:
            sent = []
            for _ in range(20):
                kind = int(rng.choice([SPEC, TASK, RESULT, ERROR]))
                payload = rng.bytes(int(rng.integers(0, 2048)))
                sent.append((kind, payload))
                send_message(left, kind, payload, key=KEY)
            for kind, payload in sent:
                got_kind, got_payload = recv_message(right, key=KEY)
                assert (got_kind, got_payload) == (kind, payload)
        finally:
            left.close()
            right.close()


class TestLimitBoundaries:
    def test_control_frame_at_the_cap_roundtrips(self):
        payload = _pickled_bytes_of_size(MAX_CONTROL_FRAME_BYTES)
        kind, received = _roundtrip(HEARTBEAT, payload)
        assert kind == HEARTBEAT and received == payload

    @pytest.mark.parametrize(
        "kind", [HELLO, HEARTBEAT, ERROR], ids=["HELLO", "HEARTBEAT", "ERROR"]
    )
    def test_control_frame_one_byte_over_is_refused_by_the_sender(self, kind):
        payload = _pickled_bytes_of_size(MAX_CONTROL_FRAME_BYTES + 1)
        left, right = socket.socketpair()
        try:
            # A send timeout turns a regression (limit not enforced, so the
            # 1 MiB frame wedges in the kernel buffer) into a failure.
            left.settimeout(5.0)
            with pytest.raises(ProtocolError, match="refusing to send"):
                send_message(left, kind, payload)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        ("kind", "limit"),
        [(HELLO, MAX_CONTROL_FRAME_BYTES), (RESULT, MAX_FRAME_BYTES)],
        ids=["control", "data"],
    )
    def test_oversize_length_field_is_rejected_on_the_header_alone(self, kind, limit):
        """A crafted header claiming limit+1 payload bytes is refused
        before any payload byte is read -- no allocation happens, so even
        the 1 GiB data limit is testable."""
        left, right = socket.socketpair()
        try:
            header = struct.pack(">4sBQ", MAGIC, kind, limit + 1)
            left.sendall(header)
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_per_kind_limits_are_what_the_docs_promise(self):
        for kind in ALL_KINDS:
            expected = (
                MAX_CONTROL_FRAME_BYTES
                if kind in (HELLO, HEARTBEAT, ERROR)
                else MAX_FRAME_BYTES
            )
            assert frame_limit(kind) == expected


class TestAuthenticationProperties:
    def test_random_bit_flips_in_the_payload_always_fail_the_tag(self):
        """Flip one random payload byte per trial (tamperer without the
        key): every single one must raise AuthenticationError, never
        unpickle."""
        rng = np.random.default_rng(99)
        payload = rng.bytes(2048)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        for _ in range(16):
            left, right = socket.socketpair()
            try:
                header = struct.pack(">4sBQ", MAGIC_AUTH, RESULT, len(data))
                mac = hmac.new(KEY, header, hashlib.sha256)
                mac.update(data)
                position = int(rng.integers(0, len(data)))
                tampered = (
                    data[:position]
                    + bytes([data[position] ^ (1 << int(rng.integers(0, 8)))])
                    + data[position + 1 :]
                )
                left.sendall(header + tampered + mac.digest())
                with pytest.raises(AuthenticationError, match="HMAC verification failed"):
                    recv_message(right, key=KEY)
            finally:
                left.close()
                right.close()

    def test_wrong_key_fails_every_kind(self):
        rng = np.random.default_rng(5)
        for kind in ALL_KINDS:
            left, right = socket.socketpair()
            try:
                send_message(left, kind, rng.bytes(64), key=KEY)
                with pytest.raises(AuthenticationError):
                    recv_message(right, key=normalize_auth_key("some-other-key"))
            finally:
                left.close()
                right.close()

    def test_mode_mismatches_are_header_level_rejections(self):
        # Authenticated frame at a keyless receiver.
        left, right = socket.socketpair()
        try:
            send_message(left, TASK, b"x", key=KEY)
            with pytest.raises(AuthenticationError, match="no auth key"):
                recv_message(right)
        finally:
            left.close()
            right.close()
        # Plain frame at a keyed receiver.
        left, right = socket.socketpair()
        try:
            send_message(left, TASK, b"x")
            with pytest.raises(AuthenticationError, match="requires HMAC"):
                recv_message(right, key=KEY)
        finally:
            left.close()
            right.close()

    def test_hello_payload_roundtrip_and_check(self):
        kind, payload = _roundtrip(
            HELLO, hello_payload("worker", auth=True, capacity=3), key=KEY
        )
        assert kind == HELLO
        checked = check_hello(payload, "worker", auth=True)
        assert checked["capacity"] == 3


class TestTruncationAndGarbage:
    def test_truncated_frames_raise_connection_closed(self):
        """Cut a valid frame at random points: every cut raises
        ConnectionClosed, never a partial parse."""
        rng = np.random.default_rng(11)
        payload = rng.bytes(512)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        frame = struct.pack(">4sBQ", MAGIC, RESULT, len(data)) + data
        cuts = sorted(set(int(x) for x in rng.integers(0, len(frame), size=8)))
        for cut in cuts:
            left, right = socket.socketpair()
            try:
                left.sendall(frame[:cut])
                left.close()
                with pytest.raises(ConnectionClosed):
                    recv_message(right)
            finally:
                right.close()

    def test_random_garbage_never_parses(self):
        """Random byte blobs (wrong magic with overwhelming probability)
        are rejected as ProtocolError/ConnectionClosed -- never returned
        as a message."""
        rng = np.random.default_rng(23)
        for _ in range(16):
            blob = rng.bytes(int(rng.integers(13, 256)))
            if blob[:4] in (MAGIC, MAGIC_AUTH):  # pragma: no cover - 2^-32-ish
                continue
            left, right = socket.socketpair()
            try:
                left.sendall(blob)
                left.close()
                with pytest.raises(ProtocolError):
                    recv_message(right)
            finally:
                right.close()

    def test_unknown_message_type_is_rejected(self):
        left, right = socket.socketpair()
        try:
            header = struct.pack(">4sBQ", MAGIC, 250, 0)
            left.sendall(header)
            with pytest.raises(ProtocolError, match="unknown message type"):
                recv_message(right)
            with pytest.raises(ProtocolError, match="unknown message type"):
                send_message(left, 250, None)
        finally:
            left.close()
            right.close()

    def test_undecodable_payload_is_a_protocol_error(self):
        left, right = socket.socketpair()
        try:
            garbage = b"\x80\x05this is not a pickle"
            header = struct.pack(">4sBQ", MAGIC, RESULT, len(garbage))
            left.sendall(header + garbage)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(right)
        finally:
            left.close()
            right.close()
