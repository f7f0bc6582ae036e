"""Length-prefixed binary frames for the router server.

Frame layout (12-byte header, little-endian, then the payload)::

    offset  size  field
    0       4     magic   b"RSRV"
    4       1     version (currently 1)
    5       1     opcode  (:class:`Op`)
    6       2     flags   (reserved, must be 0)
    8       4     payload length in bytes (<= MAX_PAYLOAD)
    12      n     payload (pickle; empty allowed)

The shape follows SeQUeNCe's ``communication.py`` (length-prefixed
pickled messages over a trusted socket): payloads are pickled Python
values, so the server must only ever be exposed on localhost/UDS or an
otherwise trusted network — the protocol authenticates nothing and
pickle will execute what it is given.  Malformed input never crashes the
server: every parse failure raises :class:`~repro.exceptions.ProtocolError`
which the connection handler answers with an ``ERR`` frame before
dropping the connection.

This module is deliberately socket-light: :func:`encode_frame` /
:func:`decode_frame` are pure bytes functions (property-tested for
round-trip in ``tests/server/test_protocol.py``), with thin
:func:`send_frame` / :func:`read_frame` wrappers doing blocking I/O.
"""

from __future__ import annotations

import argparse
import enum
import pickle
import socket
import struct
from typing import TYPE_CHECKING, Any

from repro.exceptions import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.semilightpath import Semilightpath

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "Op",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "read_frame",
    "encode_path",
    "decode_path",
    "valid_ip",
    "valid_port",
]

MAGIC = b"RSRV"
VERSION = 1
_HEADER = struct.Struct("<4sBBHI")
HEADER_SIZE = _HEADER.size
#: Hard cap on one frame's payload: an input check that rejects a garbage
#: length field before any allocation.  A ROUTE_BATCH over every ordered
#: pair of the largest bench network stays far below it.
MAX_PAYLOAD = 64 * 1024 * 1024


class Op(enum.IntEnum):
    """Request opcodes (< 0x40) and reply opcodes (>= 0x40)."""

    ROUTE = 0x01
    ROUTE_BATCH = 0x02
    PATCH = 0x04
    SNAPSHOT = 0x05
    STATS = 0x06
    SHUTDOWN = 0x07
    #: Debug-only (server started with ``debug=True``): worker sleeps for
    #: ``payload`` seconds.  Exists so tests can pin a request inside a
    #: worker long enough to SIGKILL it mid-flight.
    SLEEP = 0x1F
    OK = 0x40
    ERR = 0x41


_OPCODES = frozenset(int(op) for op in Op)


def encode_frame(op: Op | int, payload: Any = None) -> bytes:
    """One full frame for *payload* (pickled; ``None`` pickles tiny)."""
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(raw) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(raw)} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
        )
    return _HEADER.pack(MAGIC, VERSION, int(op), 0, len(raw)) + raw


def decode_frame(data: bytes) -> tuple[Op, Any, int]:
    """Parse one frame off the front of *data*.

    Returns ``(opcode, payload, bytes_consumed)``.  Raises
    :class:`ProtocolError` on truncation, bad magic, wrong version,
    unknown opcode, nonzero reserved flags, an oversized length field,
    or an undecodable payload.
    """
    if len(data) < HEADER_SIZE:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes, need {HEADER_SIZE} for a header"
        )
    op, length = _parse_header(data)
    end = HEADER_SIZE + length
    if len(data) < end:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes, header declares {end}"
        )
    return op, _load_payload(data[HEADER_SIZE:end]), end


def _parse_header(data: bytes) -> tuple[Op, int]:
    """Validate the header at the front of *data*; ``(opcode, length)``.

    Raises :class:`ProtocolError` on bad magic, wrong version, nonzero
    reserved flags, an unknown opcode or an oversized length field —
    before any payload byte is read.
    """
    magic, version, opcode, flags, length = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if flags != 0:
        raise ProtocolError(f"reserved flags set: {flags:#06x}")
    if opcode not in _OPCODES:
        raise ProtocolError(f"unknown opcode {opcode:#04x}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds MAX_PAYLOAD"
        )
    return Op(opcode), length


def _load_payload(raw: bytes) -> Any:
    try:
        return pickle.loads(raw)
    except Exception as exc:
        raise ProtocolError(f"undecodable payload: {exc}") from exc


def send_frame(sock: socket.socket, op: Op | int, payload: Any = None) -> None:
    """Write one frame to *sock* (blocking, whole frame)."""
    sock.sendall(encode_frame(op, payload))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly *count* bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{count} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[Op, Any] | None:
    """Read one frame from *sock*; ``None`` on a clean EOF between frames."""
    header = _recv_exact(sock, HEADER_SIZE)
    if header is None:
        return None
    op, length = _parse_header(header)
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection closed between header and payload")
    return op, _load_payload(body)


# -- semilightpath wire form --------------------------------------------------


def encode_path(path: "Semilightpath | None"):
    """``(hop_triples, total_cost)`` — or ``None`` for unreachable.

    Hops collapse to plain ``(tail, head, wavelength)`` tuples so the
    wire form is independent of dataclass internals; costs travel as the
    exact float (pickle round-trips doubles bit-for-bit), which is what
    lets the ``liang:server`` oracle demand byte-identical answers.
    """
    if path is None:
        return None
    return (
        tuple((h.tail, h.head, h.wavelength) for h in path.hops),
        path.total_cost,
    )


def decode_path(wire) -> "Semilightpath | None":
    """Rebuild a :class:`Semilightpath` from :func:`encode_path` output."""
    if wire is None:
        return None
    from repro.core.semilightpath import Hop, Semilightpath

    hops, total_cost = wire
    return Semilightpath(
        hops=tuple(Hop(tail, head, lam) for tail, head, lam in hops),
        total_cost=total_cost,
    )


# -- argparse validators (the SeQUeNCe ``valid_ip`` / ``valid_port`` shape) ---


def valid_ip(ip: str) -> str:
    """Argparse type: a parseable IPv4 address (``repro serve --host``)."""
    try:
        socket.inet_aton(ip)
    except OSError:
        raise argparse.ArgumentTypeError(f"{ip!r} is not a valid IPv4 address")
    return ip


def valid_port(port: str) -> int:
    """Argparse type: an integer TCP port in [0, 65535] (0 = ephemeral)."""
    try:
        value = int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{port!r} is not an integer port")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port {value} outside the valid range 0-65535"
        )
    return value
