"""Wire-protocol unit and property tests (no server).

The frame codec is pure bytes-in/bytes-out, so everything here is fast
and deterministic: hypothesis proves encode/decode round-trips across
payload sizes (including empty and >64 KiB), and the rejection tests
enumerate every way a frame can be malformed — truncation at each
boundary, garbage magic, wrong version, unknown opcodes, reserved
flags, oversized declared lengths, undecodable payloads.  The header
rejections run through both parsers: :func:`decode_frame` on bytes and
:func:`read_frame` on one end of a socket pair.
"""

import argparse
import pickle
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semilightpath import Hop, Semilightpath
from repro.exceptions import ProtocolError
from repro.server import protocol
from repro.server.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    Op,
    decode_frame,
    encode_frame,
    read_frame,
    valid_ip,
    valid_port,
)

OPCODES = sorted(Op)

payloads = st.one_of(
    st.none(),
    st.binary(min_size=0, max_size=256),
    # Force the >64 KiB regime the issue calls out explicitly.
    st.binary(min_size=65_537, max_size=80_000),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=8),
    st.lists(st.tuples(st.integers(), st.integers()), max_size=16),
    st.floats(allow_nan=False),
)


@given(op=st.sampled_from(OPCODES), payload=payloads)
@settings(max_examples=60, deadline=None)
def test_frame_round_trip(op, payload):
    frame = encode_frame(op, payload)
    decoded_op, decoded_payload, consumed = decode_frame(frame)
    assert decoded_op == op
    assert decoded_payload == payload
    assert consumed == len(frame)


@given(op=st.sampled_from(OPCODES), payload=payloads, trailer=st.binary(max_size=32))
@settings(max_examples=30, deadline=None)
def test_decode_ignores_trailing_bytes(op, payload, trailer):
    frame = encode_frame(op, payload)
    decoded_op, decoded_payload, consumed = decode_frame(frame + trailer)
    assert (decoded_op, decoded_payload) == (op, payload)
    assert consumed == len(frame)


def test_empty_payload_is_minimal():
    frame = encode_frame(Op.STATS, None)
    _, payload, consumed = decode_frame(frame)
    assert payload is None
    assert consumed == len(frame)
    assert len(frame) < HEADER_SIZE + 16


@given(cut=st.integers(min_value=0, max_value=HEADER_SIZE - 1))
@settings(max_examples=HEADER_SIZE, deadline=None)
def test_truncated_header_rejected(cut):
    frame = encode_frame(Op.ROUTE, (1, 2))
    with pytest.raises(ProtocolError, match="truncated"):
        decode_frame(frame[:cut])


def test_truncated_payload_rejected():
    frame = encode_frame(Op.ROUTE, list(range(100)))
    with pytest.raises(ProtocolError, match="truncated"):
        decode_frame(frame[: len(frame) - 1])


@given(garbage=st.binary(min_size=HEADER_SIZE, max_size=64))
@settings(max_examples=40, deadline=None)
def test_garbage_never_parses_silently(garbage):
    """Random bytes either fail loudly or (absurdly unlikely) parse clean."""
    if garbage[:4] == protocol.MAGIC:
        return  # not garbage: a forged header, covered elsewhere
    with pytest.raises(ProtocolError):
        decode_frame(garbage)


def _forge(magic=protocol.MAGIC, version=protocol.VERSION, op=Op.STATS,
           flags=0, length=None, body=b""):
    if length is None:
        length = len(body)
    return protocol._HEADER.pack(magic, version, int(op), flags, length) + body


def _decode(frame):
    return decode_frame(frame)


def _read(frame):
    left, right = socket.socketpair()
    with left, right:
        left.sendall(frame)
        left.shutdown(socket.SHUT_WR)
        return read_frame(right)


parsers = pytest.mark.parametrize(
    "parse", [_decode, _read], ids=["decode_frame", "read_frame"]
)


@parsers
def test_bad_magic_rejected(parse):
    with pytest.raises(ProtocolError, match="magic"):
        parse(_forge(magic=b"XXXX", body=pickle.dumps(None)))


@parsers
def test_wrong_version_rejected(parse):
    with pytest.raises(ProtocolError, match="version"):
        parse(_forge(version=99, body=pickle.dumps(None)))


@parsers
def test_unknown_opcode_rejected(parse):
    with pytest.raises(ProtocolError, match="opcode"):
        parse(_forge(op=0x33, body=pickle.dumps(None)))


@parsers
def test_reserved_flags_rejected(parse):
    with pytest.raises(ProtocolError, match="flags"):
        parse(_forge(flags=1, body=pickle.dumps(None)))


@parsers
def test_oversized_length_rejected_before_reading_payload(parse):
    with pytest.raises(ProtocolError, match="MAX_PAYLOAD"):
        parse(_forge(length=MAX_PAYLOAD + 1))


@parsers
def test_undecodable_payload_rejected(parse):
    with pytest.raises(ProtocolError, match="undecodable"):
        parse(_forge(body=b"\x80not-a-pickle"))


def test_encode_refuses_oversized_payload(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_PAYLOAD", 64)
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(Op.ROUTE, b"x" * 128)


# -- path wire form ----------------------------------------------------------


def test_path_round_trip():
    path = Semilightpath(
        hops=(Hop(1, 2, 0), Hop(2, 3, 2)), total_cost=3.75
    )
    wire = protocol.encode_path(path)
    rebuilt = protocol.decode_path(wire)
    assert rebuilt == path
    assert rebuilt.hops == path.hops
    assert rebuilt.total_cost == path.total_cost


def test_none_path_round_trip():
    assert protocol.encode_path(None) is None
    assert protocol.decode_path(None) is None


def test_wire_form_survives_pickle_byte_identically():
    path = Semilightpath(hops=(Hop("a", "b", 1),), total_cost=0.1 + 0.2)
    wire = protocol.encode_path(path)
    again = pickle.loads(pickle.dumps(wire))
    assert protocol.decode_path(again).total_cost == path.total_cost


# -- argparse validators -----------------------------------------------------


@pytest.mark.parametrize("ip", ["127.0.0.1", "0.0.0.0", "192.168.1.9"])
def test_valid_ip_accepts(ip):
    assert valid_ip(ip) == ip


@pytest.mark.parametrize("ip", ["localhost-ish", "999.1.2.3.4", "::1x", ""])
def test_valid_ip_rejects(ip):
    with pytest.raises(argparse.ArgumentTypeError):
        valid_ip(ip)


@pytest.mark.parametrize("port,expected", [("0", 0), ("80", 80), ("65535", 65535)])
def test_valid_port_accepts(port, expected):
    assert valid_port(port) == expected


@pytest.mark.parametrize("port", ["-1", "65536", "http", ""])
def test_valid_port_rejects(port):
    with pytest.raises(argparse.ArgumentTypeError):
        valid_port(port)
