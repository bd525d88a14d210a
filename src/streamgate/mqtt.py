"""Bit-exact encoder/decoder for the MQTT 3.1.1 packet subset in use.

Covers the connect/publish/subscribe/unsubscribe/ping family at QoS
0, which is everything a frame publisher, a headless subscriber, and
the embedded broker need, plus topic-filter matching with ``+`` and
``#`` wildcards.

Decoding is incremental: :func:`decode_packet` raises
:class:`NeedMoreDataError` when the buffer holds only part of a packet
(keep buffering) and :class:`MalformedPacketError` when the bytes can
never become a valid packet (drop the connection). The decoder never
reads past the declared remaining length. :func:`packet_length` reads
that length from the fixed header alone, so a reader can wait for the
whole packet and decode it once.

Out of scope by design: QoS 1/2 delivery state machines, TLS, the
Connect username/password fields, retained-message persistence, and
MQTT 5 properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple, Union

__all__ = [
    "Connack",
    "Connect",
    "Disconnect",
    "EncodeError",
    "FilterError",
    "MalformedPacketError",
    "MqttCodecError",
    "MqttPacket",
    "NeedMoreDataError",
    "PacketType",
    "Pingreq",
    "Pingresp",
    "Publish",
    "Suback",
    "Subscribe",
    "Unsuback",
    "Unsubscribe",
    "MAX_CONNECT_LENGTH",
    "MAX_REMAINING_LENGTH",
    "decode_packet",
    "decode_remaining_length",
    "encode_packet",
    "encode_remaining_length",
    "packet_length",
    "publish_header",
    "topic_matches",
    "validate_filter",
    "validate_publish_topic",
]

MAX_REMAINING_LENGTH = 268_435_455
MAX_STRING_BYTES = 65_535


class MqttCodecError(Exception):
    """Base class for codec failures."""


class MalformedPacketError(MqttCodecError):
    """Bytes that can never become a valid packet."""


class NeedMoreDataError(MqttCodecError):
    """Buffer ends mid-packet; retry once more bytes arrive."""


class EncodeError(MqttCodecError):
    """Packet violates an invariant and cannot be serialized."""


class FilterError(MqttCodecError):
    """Topic filter violates the wildcard placement rules."""


class PacketType(IntEnum):
    CONNECT = 1
    CONNACK = 2
    PUBLISH = 3
    SUBSCRIBE = 8
    SUBACK = 9
    UNSUBSCRIBE = 10
    UNSUBACK = 11
    PINGREQ = 12
    PINGRESP = 13
    DISCONNECT = 14


# ---------------------------------------------------------------------------
# Packet types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Connect:
    client_id: str
    keep_alive_s: int = 0
    clean_session: bool = True


@dataclass(frozen=True)
class Connack:
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes = b""
    retain: bool = False
    qos: int = 0  # only QoS 0 is representable on the wire here


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    filters: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(tuple(f) for f in self.filters))


@dataclass(frozen=True)
class Suback:
    packet_id: int
    granted: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "granted", tuple(self.granted))


@dataclass(frozen=True)
class Unsubscribe:
    packet_id: int
    filters: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))


@dataclass(frozen=True)
class Unsuback:
    packet_id: int


@dataclass(frozen=True)
class Pingreq:
    pass


@dataclass(frozen=True)
class Pingresp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


MqttPacket = Union[
    Connect,
    Connack,
    Publish,
    Subscribe,
    Suback,
    Unsubscribe,
    Unsuback,
    Pingreq,
    Pingresp,
    Disconnect,
]


# ---------------------------------------------------------------------------
# Remaining length (base-128 varint with continuation bit)
# ---------------------------------------------------------------------------


def encode_remaining_length(n: int) -> bytes:
    """Encode a remaining-length value in 1-4 bytes, minimal form."""
    if not 0 <= n <= MAX_REMAINING_LENGTH:
        raise EncodeError(f"remaining length out of range: {n}")
    out = bytearray()
    while True:
        n, digit = divmod(n, 128)
        if n:
            out.append(digit | 0x80)
        else:
            out.append(digit)
            return bytes(out)


def decode_remaining_length(data) -> Tuple[int, int]:
    """Decode a remaining-length prefix; returns (value, bytes consumed)."""
    value = 0
    for i in range(4):
        if i >= len(data):
            raise NeedMoreDataError("remaining length truncated")
        byte = data[i]
        value |= (byte & 0x7F) << (7 * i)
        if not byte & 0x80:
            return value, i + 1
    raise MalformedPacketError("remaining length uses more than 4 bytes")


# ---------------------------------------------------------------------------
# Topic names and filters
# ---------------------------------------------------------------------------


def _check_topic_chars(value: str, what: str) -> None:
    if not value:
        raise FilterError(f"{what} must not be empty")
    if "\x00" in value:
        raise FilterError(f"{what} must not contain U+0000")
    if len(value.encode("utf-8")) > MAX_STRING_BYTES:
        raise FilterError(f"{what} longer than {MAX_STRING_BYTES} bytes")


def validate_publish_topic(topic: str) -> None:
    """Publish topics are concrete: wildcard characters are forbidden."""
    _check_topic_chars(topic, "topic")
    if "+" in topic or "#" in topic:
        raise FilterError(f"publish topic must not contain wildcards: {topic!r}")


def validate_filter(filter_: str) -> None:
    """Enforce wildcard placement: # only as the final level, + only as
    a whole level."""
    _check_topic_chars(filter_, "topic filter")
    levels = filter_.split("/")
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#" or i != len(levels) - 1:
                raise FilterError(f"# misplaced in filter: {filter_!r}")
        elif "+" in level and level != "+":
            raise FilterError(f"+ must occupy a whole level: {filter_!r}")


def topic_matches(filter_: str, topic: str) -> bool:
    """MQTT 3.1.1 level-wise filter matching.

    ``#`` matches any suffix including the parent level itself
    (``a/#`` matches ``a``); ``+`` matches exactly one level, which may
    be empty.
    """
    validate_filter(filter_)
    if "+" in topic or "#" in topic:
        raise ValueError(f"topic must be wildcard-free: {topic!r}")
    flevels = filter_.split("/")
    tlevels = topic.split("/")
    for i, fpart in enumerate(flevels):
        if fpart == "#":
            return True
        if i >= len(tlevels):
            return False
        if fpart != "+" and fpart != tlevels[i]:
            return False
    return len(flevels) == len(tlevels)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _encode_string(value: str, what: str) -> bytes:
    data = value.encode("utf-8")
    if len(data) > MAX_STRING_BYTES:
        raise EncodeError(f"{what} longer than {MAX_STRING_BYTES} bytes")
    if "\x00" in value:
        raise EncodeError(f"{what} must not contain U+0000")
    return len(data).to_bytes(2, "big") + data


def _fixed_header(packet_type: PacketType, flags: int, body: bytes, payload_len: int = 0) -> bytes:
    """The fixed header and ``body``; a payload of ``payload_len`` bytes may follow."""
    remaining = len(body) + payload_len
    if remaining > MAX_REMAINING_LENGTH:
        raise EncodeError(f"packet body of {remaining} bytes exceeds protocol cap")
    return bytes([(packet_type << 4) | flags]) + encode_remaining_length(remaining) + body


def _encode_packet_id(packet_id: int) -> bytes:
    if not 1 <= packet_id <= 0xFFFF:
        raise EncodeError(f"packet id out of range: {packet_id}")
    return packet_id.to_bytes(2, "big")


def publish_header(topic: str, payload_len: int, retain: bool = False) -> bytes:
    """Wire bytes of a QoS 0 PUBLISH up to its payload: fixed header and topic."""
    try:
        validate_publish_topic(topic)
    except FilterError as exc:
        raise EncodeError(str(exc)) from exc
    topic_field = _encode_string(topic, "topic")
    return _fixed_header(PacketType.PUBLISH, 0x01 if retain else 0x00, topic_field, payload_len)


def encode_packet(packet: MqttPacket) -> bytes:
    """Serialize a packet to its exact wire bytes."""
    if isinstance(packet, Connect):
        if not 0 <= packet.keep_alive_s <= 0xFFFF:
            raise EncodeError(f"keep-alive out of range: {packet.keep_alive_s}")
        flags = 0x02 if packet.clean_session else 0x00
        body = (
            _encode_string("MQTT", "protocol name")
            + bytes([4, flags])
            + packet.keep_alive_s.to_bytes(2, "big")
            + _encode_string(packet.client_id, "client id")
        )
        return _fixed_header(PacketType.CONNECT, 0, body)

    if isinstance(packet, Connack):
        if not 0 <= packet.return_code <= 5:
            raise EncodeError(f"connack return code out of range: {packet.return_code}")
        return _fixed_header(PacketType.CONNACK, 0, bytes([0, packet.return_code]))

    if isinstance(packet, Publish):
        if packet.qos != 0:
            raise EncodeError("only QoS 0 publishes are supported")
        return publish_header(packet.topic, len(packet.payload), packet.retain) + packet.payload

    if isinstance(packet, Subscribe):
        body = bytearray(_encode_packet_id(packet.packet_id))
        if not packet.filters:
            raise EncodeError("subscribe must carry at least one filter")
        for filter_, qos in packet.filters:
            try:
                validate_filter(filter_)
            except FilterError as exc:
                raise EncodeError(str(exc)) from exc
            if qos not in (0, 1, 2):
                raise EncodeError(f"requested QoS out of range: {qos}")
            body += _encode_string(filter_, "topic filter")
            body.append(qos)
        return _fixed_header(PacketType.SUBSCRIBE, 0x02, bytes(body))

    if isinstance(packet, Suback):
        body = _encode_packet_id(packet.packet_id)
        if not packet.granted:
            raise EncodeError("suback must carry at least one return code")
        for code in packet.granted:
            if code not in (0, 1, 2, 0x80):
                raise EncodeError(f"bad suback return code: {code:#x}")
        return _fixed_header(PacketType.SUBACK, 0, body + bytes(packet.granted))

    if isinstance(packet, Unsubscribe):
        body = bytearray(_encode_packet_id(packet.packet_id))
        if not packet.filters:
            raise EncodeError("unsubscribe must carry at least one filter")
        for filter_ in packet.filters:
            try:
                validate_filter(filter_)
            except FilterError as exc:
                raise EncodeError(str(exc)) from exc
            body += _encode_string(filter_, "topic filter")
        return _fixed_header(PacketType.UNSUBSCRIBE, 0x02, bytes(body))

    if isinstance(packet, Unsuback):
        return _fixed_header(PacketType.UNSUBACK, 0, _encode_packet_id(packet.packet_id))

    if isinstance(packet, Pingreq):
        return b"\xc0\x00"
    if isinstance(packet, Pingresp):
        return b"\xd0\x00"
    if isinstance(packet, Disconnect):
        return b"\xe0\x00"

    raise EncodeError(f"cannot encode {type(packet).__name__}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _Body:
    """Cursor over a complete packet body.

    The body is a fixed slice bounded by the remaining length, so any
    truncation inside it is a malformed packet, never a need-more-bytes.
    """

    def __init__(self, data: memoryview):
        self._data = data
        self._pos = 0

    def u8(self) -> int:
        if self._pos + 1 > len(self._data):
            raise MalformedPacketError("body truncated")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def u16(self) -> int:
        if self._pos + 2 > len(self._data):
            raise MalformedPacketError("body truncated")
        value = int.from_bytes(self._data[self._pos : self._pos + 2], "big")
        self._pos += 2
        return value

    def string(self, what: str) -> str:
        length = self.u16()
        if self._pos + length > len(self._data):
            raise MalformedPacketError(f"{what} truncated")
        raw = self._data[self._pos : self._pos + length]
        self._pos += length
        try:
            value = str(raw, "utf-8")
        except UnicodeDecodeError:
            raise MalformedPacketError(f"{what} is not valid UTF-8") from None
        if "\x00" in value:
            raise MalformedPacketError(f"{what} contains U+0000")
        return value

    def rest(self) -> bytes:
        value = bytes(self._data[self._pos :])
        self._pos = len(self._data)
        return value

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def expect_end(self, what: str) -> None:
        if not self.at_end():
            raise MalformedPacketError(f"trailing bytes after {what}")


def _decode_connect(flags: int, body: _Body) -> Connect:
    if flags != 0:
        raise MalformedPacketError("connect fixed-header flags must be 0")
    if body.string("protocol name") != "MQTT":
        raise MalformedPacketError("protocol-name mismatch in connect")
    if body.u8() != 4:
        raise MalformedPacketError("unsupported protocol level")
    connect_flags = body.u8()
    if connect_flags & 0x01:
        raise MalformedPacketError("connect reserved flag set")
    if connect_flags & 0xFC:
        raise MalformedPacketError(
            "will/username/password connect features are not supported"
        )
    keep_alive = body.u16()
    client_id = body.string("client id")
    body.expect_end("connect")
    return Connect(
        client_id=client_id,
        keep_alive_s=keep_alive,
        clean_session=bool(connect_flags & 0x02),
    )


def _decode_connack(flags: int, body: _Body) -> Connack:
    if flags != 0:
        raise MalformedPacketError("connack flags must be 0")
    ack_flags = body.u8()
    if ack_flags & 0xFE:
        raise MalformedPacketError("connack acknowledge flags malformed")
    return_code = body.u8()
    if return_code > 5:
        raise MalformedPacketError(f"reserved connack return code: {return_code}")
    body.expect_end("connack")
    return Connack(return_code=return_code)


def _decode_publish(flags: int, body: _Body) -> Publish:
    qos = (flags >> 1) & 0x03
    if qos == 3:
        raise MalformedPacketError("publish QoS bits are both set")
    if qos != 0:
        raise MalformedPacketError("QoS levels above 0 are not supported")
    if flags & 0x08:
        raise MalformedPacketError("DUP must be 0 on a QoS 0 publish")
    topic = body.string("topic")
    try:
        validate_publish_topic(topic)
    except FilterError as exc:
        raise MalformedPacketError(str(exc)) from exc
    return Publish(topic=topic, payload=body.rest(), retain=bool(flags & 0x01))


def _decode_subscribe(flags: int, body: _Body) -> Subscribe:
    if flags != 0x02:
        raise MalformedPacketError("subscribe flags must be 0b0010")
    packet_id = body.u16()
    if packet_id == 0:
        raise MalformedPacketError("packet id 0 is not allowed")
    filters = []
    while not body.at_end():
        filter_ = body.string("topic filter")
        if not filter_:
            raise MalformedPacketError("empty topic filter")
        qos = body.u8()
        if qos > 2:
            raise MalformedPacketError(f"requested QoS out of range: {qos}")
        filters.append((filter_, qos))
    if not filters:
        raise MalformedPacketError("subscribe carries no filters")
    return Subscribe(packet_id=packet_id, filters=tuple(filters))


def _decode_suback(flags: int, body: _Body) -> Suback:
    if flags != 0:
        raise MalformedPacketError("suback flags must be 0")
    packet_id = body.u16()
    if packet_id == 0:
        raise MalformedPacketError("packet id 0 is not allowed")
    granted = body.rest()
    if not granted:
        raise MalformedPacketError("suback carries no return codes")
    for code in granted:
        if code not in (0, 1, 2, 0x80):
            raise MalformedPacketError(f"bad suback return code: {code:#x}")
    return Suback(packet_id=packet_id, granted=tuple(granted))


def _decode_unsubscribe(flags: int, body: _Body) -> Unsubscribe:
    if flags != 0x02:
        raise MalformedPacketError("unsubscribe flags must be 0b0010")
    packet_id = body.u16()
    if packet_id == 0:
        raise MalformedPacketError("packet id 0 is not allowed")
    filters = []
    while not body.at_end():
        filter_ = body.string("topic filter")
        if not filter_:
            raise MalformedPacketError("empty topic filter")
        filters.append(filter_)
    if not filters:
        raise MalformedPacketError("unsubscribe carries no filters")
    return Unsubscribe(packet_id=packet_id, filters=tuple(filters))


def _decode_unsuback(flags: int, body: _Body) -> Unsuback:
    if flags != 0:
        raise MalformedPacketError("unsuback flags must be 0")
    packet_id = body.u16()
    if packet_id == 0:
        raise MalformedPacketError("packet id 0 is not allowed")
    body.expect_end("unsuback")
    return Unsuback(packet_id=packet_id)


def _decode_empty(cls, name: str, flags: int, body: _Body):
    if flags != 0:
        raise MalformedPacketError(f"{name} flags must be 0")
    body.expect_end(name)
    return cls()


_DECODERS = {
    PacketType.CONNECT: _decode_connect,
    PacketType.CONNACK: _decode_connack,
    PacketType.PUBLISH: _decode_publish,
    PacketType.SUBSCRIBE: _decode_subscribe,
    PacketType.SUBACK: _decode_suback,
    PacketType.UNSUBSCRIBE: _decode_unsubscribe,
    PacketType.UNSUBACK: _decode_unsuback,
    PacketType.PINGREQ: lambda f, b: _decode_empty(Pingreq, "pingreq", f, b),
    PacketType.PINGRESP: lambda f, b: _decode_empty(Pingresp, "pingresp", f, b),
    PacketType.DISCONNECT: lambda f, b: _decode_empty(Disconnect, "disconnect", f, b),
}


def _frame(data) -> Tuple[int, int]:
    """Where the body of the packet at the start of ``data`` begins and ends."""
    if len(data) < 1:
        raise NeedMoreDataError("no fixed header yet")
    if data[0] >> 4 not in _DECODERS:  # known from the first byte: do not wait for more
        raise MalformedPacketError(f"unsupported packet type {data[0] >> 4}")
    remaining, consumed = decode_remaining_length(data[1:5])
    return 1 + consumed, 1 + consumed + remaining


def packet_length(data) -> int:
    """Total bytes of the packet at the start of ``data``, read from its fixed header.

    Raises :class:`NeedMoreDataError` until the fixed header is in, so a
    reader can wait for ``packet_length(data)`` bytes and decode once.
    """
    return _frame(data)[1]


def decode_packet(data) -> Tuple[MqttPacket, int]:
    """Decode one packet from the start of ``data``.

    Returns the packet and the number of bytes consumed. Raises
    :class:`NeedMoreDataError` if ``data`` ends before the packet does.
    """
    start, total = _frame(data)
    if len(data) < total:
        raise NeedMoreDataError(f"have {len(data)} of {total} bytes")
    view = memoryview(data)
    return _DECODERS[view[0] >> 4](view[0] & 0x0F, _Body(view[start:total])), total


# The longest client id is the only variable part the decoder accepts.
MAX_CONNECT_LENGTH = len(encode_packet(Connect(client_id="x" * MAX_STRING_BYTES)))
