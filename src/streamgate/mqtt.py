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
that length from the fixed header alone, so :class:`PacketReader` waits
for the whole packet and decodes it once. A first byte with an unknown
type, or with flags its type does not allow, is malformed on its own.

Out of scope by design: QoS 1/2 delivery state machines, TLS, the
Connect username/password fields, retained-message persistence, and
MQTT 5 properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple, Union

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
    "PacketReader",
    "PacketType",
    "Pingreq",
    "Pingresp",
    "Publish",
    "Suback",
    "Subscribe",
    "Unsuback",
    "Unsubscribe",
    "MAX_CONNECT_LENGTH",
    "MAX_PACKET_LENGTH",
    "MAX_REMAINING_LENGTH",
    "decode_packet",
    "decode_remaining_length",
    "encode_packet",
    "encode_remaining_length",
    "packet_length",
    "publish_header",
    "topic_matches",
    "validate_client_id",
    "validate_filter",
    "validate_publish_topic",
]

MAX_REMAINING_LENGTH = 268_435_455
MAX_STRING_BYTES = 65_535
MAX_PACKET_LENGTH = 8 * 1024 * 1024  # the most either end buffers or queues per session


class MqttCodecError(Exception):
    """Base class for codec failures."""


class MalformedPacketError(MqttCodecError):
    """Bytes that can never become a valid packet."""


class NeedMoreDataError(MqttCodecError):
    """Buffer ends mid-packet; retry once more bytes arrive."""


class EncodeError(MqttCodecError):
    """Packet violates an invariant and cannot be serialized."""


class FilterError(MqttCodecError, ValueError):
    """Topic name, filter or other string that MQTT 3.1.1 does not allow."""


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


# A plain int: shifting the IntEnum member on every frame costs more than the rest of the byte.
_PUBLISH_BYTE = PacketType.PUBLISH << 4


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
    # Seven bits a byte, low first; each byte but the last sets bit 7.
    if n < 1 << 7:
        return bytes((n,))
    if n < 1 << 14:
        return bytes((n & 0x7F | 0x80, n >> 7))
    if n < 1 << 21:
        return bytes((n & 0x7F | 0x80, n >> 7 & 0x7F | 0x80, n >> 14))
    return bytes((n & 0x7F | 0x80, n >> 7 & 0x7F | 0x80, n >> 14 & 0x7F | 0x80, n >> 21))


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


def _check_string(value: str, what: str) -> bytes:
    """The UTF-8 of ``value`` if MQTT can carry it as a string: no U+0000
    and at most 65,535 bytes (MQTT 3.1.1 section 1.5.3)."""
    if "\x00" in value:
        raise FilterError(f"{what} must not contain U+0000")
    data = value.encode("utf-8")
    if len(data) > MAX_STRING_BYTES:
        raise FilterError(f"{what} must be at most {MAX_STRING_BYTES} bytes of UTF-8")
    return data


def validate_publish_topic(topic: str) -> bytes:
    """Publish topics are concrete: wildcard characters are forbidden.

    Returns the topic's UTF-8, as do the other validators.
    """
    if not topic:
        raise FilterError("topic must not be empty")
    if "+" in topic or "#" in topic:
        raise FilterError(f"publish topic must not contain wildcards: {topic!r}")
    return _check_string(topic, "topic")


def validate_filter(filter_: str) -> bytes:
    """Enforce wildcard placement: # only as the final level, + only as
    a whole level."""
    if not filter_:
        raise FilterError("topic filter must not be empty")
    levels = filter_.split("/")
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#" or i != len(levels) - 1:
                raise FilterError(f"# misplaced in filter: {filter_!r}")
        elif "+" in level and level != "+":
            raise FilterError(f"+ must occupy a whole level: {filter_!r}")
    return _check_string(filter_, "topic filter")


def validate_client_id(client_id: str) -> bytes:
    """A CONNECT client id: any MQTT string (servers may allow more than
    the 23 characters of 3.1.1 section 3.1.3.1)."""
    return _check_string(client_id, "client id")


def topic_matches(filter_: str, topic: str) -> bool:
    """MQTT 3.1.1 level-wise filter matching.

    ``#`` matches any suffix including the parent level itself
    (``a/#`` matches ``a``); ``+`` matches exactly one level, which may
    be empty. The filter has passed :func:`validate_filter` and the
    topic :func:`validate_publish_topic`, as every pair the broker
    matches has; nothing here checks them again.
    """
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


def _encode_string(validate, value: str) -> bytes:
    """``value`` as a length-prefixed MQTT string, once ``validate`` has passed it."""
    try:
        data = validate(value)
    except FilterError as exc:
        raise EncodeError(str(exc)) from exc
    return len(data).to_bytes(2, "big") + data


def _fixed_header(first: int, body: bytes, payload_len: int = 0) -> bytes:
    """The fixed header, led by the type-and-flags byte ``first``, and ``body``;
    a payload of ``payload_len`` bytes may follow."""
    return bytes((first,)) + encode_remaining_length(len(body) + payload_len) + body


def _encode_packet_id(packet_id: int) -> bytes:
    if not 1 <= packet_id <= 0xFFFF:
        raise EncodeError(f"packet id out of range: {packet_id}")
    return packet_id.to_bytes(2, "big")


def publish_header(topic: str, payload_len: int, retain: bool = False) -> bytes:
    """Wire bytes of a QoS 0 PUBLISH up to its payload: fixed header and topic."""
    topic_field = _encode_string(validate_publish_topic, topic)
    return _fixed_header(_PUBLISH_BYTE | retain, topic_field, payload_len)


def encode_packet(packet: MqttPacket) -> bytes:
    """Serialize a packet to its exact wire bytes."""
    if isinstance(packet, Connect):
        if not 0 <= packet.keep_alive_s <= 0xFFFF:
            raise EncodeError(f"keep-alive out of range: {packet.keep_alive_s}")
        flags = 0x02 if packet.clean_session else 0x00
        body = (
            b"\x00\x04MQTT"  # the protocol name
            + bytes([4, flags])
            + packet.keep_alive_s.to_bytes(2, "big")
            + _encode_string(validate_client_id, packet.client_id)
        )
        return _fixed_header(PacketType.CONNECT << 4, body)

    if isinstance(packet, Connack):
        if not 0 <= packet.return_code <= 5:
            raise EncodeError(f"connack return code out of range: {packet.return_code}")
        return _fixed_header(PacketType.CONNACK << 4, bytes([0, packet.return_code]))

    if isinstance(packet, Publish):  # QoS 0, the only level in use
        return publish_header(packet.topic, len(packet.payload), packet.retain) + packet.payload

    if isinstance(packet, Subscribe):
        body = bytearray(_encode_packet_id(packet.packet_id))
        if not packet.filters:
            raise EncodeError("subscribe must carry at least one filter")
        for filter_, qos in packet.filters:
            if qos not in (0, 1, 2):
                raise EncodeError(f"requested QoS out of range: {qos}")
            body += _encode_string(validate_filter, filter_)
            body.append(qos)
        return _fixed_header(PacketType.SUBSCRIBE << 4 | 0x02, bytes(body))

    if isinstance(packet, Suback):
        body = _encode_packet_id(packet.packet_id)
        if not packet.granted:
            raise EncodeError("suback must carry at least one return code")
        for code in packet.granted:
            if code not in (0, 1, 2, 0x80):
                raise EncodeError(f"bad suback return code: {code:#x}")
        return _fixed_header(PacketType.SUBACK << 4, body + bytes(packet.granted))

    if isinstance(packet, Unsubscribe):
        body = bytearray(_encode_packet_id(packet.packet_id))
        if not packet.filters:
            raise EncodeError("unsubscribe must carry at least one filter")
        for filter_ in packet.filters:
            body += _encode_string(validate_filter, filter_)
        return _fixed_header(PacketType.UNSUBSCRIBE << 4 | 0x02, bytes(body))

    if isinstance(packet, Unsuback):
        return _fixed_header(PacketType.UNSUBACK << 4, _encode_packet_id(packet.packet_id))

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

    def packet_id(self) -> int:
        value = self.u16()
        if value == 0:
            raise MalformedPacketError("packet id 0 is not allowed")
        return value

    def string(self, what: str, validate=None) -> str:
        """The next string, checked by ``validate`` or else by the MQTT string rule."""
        length = self.u16()
        if self._pos + length > len(self._data):
            raise MalformedPacketError(f"{what} truncated")
        raw = self._data[self._pos : self._pos + length]
        self._pos += length
        try:
            value = str(raw, "utf-8")
        except UnicodeDecodeError:
            raise MalformedPacketError(f"{what} is not valid UTF-8") from None
        try:
            if validate is None:
                _check_string(value, what)
            else:
                validate(value)
        except FilterError as exc:
            raise MalformedPacketError(str(exc)) from None
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


def _decode_connect(_flags: int, body: _Body) -> Connect:
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


def _decode_connack(_flags: int, body: _Body) -> Connack:
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
    topic = body.string("topic", validate_publish_topic)
    return Publish(topic=topic, payload=body.rest(), retain=bool(flags & 0x01))


def _decode_subscribe(_flags: int, body: _Body) -> Subscribe:
    packet_id = body.packet_id()
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


def _decode_suback(_flags: int, body: _Body) -> Suback:
    packet_id = body.packet_id()
    granted = body.rest()
    if not granted:
        raise MalformedPacketError("suback carries no return codes")
    for code in granted:
        if code not in (0, 1, 2, 0x80):
            raise MalformedPacketError(f"bad suback return code: {code:#x}")
    return Suback(packet_id=packet_id, granted=tuple(granted))


def _decode_unsubscribe(_flags: int, body: _Body) -> Unsubscribe:
    packet_id = body.packet_id()
    filters = []
    while not body.at_end():
        filter_ = body.string("topic filter")
        if not filter_:
            raise MalformedPacketError("empty topic filter")
        filters.append(filter_)
    if not filters:
        raise MalformedPacketError("unsubscribe carries no filters")
    return Unsubscribe(packet_id=packet_id, filters=tuple(filters))


def _decode_unsuback(_flags: int, body: _Body) -> Unsuback:
    packet_id = body.packet_id()
    body.expect_end("unsuback")
    return Unsuback(packet_id=packet_id)


def _decode_empty(cls, name: str, body: _Body):
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
    PacketType.PINGREQ: lambda _f, b: _decode_empty(Pingreq, "pingreq", b),
    PacketType.PINGRESP: lambda _f, b: _decode_empty(Pingresp, "pingresp", b),
    PacketType.DISCONNECT: lambda _f, b: _decode_empty(Disconnect, "disconnect", b),
}

# The fixed-header flags of every type but PUBLISH, which carries its own
# there (MQTT 3.1.1 section 2.2.2).
_FIXED_FLAGS = {t: 0 for t in PacketType if t != PacketType.PUBLISH}
_FIXED_FLAGS[PacketType.SUBSCRIBE] = _FIXED_FLAGS[PacketType.UNSUBSCRIBE] = 0x02


def _frame(data) -> Tuple[int, int]:
    """Where the body of the packet at the start of ``data`` begins and ends."""
    if len(data) < 1:
        raise NeedMoreDataError("no fixed header yet")
    # Type and flags are known from the first byte: do not wait for more.
    packet_type, flags = data[0] >> 4, data[0] & 0x0F
    if packet_type not in _DECODERS:
        raise MalformedPacketError(f"unsupported packet type {packet_type}")
    if _FIXED_FLAGS.get(packet_type, flags) != flags:
        raise MalformedPacketError(
            f"{PacketType(packet_type).name} flags must be {_FIXED_FLAGS[packet_type]:#06b}"
        )
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


class PacketReader:
    """The receive side of one client or broker connection.

    It reads into ``buffer``, shared by readers on one thread and fixed in
    size, or else into its own, which grows from 64 KiB to 1 MiB while reads
    fill it. Freeing a buffer between reads let glibc trim the heap.
    """

    def __init__(self, buffer: Optional[bytearray] = None):
        self.pending = bytearray()  # received, not yet decoded
        self._grows = buffer is None
        self._buffer = bytearray(64 * 1024) if buffer is None else buffer

    def recv(self, sock) -> int:
        """One ``recv_into``; returns the byte count, 0 at end of input."""
        received = sock.recv_into(self._buffer)
        self.pending += memoryview(self._buffer)[:received]
        if self._grows and received == len(self._buffer) and received < 1 << 20:
            self._buffer = bytearray(2 * received)  # more may be waiting
        return received

    def next(self, limit: int):
        """The next whole packet, or None; malformed once it declares over ``limit`` bytes."""
        try:
            total = packet_length(self.pending)
        except NeedMoreDataError:
            return None
        if total > limit:
            raise MalformedPacketError(f"packet of {total} bytes, over {limit}")
        if len(self.pending) < total:
            return None
        packet, consumed = decode_packet(self.pending)  # the global, which tracers wrap
        del self.pending[:consumed]
        return packet


# The longest client id is the only variable part the decoder accepts.
MAX_CONNECT_LENGTH = len(encode_packet(Connect(client_id="x" * MAX_STRING_BYTES)))
