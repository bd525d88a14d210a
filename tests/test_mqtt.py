"""Wire-format tests for the MQTT 3.1.1 codec subset."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgate import mqtt
from packet_gen import random_filter, random_packet, random_topic, reference_topic_match


# -- remaining length ---------------------------------------------------------


@pytest.mark.parametrize(
    "value,encoded",
    [
        (0, [0x00]),
        (1, [0x01]),
        (127, [0x7F]),
        (128, [0x80, 0x01]),
        (321, [0xC1, 0x02]),
        (16_383, [0xFF, 0x7F]),
        (16_384, [0x80, 0x80, 0x01]),
        (2_097_151, [0xFF, 0xFF, 0x7F]),
        (2_097_152, [0x80, 0x80, 0x80, 0x01]),
        (268_435_455, [0xFF, 0xFF, 0xFF, 0x7F]),
    ],
)
def test_remaining_length_known_vectors(value, encoded):
    assert list(mqtt.encode_remaining_length(value)) == encoded
    assert mqtt.decode_remaining_length(bytes(encoded)) == (value, len(encoded))


def test_remaining_length_rejects_out_of_range():
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_remaining_length(-1)
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_remaining_length(268_435_456)


def test_remaining_length_truncated_needs_more():
    with pytest.raises(mqtt.NeedMoreDataError):
        mqtt.decode_remaining_length(b"")
    with pytest.raises(mqtt.NeedMoreDataError):
        mqtt.decode_remaining_length(b"\x80\x80")


def test_remaining_length_five_bytes_malformed():
    with pytest.raises(mqtt.MalformedPacketError):
        mqtt.decode_remaining_length(b"\x80\x80\x80\x80\x01")


def test_remaining_length_round_trip_sampled():
    # Exhaustive 0..1,000,000 runs in the acceptance suite.
    rng = random.Random(99)
    values = list(range(0, 4097)) + [rng.randrange(0, 268_435_456) for _ in range(5000)]
    for value in values:
        encoded = mqtt.encode_remaining_length(value)
        assert mqtt.decode_remaining_length(encoded) == (value, len(encoded))


# -- packet vectors -----------------------------------------------------------


def test_pingreq_bytes():
    assert mqtt.encode_packet(mqtt.Pingreq()) == b"\xc0\x00"


def test_pingresp_disconnect_bytes():
    assert mqtt.encode_packet(mqtt.Pingresp()) == b"\xd0\x00"
    assert mqtt.encode_packet(mqtt.Disconnect()) == b"\xe0\x00"


def test_publish_wire_example():
    packet = mqtt.Publish(topic="a", payload=b"\x01")
    assert mqtt.encode_packet(packet) == bytes([0x30, 0x04, 0x00, 0x01, 0x61, 0x01])


def test_connect_wire_bytes_hand_assembled():
    packet = mqtt.Connect(client_id="ab", keep_alive_s=60, clean_session=True)
    expected = bytes(
        [0x10, 14]  # fixed header, remaining length
        + [0x00, 0x04] + list(b"MQTT") + [0x04, 0x02, 0x00, 0x3C]
        + [0x00, 0x02] + list(b"ab")
    )
    assert mqtt.encode_packet(packet) == expected


def test_connack_wire_bytes():
    assert mqtt.encode_packet(mqtt.Connack(return_code=0)) == b"\x20\x02\x00\x00"
    assert mqtt.encode_packet(mqtt.Connack(return_code=5)) == b"\x20\x02\x00\x05"


def test_subscribe_wire_bytes():
    packet = mqtt.Subscribe(packet_id=10, filters=(("a/b", 0),))
    expected = bytes([0x82, 8, 0x00, 0x0A, 0x00, 0x03]) + b"a/b" + bytes([0x00])
    assert mqtt.encode_packet(packet) == expected


def test_unsubscribe_wire_bytes():
    packet = mqtt.Unsubscribe(packet_id=10, filters=("a/b", "c/#"))
    expected = bytes([0xA2, 12, 0x00, 0x0A, 0x00, 0x03]) + b"a/b" + bytes([0x00, 0x03]) + b"c/#"
    assert mqtt.encode_packet(packet) == expected


def test_unsuback_wire_bytes():
    assert mqtt.encode_packet(mqtt.Unsuback(packet_id=10)) == b"\xb0\x02\x00\x0a"


def test_retain_flag_bit():
    raw = mqtt.encode_packet(mqtt.Publish(topic="t", payload=b"", retain=True))
    assert raw[0] == 0x31


# -- round trips ----------------------------------------------------------------


def test_round_trip_all_types_examples():
    packets = [
        mqtt.Connect(client_id="gw", keep_alive_s=30, clean_session=False),
        mqtt.Connack(return_code=2),
        mqtt.Publish(topic="camera/stream", payload=b"\x00\x01\x02", retain=True),
        mqtt.Subscribe(packet_id=7, filters=(("camera/+", 0), ("#", 1))),
        mqtt.Suback(packet_id=7, granted=(0, 0x80)),
        mqtt.Pingreq(),
        mqtt.Pingresp(),
        mqtt.Disconnect(),
    ]
    for packet in packets:
        raw = mqtt.encode_packet(packet)
        decoded, consumed = mqtt.decode_packet(raw)
        assert decoded == packet
        assert consumed == len(raw)


def test_round_trip_randomized():
    rng = random.Random(0xFEED)
    for _ in range(2000):
        packet = random_packet(rng)
        raw = mqtt.encode_packet(packet)
        decoded, consumed = mqtt.decode_packet(raw)
        assert decoded == packet
        assert consumed == len(raw)


def test_decode_consumes_one_packet_from_stream():
    raw = mqtt.encode_packet(mqtt.Pingreq()) + mqtt.encode_packet(
        mqtt.Publish(topic="t", payload=b"xyz")
    )
    first, consumed = mqtt.decode_packet(raw)
    assert first == mqtt.Pingreq()
    second, consumed2 = mqtt.decode_packet(raw[consumed:])
    assert second == mqtt.Publish(topic="t", payload=b"xyz")
    assert consumed + consumed2 == len(raw)


def test_incremental_decode_byte_by_byte():
    raw = mqtt.encode_packet(mqtt.Publish(topic="cam/0", payload=bytes(300)))
    for cut in range(len(raw)):
        with pytest.raises(mqtt.NeedMoreDataError):
            mqtt.decode_packet(raw[:cut])
    packet, consumed = mqtt.decode_packet(raw)
    assert consumed == len(raw)
    assert packet.payload == bytes(300)


# -- malformed inputs -----------------------------------------------------------


def _body(packet: mqtt.MqttPacket) -> bytes:
    return mqtt.encode_packet(packet)


@pytest.mark.parametrize(
    "raw,why",
    [
        (b"\x00\x00", "type 0 reserved"),
        (b"\xf0\x00", "type 15 reserved"),
        (b"\x40\x02\x00\x01", "puback unsupported"),
        (b"\xc0\x01\x00", "pingreq with body"),
        (b"\xc1\x00", "pingreq flags nonzero"),
        (b"\x36\x05\x00\x01a\x00\x01", "publish qos 3"),
        (b"\x32\x05\x00\x01a\x00\x01", "publish qos 1 unsupported"),
        (b"\x38\x04\x00\x01a\x01", "publish dup set on qos0"),
        (b"\x30\x03\x00\x01+", "wildcard in publish topic"),
        (b"\x30\x02\x00\x00", "empty publish topic"),
        (b"\x82\x02\x00\x01", "subscribe with no filters"),
        (b"\x80\x05\x00\x01\x00\x01a", "subscribe flags must be 2"),
        (b"\x82\x05\x00\x00\x00\x01a", "packet id zero"),
        (b"\x20\x02\x02\x00", "connack ack flags"),
        (b"\x20\x02\x00\x06", "connack reserved code"),
        (b"\x10\x08\x00\x04MQTX\x04\x02", "protocol name mismatch"),
        (b"\x10\x08\x00\x04MQTT\x05\x02", "protocol level 5"),
        (b"\x30\x04\x00\x03ab", "string runs past body"),
        (b"\xa2\x02\x00\x01", "unsubscribe with no filters"),
        (b"\xa0\x05\x00\x01\x00\x01a", "unsubscribe flags must be 2"),
        (b"\xa2\x05\x00\x00\x00\x01a", "unsubscribe packet id zero"),
        (b"\xa2\x04\x00\x01\x00\x00", "unsubscribe empty filter"),
        (b"\xa2\x05\x00\x01\x00\x02a", "unsubscribe filter runs past body"),
        (b"\xb1\x02\x00\x01", "unsuback flags nonzero"),
        (b"\xb0\x02\x00\x00", "unsuback packet id zero"),
        (b"\xb0\x01\x00", "unsuback body truncated"),
        (b"\xb0\x03\x00\x01\x00", "unsuback trailing byte"),
    ],
)
def test_malformed_inputs_rejected(raw, why):
    with pytest.raises(mqtt.MalformedPacketError):
        mqtt.decode_packet(raw)


def test_connect_with_username_flag_rejected():
    raw = bytearray(
        mqtt.encode_packet(mqtt.Connect(client_id="x", keep_alive_s=0))
    )
    raw[9] |= 0x80  # set username flag inside connect flags
    with pytest.raises(mqtt.MalformedPacketError):
        mqtt.decode_packet(bytes(raw))


def test_trailing_bytes_rejected():
    raw = bytearray(mqtt.encode_packet(mqtt.Connack(return_code=0)))
    raw[1] += 1  # grow remaining length
    raw.append(0x00)
    with pytest.raises(mqtt.MalformedPacketError):
        mqtt.decode_packet(bytes(raw))


def test_invalid_utf8_topic_rejected():
    raw = bytes([0x30, 0x04, 0x00, 0x02, 0xC3, 0x28])  # bad utf-8 continuation
    with pytest.raises(mqtt.MalformedPacketError):
        mqtt.decode_packet(raw)


def test_decoder_never_reads_past_declared_length():
    # Body claims 4 bytes; junk afterwards must be untouched.
    raw = mqtt.encode_packet(mqtt.Publish(topic="a", payload=b"\x01")) + b"\xde\xad"
    packet, consumed = mqtt.decode_packet(raw)
    assert consumed == len(raw) - 2
    assert packet.payload == b"\x01"


def test_fuzz_decoder_clean_errors_sampled():
    # The 10^6-string fuzz is in the acceptance suite.
    rng = random.Random(777)
    for _ in range(20_000):
        blob = rng.randbytes(rng.randrange(0, 40))
        try:
            mqtt.decode_packet(blob)
        except (mqtt.NeedMoreDataError, mqtt.MalformedPacketError):
            pass


# -- encode validation ------------------------------------------------------------


def test_encode_rejects_wildcard_topic():
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Publish(topic="a/+", payload=b""))


def test_encode_rejects_qos1_publish():
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Publish(topic="a", payload=b"", qos=1))


def test_encode_rejects_empty_subscribe():
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Subscribe(packet_id=1, filters=()))


def test_encode_rejects_bad_unsubscribe():
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Unsubscribe(packet_id=1, filters=()))
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Unsubscribe(packet_id=1, filters=("a/#/b",)))
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Unsuback(packet_id=0))


def test_encode_rejects_bad_keep_alive():
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Connect(client_id="x", keep_alive_s=70_000))


def test_encode_rejects_oversize_string():
    with pytest.raises(mqtt.EncodeError):
        mqtt.encode_packet(mqtt.Publish(topic="t" * 70_000, payload=b""))


# -- topic matching ------------------------------------------------------------------


@pytest.mark.parametrize(
    "filter_,topic,expected",
    [
        ("camera/stream", "camera/stream", True),
        ("camera/+", "camera/stream", True),
        ("#", "camera/stream/0", True),
        ("camera/#", "camera", True),
        ("camera/#", "camera/stream/0", True),
        ("camera/+", "camera", False),
        ("camera/+", "camera/", True),
        ("+/+", "a/b", True),
        ("+", "a/b", False),
        ("a/b", "a/b/c", False),
        ("a/b/c", "a/b", False),
        ("+/stream", "camera/stream", True),
        ("camera/stream", "camera/streaming", False),
    ],
)
def test_topic_matching_semantics(filter_, topic, expected):
    assert mqtt.topic_matches(filter_, topic) is expected


@pytest.mark.parametrize("bad", ["", "a/#/b", "#a", "a#", "a+", "+a/b", "a/b+", "x\x00y"])
def test_invalid_filters_rejected(bad):
    with pytest.raises(mqtt.FilterError):
        mqtt.validate_filter(bad)


def test_topic_matches_rejects_wildcard_topic():
    with pytest.raises(ValueError):
        mqtt.topic_matches("a/b", "a/+")


def test_matcher_agrees_with_reference():
    rng = random.Random(0xABCD)
    for _ in range(5000):
        filter_ = random_filter(rng)
        topic = random_topic(rng)
        assert mqtt.topic_matches(filter_, topic) == reference_topic_match(filter_, topic)


# -- properties ----------------------------------------------------------------------

_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=12)
_LEVEL = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00+#/"), max_size=6)
_TOPICS = st.lists(_LEVEL, min_size=1, max_size=4).map("/".join).filter(bool)
_FILTERS = st.builds(
    lambda levels, tail: "/".join(levels + tail),
    st.lists(st.one_of(_LEVEL, st.just("+")), min_size=1, max_size=4),
    st.sampled_from([[], ["#"]]),
).filter(bool)
_PACKET_IDS = st.integers(1, 0xFFFF)

PACKETS = st.one_of(
    st.builds(mqtt.Connect, _TEXT, st.integers(0, 0xFFFF), st.booleans()),
    st.builds(mqtt.Connack, st.integers(0, 5)),
    st.builds(mqtt.Publish, _TOPICS, st.binary(max_size=300), st.booleans()),
    st.builds(
        mqtt.Subscribe,
        _PACKET_IDS,
        st.lists(st.tuples(_FILTERS, st.integers(0, 2)), min_size=1, max_size=3),
    ),
    st.builds(
        mqtt.Suback, _PACKET_IDS, st.lists(st.sampled_from([0, 1, 2, 0x80]), min_size=1, max_size=3)
    ),
    st.builds(mqtt.Unsubscribe, _PACKET_IDS, st.lists(_FILTERS, min_size=1, max_size=3)),
    st.builds(mqtt.Unsuback, _PACKET_IDS),
    st.builds(mqtt.Pingreq),
    st.builds(mqtt.Pingresp),
    st.builds(mqtt.Disconnect),
)


@settings(max_examples=300, deadline=None)
@given(packet=PACKETS)
def test_property_round_trip(packet):
    wire = mqtt.encode_packet(packet)
    assert mqtt.decode_packet(wire) == (packet, len(wire))


@settings(max_examples=300, deadline=None)
@given(topic=_TOPICS, payload=st.binary(max_size=300), retain=st.booleans())
def test_property_publish_header_prefixes_encoded_publish(topic, payload, retain):
    header = mqtt.publish_header(topic, len(payload), retain)
    assert header + payload == mqtt.encode_packet(mqtt.Publish(topic, payload, retain))


def test_publish_header_rejects_wildcard_topic():
    with pytest.raises(mqtt.EncodeError):
        mqtt.publish_header("a/#", 0)


@pytest.mark.parametrize("first", [0x00, 0x40, 0x50, 0x60, 0x70, 0xF0, 0xFF])
def test_unknown_type_rejected_from_first_byte(first):
    # No need to wait for a body the declared length says is 256 MiB.
    for raw in (bytes([first]), bytes([first]) + b"\xff\xff\xff\x7f"):
        with pytest.raises(mqtt.MalformedPacketError):
            mqtt.decode_packet(raw)


def _mutate(wire: bytes, at: int, value: int) -> bytes:
    data = bytearray(wire)
    data[at % len(data)] = value
    return bytes(data)


# Random bytes, bytes framed with a consistent remaining length (so the
# body decoders run), and valid packets with one byte changed.
_BLOBS = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda first, body: bytes([first]) + mqtt.encode_remaining_length(len(body)) + body,
        st.integers(0, 255),
        st.binary(max_size=64),
    ),
    st.builds(_mutate, PACKETS.map(mqtt.encode_packet), st.integers(0, 400), st.integers(0, 255)),
)


@settings(max_examples=500, deadline=None)
@given(data=_BLOBS, tail=st.binary(max_size=8))
def test_property_any_bytes_decode_or_raise_codec_error(data, tail):
    blob = data + tail
    try:
        packet, consumed = mqtt.decode_packet(blob)
    except (mqtt.NeedMoreDataError, mqtt.MalformedPacketError):
        return
    # Never more than the declared length, and bytes past it are unread.
    declared, prefix = mqtt.decode_remaining_length(blob[1:])
    assert consumed == 1 + prefix + declared
    assert mqtt.decode_packet(blob[:consumed]) == (packet, consumed)


# -- packet length from the fixed header ------------------------------------------


@settings(max_examples=300, deadline=None)
@given(packet=PACKETS, tail=st.binary(max_size=8))
def test_property_packet_length_needs_only_the_fixed_header(packet, tail):
    wire = mqtt.encode_packet(packet)
    header = len(wire) - mqtt.decode_remaining_length(wire[1:])[0]
    stream = wire + tail
    for cut in range(len(stream) + 1):
        if cut < header:
            with pytest.raises(mqtt.NeedMoreDataError):
                mqtt.packet_length(stream[:cut])
        else:
            assert mqtt.packet_length(bytearray(stream[:cut])) == len(wire)


def test_packet_length_of_the_largest_publish():
    assert mqtt.packet_length(b"\x30\xff\xff\xff\x7f") == 5 + mqtt.MAX_REMAINING_LENGTH


@pytest.mark.parametrize("first", [0x00, 0xF0])
def test_packet_length_rejects_unknown_type_from_first_byte(first):
    with pytest.raises(mqtt.MalformedPacketError):
        mqtt.packet_length(bytes([first]))


def test_max_connect_length_is_the_longest_connect_that_decodes():
    widest = mqtt.encode_packet(mqtt.Connect(client_id="x" * mqtt.MAX_STRING_BYTES))
    assert mqtt.decode_packet(widest)[1] == len(widest) == mqtt.MAX_CONNECT_LENGTH
    body = widest[4:]  # after a 3-byte remaining length
    longer = b"\x10" + mqtt.encode_remaining_length(len(body) + 1) + body + b"x"
    with pytest.raises(mqtt.MalformedPacketError):
        mqtt.decode_packet(longer)
