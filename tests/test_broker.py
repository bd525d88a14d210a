"""Embedded broker behavior: sessions, routing, liveness."""

import os
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamgate
from streamgate import broker as broker_module
from streamgate import mqtt
from streamgate.broker import Broker, SubscriptionTable
from streamgate.client import MqttConnection


@pytest.fixture
def broker():
    with Broker("127.0.0.1", 0) as handle:
        yield handle


def connect(broker, client_id, **kwargs) -> MqttConnection:
    conn = MqttConnection("127.0.0.1", broker.port, client_id, **kwargs)
    conn.connect()
    return conn


def wait_until(predicate, timeout=3.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


# -- connection establishment -------------------------------------------------


def test_connect_gets_connack_zero(broker):
    conn = connect(broker, "c1")
    assert conn.connected
    conn.disconnect()


def test_first_packet_must_be_connect(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(mqtt.encode_packet(mqtt.Publish(topic="t", payload=b"x")))
    sock.settimeout(2.0)
    assert sock.recv(64) == b""  # server closed without a reply
    sock.close()


def test_malformed_bytes_close_connection(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(b"\x00\x00\x00\x00")
    sock.settimeout(2.0)
    assert sock.recv(64) == b""
    sock.close()


def test_empty_client_id_rejected(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(mqtt.encode_packet(mqtt.Connect(client_id="")))
    sock.settimeout(2.0)
    assert sock.recv(64) == b""
    sock.close()


def test_duplicate_client_id_supersedes_first(broker):
    first = connect(broker, "dup")
    second = connect(broker, "dup")
    # The first session is terminated by the broker.
    assert first.recv_packet(timeout=2.0) is None
    # The second stays usable.
    second.subscribe("t")
    second.disconnect()


# -- subscribing and routing ----------------------------------------------------


def test_single_subscriber_receives_publish(broker):
    sub = connect(broker, "sub")
    sub.subscribe("camera/stream")
    pub = connect(broker, "pub")
    pub.publish("camera/stream", b"payload-1")
    packet = sub.recv_packet(timeout=2.0)
    assert isinstance(packet, mqtt.Publish)
    assert packet.topic == "camera/stream"
    assert packet.payload == b"payload-1"
    pub.disconnect()
    sub.disconnect()


def test_overlapping_filters_deliver_once(broker):
    sub = connect(broker, "sub")
    sub.subscribe("camera/+", packet_id=1)
    sub.subscribe("#", packet_id=2)
    pub = connect(broker, "pub")
    pub.publish("camera/stream", b"only-once")
    first = sub.recv_packet(timeout=2.0)
    assert first.payload == b"only-once"
    with pytest.raises(TimeoutError):
        sub.recv_packet(timeout=0.4)
    pub.disconnect()
    sub.disconnect()


def test_publisher_not_echoed_unless_subscribed(broker):
    pub = connect(broker, "pub")
    pub.publish("camera/stream", b"self")
    with pytest.raises(TimeoutError):
        pub.recv_packet(timeout=0.4)
    # Once subscribed, the publisher is a subscriber like any other.
    pub.subscribe("camera/stream")
    pub.publish("camera/stream", b"echo")
    packet = pub.recv_packet(timeout=2.0)
    assert packet.payload == b"echo"
    pub.disconnect()


def test_no_subscribers_drops_silently(broker):
    pub = connect(broker, "pub")
    pub.publish("nobody/home", b"void")
    pub.publish("nobody/home", b"void")
    pub.disconnect()
    wait_until(
        lambda: broker.stats.publishes_received == 2, what="publish counter"
    )
    assert broker.stats.messages_delivered == 0


def test_retain_flag_not_propagated(broker):
    sub = connect(broker, "sub")
    sub.subscribe("t")
    pub = connect(broker, "pub")
    pub.publish("t", b"x", retain=True)
    packet = sub.recv_packet(timeout=2.0)
    assert packet.retain is False
    pub.disconnect()
    sub.disconnect()


def raw_subscribe(packet_id, filters) -> bytes:
    # Hand-assembled so invalid filters can reach the broker; the
    # encoder would (correctly) refuse to emit them.
    body = packet_id.to_bytes(2, "big")
    for filter_, qos in filters:
        raw = filter_.encode()
        body += len(raw).to_bytes(2, "big") + raw + bytes([qos])
    return bytes([0x82]) + mqtt.encode_remaining_length(len(body)) + body


def recv_packets(sock, count, timeout=2.0):
    sock.settimeout(timeout)
    buffer = bytearray()
    packets = []
    while len(packets) < count:
        try:
            packet, consumed = mqtt.decode_packet(buffer)
            del buffer[:consumed]
            packets.append(packet)
            continue
        except mqtt.NeedMoreDataError:
            pass
        chunk = sock.recv(4096)
        if not chunk:
            break
        buffer += chunk
    return packets


def test_invalid_filter_gets_failure_code(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(mqtt.encode_packet(mqtt.Connect(client_id="strict")))
    sock.sendall(raw_subscribe(9, [("bad/#/filter", 0)]))
    connack, ack = recv_packets(sock, 2)
    assert isinstance(ack, mqtt.Suback)
    assert ack.granted == (0x80,)
    sock.close()


def test_mixed_filters_granted_individually(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(mqtt.encode_packet(mqtt.Connect(client_id="mixed")))
    sock.sendall(raw_subscribe(3, [("ok/+", 0), ("#bad", 0)]))
    connack, ack = recv_packets(sock, 2)
    assert ack.granted == (0x00, 0x80)
    sock.close()


def test_unsubscribe_stops_delivery_and_keeps_session(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(
        mqtt.encode_packet(mqtt.Connect(client_id="leaving"))
        + mqtt.encode_packet(mqtt.Subscribe(packet_id=1, filters=(("a/+", 0), ("a/b", 0))))
    )
    _connack, suback = recv_packets(sock, 2)
    assert suback.granted == (0x00, 0x00)
    pub = connect(broker, "pub")
    pub.publish("a/b", b"1")
    assert recv_packets(sock, 1) == [mqtt.Publish(topic="a/b", payload=b"1")]

    # One filter the session never had: removing it is a no-op.
    unsubscribe = mqtt.Unsubscribe(packet_id=2, filters=("a/+", "a/b", "never/had"))
    sock.sendall(mqtt.encode_packet(unsubscribe))
    assert recv_packets(sock, 1) == [mqtt.Unsuback(packet_id=2)]
    assert broker.table.filter_count() == 0
    pub.publish("a/b", b"2")
    pub.ping()  # answered only after the publish before it was routed
    assert isinstance(pub.recv_packet(timeout=2.0), mqtt.Pingresp)
    sock.sendall(mqtt.encode_packet(mqtt.Pingreq()))
    assert recv_packets(sock, 1) == [mqtt.Pingresp()]
    sock.close()
    pub.disconnect()


def test_per_connection_fifo_order(broker):
    sub = connect(broker, "sub")
    sub.subscribe("seq")
    pub = connect(broker, "pub")
    count = 1000
    for i in range(count):
        pub.publish("seq", i.to_bytes(4, "big"))
    received = []
    while len(received) < count:
        packet = sub.recv_packet(timeout=5.0)
        assert packet is not None, "broker closed early"
        if isinstance(packet, mqtt.Publish):
            received.append(int.from_bytes(packet.payload, "big"))
    assert received == list(range(count))
    pub.disconnect()
    sub.disconnect()


def test_at_most_once_per_publish(broker):
    sub = connect(broker, "sub")
    sub.subscribe("a/+")
    sub.subscribe("a/b")
    sub.subscribe("#")
    pub = connect(broker, "pub")
    for i in range(20):
        pub.publish("a/b", bytes([i]))
    got = []
    while len(got) < 20:
        packet = sub.recv_packet(timeout=3.0)
        if isinstance(packet, mqtt.Publish):
            got.append(packet.payload[0])
    assert got == list(range(20))
    with pytest.raises(TimeoutError):
        sub.recv_packet(timeout=0.4)
    pub.disconnect()
    sub.disconnect()


# -- liveness -------------------------------------------------------------------


def test_pingreq_answered(broker):
    conn = connect(broker, "pinger")
    conn.ping()
    assert isinstance(conn.recv_packet(timeout=2.0), mqtt.Pingresp)
    conn.disconnect()


def test_idle_session_closed_past_keep_alive_grace(broker):
    conn = connect(broker, "sleepy", keep_alive_s=1)
    start = time.monotonic()
    # 1.5x keep-alive is 1.5 s; the broker must close us around there.
    assert conn.recv_packet(timeout=5.0) is None
    elapsed = time.monotonic() - start
    assert 1.0 <= elapsed <= 4.0


def test_zero_keep_alive_never_expires(broker):
    conn = connect(broker, "immortal", keep_alive_s=0)
    with pytest.raises(TimeoutError):
        conn.recv_packet(timeout=2.2)
    conn.disconnect()


# -- slow subscribers --------------------------------------------------------------


def test_slow_subscriber_messages_dropped():
    with Broker("127.0.0.1", 0, max_session_buffer=4096) as broker:
        # Subscribe but never read: the session buffer fills up.
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
        sock.sendall(mqtt.encode_packet(mqtt.Connect(client_id="lazy")))
        sock.sendall(
            mqtt.encode_packet(mqtt.Subscribe(packet_id=1, filters=(("t", 0),)))
        )
        wait_until(lambda: broker.table.filter_count() == 1, what="subscription")

        pub = MqttConnection("127.0.0.1", broker.port, "pub")
        pub.connect()
        for i in range(64):
            pub.publish("t", bytes(1024))
        wait_until(
            lambda: broker.stats.publishes_received == 64, what="publishes"
        )
        assert broker.stats.messages_dropped > 0
        assert broker.stats.messages_delivered < 64
        pub.disconnect()
        sock.close()


# -- subscription table --------------------------------------------------------------


class FakeSession:
    def __init__(self, name):
        self.name = name


def test_table_dedups_across_filters():
    table = SubscriptionTable()
    s1, s2 = FakeSession("s1"), FakeSession("s2")
    table.add("camera/+", s1)
    table.add("#", s1)
    table.add("camera/stream", s2)
    assert table.sessions_for("camera/stream") == {s1, s2}
    assert table.sessions_for("other") == {s1}


def test_table_remove_drops_one_subscription():
    table = SubscriptionTable()
    s1, s2 = FakeSession("s1"), FakeSession("s2")
    table.add("a", s1)
    table.add("a", s2)
    table.add("b", s1)
    table.remove("a", s1)
    table.remove("c", s1)  # never subscribed: no-op
    table.remove("b", s2)  # filter held by another session: no-op
    assert table.sessions_for("a") == {s2}
    assert table.sessions_for("b") == {s1}
    table.remove("b", s1)
    assert table.filter_count() == 1


def test_table_discard_leaves_no_dangling_refs():
    table = SubscriptionTable()
    s1, s2 = FakeSession("s1"), FakeSession("s2")
    table.add("a", s1)
    table.add("a", s2)
    table.add("b/+", s1)
    table.discard_session(s1)
    assert table.session_refs() == {s2}
    table.discard_session(s2)
    assert table.session_refs() == set()
    assert table.filter_count() == 0


def test_broker_drops_session_refs_on_disconnect(broker):
    conn = connect(broker, "leaver")
    conn.subscribe("x/y")
    wait_until(lambda: broker.table.filter_count() == 1, what="subscription")
    conn.disconnect()
    wait_until(lambda: broker.table.filter_count() == 0, what="table cleanup")
    assert broker.table.session_refs() == set()


# -- lifecycle ---------------------------------------------------------------------


def test_broker_import_loads_only_the_codec():
    # A process that hosts only the broker never loads the enclave side.
    code = "import sys, streamgate.broker; print(sorted(m for m in sys.modules if 'streamgate' in m))"
    src = os.path.dirname(os.path.dirname(streamgate.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=30
    ).stdout
    assert out.strip() == str(["streamgate", "streamgate.broker", "streamgate.mqtt"])


def test_serve_returns_running_handle():
    from streamgate.broker import serve

    handle = serve("127.0.0.1", 0)
    try:
        conn = MqttConnection("127.0.0.1", handle.port, "hello")
        conn.connect()  # implies Connack return code 0
        conn.disconnect()
    finally:
        handle.stop()


def test_stop_is_idempotent():
    broker = Broker("127.0.0.1", 0).start()
    broker.stop()
    broker.stop()


def test_port_zero_assigns_ephemeral():
    with Broker("127.0.0.1", 0) as broker:
        assert broker.port > 0


def test_bind_conflict_raises():
    with Broker("127.0.0.1", 0) as broker:
        with pytest.raises(OSError):
            Broker("127.0.0.1", broker.port).start()


def test_external_interface_defaults():
    broker = Broker()
    assert broker.host == "127.0.0.1"
    assert broker._requested_port == 1883


# -- superseded sessions ------------------------------------------------------------


def test_reconnect_with_same_id_loses_no_frames(broker):
    # Each gateway session is superseded while its frames may still sit
    # unread in the broker's socket; they must be routed, not dropped.
    rounds, per_round, size = 40, 3, 86_412
    sub = connect(broker, "sub")
    sub.subscribe("cam/#")
    topics = []

    def collect():
        while len(topics) < rounds * per_round:
            try:
                packet = sub.recv_packet(timeout=5.0)
            except TimeoutError:
                return
            if packet is None:
                return
            if isinstance(packet, mqtt.Publish):
                topics.append(packet.topic)

    collector = threading.Thread(target=collect, daemon=True)
    collector.start()
    payload = bytes(size)
    for round_ in range(rounds):
        gateway = connect(broker, "gateway")
        for _ in range(per_round):
            gateway.publish(f"cam/{round_}", payload)
        gateway.disconnect()
    collector.join(timeout=30.0)
    assert len(topics) == rounds * per_round
    assert topics == [f"cam/{r}" for r in range(rounds) for _ in range(per_round)]
    sub.disconnect()


# -- robustness --------------------------------------------------------------------

_JUNK = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from([b"", b"\x10", b"\x30", b"\x31", b"\x82", b"\xc0\x00", b"\xe0"]),
    st.binary(max_size=256),
)


@settings(max_examples=60, deadline=None)
@given(junk=_JUNK)
def test_random_bytes_close_only_the_offending_session(junk):
    with Broker("127.0.0.1", 0) as broker:
        sub = connect(broker, "sub")
        sub.subscribe("t")
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
        sock.sendall(mqtt.encode_packet(mqtt.Connect(client_id="fuzz")) + junk)
        sock.shutdown(socket.SHUT_WR)
        # The broker has handled the junk once it closes this session,
        # for the junk's sake or at the end of input.
        try:
            while sock.recv(4096):
                pass
        except ConnectionResetError:  # closed with junk still unread
            pass
        sock.close()

        pub = connect(broker, "pub")
        pub.publish("t", b"after")
        # The junk itself may have been a valid publish to "t".
        while True:
            packet = sub.recv_packet(timeout=2.0)
            assert packet is not None, "subscriber session was closed"
            if isinstance(packet, mqtt.Publish) and packet.payload == b"after":
                break
        connect(broker, "late").disconnect()
        pub.disconnect()
        sub.disconnect()


# -- forwarding -------------------------------------------------------------------


def test_retained_publish_forwarded_with_retain_cleared(broker):
    sub = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sub.sendall(mqtt.encode_packet(mqtt.Connect(client_id="raw-sub")))
    sub.sendall(mqtt.encode_packet(mqtt.Subscribe(packet_id=1, filters=(("t/r", 0),))))
    assert [type(p) for p in recv_packets(sub, 2)] == [mqtt.Connack, mqtt.Suback]
    wire = mqtt.encode_packet(mqtt.Publish(topic="t/r", payload=bytes(range(256)), retain=True))
    assert wire[0] == 0x31
    pub = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    pub.sendall(mqtt.encode_packet(mqtt.Connect(client_id="raw-pub")) + wire)
    forwarded = b""
    while len(forwarded) < len(wire):
        chunk = sub.recv(len(wire) - len(forwarded))
        assert chunk, "subscriber closed"
        forwarded += chunk
    # MQTT 3.1.1 section 3.3.1.3: only the retain bit changes.
    assert forwarded == b"\x30" + wire[1:]
    pub.close()
    sub.close()


def _minor_faults(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as stat:
        # Field 10; the command name in field 2 may hold spaces.
        return int(stat.read().rsplit(")", 1)[1].split()[7])


_BROKER_CHILD = (
    "import sys; from streamgate.broker import serve; b = serve('127.0.0.1', 0); "
    "print(b.port, flush=True); sys.stdin.read(); b.stop()"
)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads minor faults from Linux /proc"
)
def test_forwarding_frames_does_not_fault_the_broker_heap():
    # A broker that frees every frame-sized buffer between frames has its
    # heap trimmed by glibc and faulted back in, about 50 faults a frame.
    src = os.path.dirname(os.path.dirname(streamgate.__file__))
    with subprocess.Popen(
        [sys.executable, "-c", _BROKER_CHILD],
        env={**os.environ, "PYTHONPATH": src},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        try:
            port = int(child.stdout.readline())
            sub = MqttConnection("127.0.0.1", port, "sub")
            sub.connect()
            sub.subscribe("cam")
            pub = MqttConnection("127.0.0.1", port, "pub")
            pub.connect()
            payload = bytes(86_412)

            def forward(frames):
                for _ in range(frames):  # one frame in flight, as at a camera's pace
                    pub.publish("cam", payload)
                    assert sub.recv_packet(timeout=5.0).payload == payload

            forward(20)  # warm-up
            before = _minor_faults(child.pid)
            frames = 200
            forward(frames)
            per_frame = (_minor_faults(child.pid) - before) / frames
            pub.disconnect()
            sub.disconnect()
        finally:
            child.stdin.close()  # end of input stops the broker
            child.wait(timeout=10)
    assert per_frame <= 5, f"{per_frame:.1f} minor faults per frame"


# -- hostile and silent peers ----------------------------------------------------------


def assert_closed_by_broker(sock, timeout=3.0):
    sock.settimeout(timeout)
    try:
        while sock.recv(65536):
            pass
    except ConnectionResetError:  # closed with our bytes still unread
        pass
    sock.close()


def assert_still_routing(broker):
    sub = connect(broker, "witness-sub")
    sub.subscribe("alive")
    pub = connect(broker, "witness-pub")
    pub.publish("alive", b"yes")
    assert sub.recv_packet(timeout=2.0) == mqtt.Publish(topic="alive", payload=b"yes")
    pub.disconnect()
    sub.disconnect()


def test_oversized_packet_without_connect_closes_session(broker):
    # Declares the largest publish MQTT allows, then streams its body: the
    # broker must give up once it holds more than one session buffer.
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=5.0)
    with pytest.raises(OSError):  # reset before 40 MiB of body are in
        sock.sendall(b"\x30\xff\xff\xff\x7f")
        for _ in range(40):
            sock.sendall(bytes(1 << 20))
    assert_closed_by_broker(sock)
    assert_still_routing(broker)


def test_reserved_type_header_closes_session_at_once(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(b"\xf0\xff\xff\xff\x7f")
    assert_closed_by_broker(sock, timeout=2.0)
    assert_still_routing(broker)


def test_socket_without_connect_closed_at_deadline(broker, monkeypatch):
    monkeypatch.setattr(broker_module, "CONNECT_TIMEOUT_S", 0.3)
    start = time.monotonic()
    silent = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    trickling = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    connect_bytes = mqtt.encode_packet(mqtt.Connect(client_id="slow"))
    for byte in connect_bytes[:4]:  # each byte arrives before the deadline
        trickling.sendall(bytes([byte]))
        time.sleep(0.05)
    assert_closed_by_broker(trickling)
    assert_closed_by_broker(silent)
    assert 0.3 <= time.monotonic() - start <= 2.5
    assert_still_routing(broker)


def test_first_byte_that_is_not_connect_closes_at_once(broker):
    # One byte announces a PUBLISH: no need to wait for its length or body.
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(b"\x30")
    assert_closed_by_broker(sock, timeout=1.0)
    assert_still_routing(broker)


def test_connect_longer_than_the_codec_accepts_closes_at_once(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(b"\x10" + mqtt.encode_remaining_length(mqtt.MAX_CONNECT_LENGTH))
    assert_closed_by_broker(sock, timeout=1.0)
    # The longest CONNECT the codec accepts still gets in.
    longest = mqtt.Connect(client_id="x" * mqtt.MAX_STRING_BYTES)
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(mqtt.encode_packet(longest))
    assert recv_packets(sock, 1) == [mqtt.Connack()]
    sock.close()
    assert_still_routing(broker)


def test_publish_after_a_rejected_connect_is_not_routed(broker):
    # MQTT-3.1.4-5: nothing a client sends after a refused CONNECT is processed.
    sub = connect(broker, "sub")
    sub.subscribe("t")
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(
        mqtt.encode_packet(mqtt.Connect(client_id=""))
        + mqtt.encode_packet(mqtt.Publish(topic="t", payload=b"smuggled"))
    )
    assert_closed_by_broker(sock, timeout=2.0)
    with pytest.raises(TimeoutError):
        sub.recv_packet(timeout=0.4)
    assert broker.stats.publishes_received == 0
    sub.disconnect()


def test_only_sessions_with_a_deadline_are_timed(broker):
    idle = connect(broker, "no-keep-alive")
    idle.subscribe("t")
    live = connect(broker, "keep-alive", keep_alive_s=60)
    live.subscribe("t")
    silent = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    wait_until(lambda: len(broker._timed) == 2, what="two timed sessions")
    assert {session.client_id for session in broker._timed} == {None, "keep-alive"}
    silent.close()
    live.disconnect()
    wait_until(lambda: not broker._timed, what="no timed sessions")
    idle.disconnect()


def test_each_packet_is_decoded_once(broker, monkeypatch):
    # Frames larger than one recv arrive in pieces on both sides; neither
    # the broker nor the client parses a packet before all of it is in.
    calls, incomplete = [], []
    real_decode = mqtt.decode_packet

    def spy_decode(data):
        calls.append(len(data))
        try:
            return real_decode(data)
        except mqtt.NeedMoreDataError:
            incomplete.append(len(data))
            raise

    monkeypatch.setattr(mqtt, "decode_packet", spy_decode)
    sub = connect(broker, "sub")
    sub.subscribe("cam")
    pub = connect(broker, "pub")
    payload = bytes(300_000)
    for _ in range(3):
        pub.publish("cam", payload)
        assert sub.recv_packet(timeout=5.0).payload == payload
    pub.disconnect()
    sub.disconnect()
    assert calls
    assert incomplete == []
