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
from streamgate.client import ClientError, MqttConnection
from streamgate.pipeline import SyntheticFrameSource


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
    conn.ping()
    # recv_packet checks the CONNACK first and raises on a refusal.
    assert isinstance(conn.recv_packet(timeout=2.0), mqtt.Pingresp)
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
    # MQTT-3.1.3-9: CONNACK 0x02, identifier rejected, then the close.
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    sock.sendall(mqtt.encode_packet(mqtt.Connect(client_id="")))
    sock.settimeout(2.0)
    received = b""
    while chunk := sock.recv(64):
        received += chunk
    assert received == bytes([0x20, 0x02, 0x00, 0x02])
    sock.close()


def test_client_with_an_empty_client_id_is_told_identifier_rejected(broker):
    conn = connect(broker, "")
    with pytest.raises(ClientError, match="return code 2"):
        conn.recv_packet(timeout=2.0)


def test_duplicate_client_id_supersedes_first(broker):
    first = connect(broker, "dup")
    second = connect(broker, "dup")
    # The first session is terminated by the broker.
    assert first.recv_packet(timeout=2.0) is None
    # The second stays usable.
    second.subscribe("t")
    second.disconnect()


# -- subscribing and routing ----------------------------------------------------


def test_a_hash_subscriber_gets_no_reserved_topic(broker):
    # MQTT-4.7.2-1: "#" takes "a/b" but not "$SYS/x", which "$SYS/#" takes.
    everything = connect(broker, "everything")
    everything.subscribe("#")
    reserved = connect(broker, "reserved")
    reserved.subscribe("$SYS/#")
    pub = connect(broker, "pub")
    pub.publish("$SYS/x", b"reserved")
    pub.publish("a/b", b"plain")
    # One publisher's messages arrive in order, so "a/b" first means no "$SYS/x".
    assert everything.recv_packet(timeout=2.0) == mqtt.Publish(topic="a/b", payload=b"plain")
    assert reserved.recv_packet(timeout=2.0) == mqtt.Publish(topic="$SYS/x", payload=b"reserved")
    for conn in (pub, everything, reserved):
        conn.disconnect()


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
    pub = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    pub.sendall(
        mqtt.encode_packet(mqtt.Connect(client_id="pub"))
        + mqtt.encode_packet(mqtt.Publish(topic="t", payload=b"x", retain=True))
    )
    packet = sub.recv_packet(timeout=2.0)
    assert packet.retain is False
    pub.close()
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


def test_slow_subscriber_messages_dropped(monkeypatch):
    monkeypatch.setattr(mqtt, "MAX_PACKET_LENGTH", 4096)
    with Broker("127.0.0.1", 0) as broker:
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


def test_full_socket_resumes_where_it_stopped(broker):
    # A subscriber with a 4 KiB receive buffer that stops reading makes
    # sendmsg take part of a packet, then the broker waits for EVENT_WRITE
    # and resumes from the unsent tail once the subscriber drains.
    source = SyntheticFrameSource(64, 64, frame_bytes=86_000)
    payloads = [source.frame_at(i).bytes for i in range(150)]
    slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    slow.connect(("127.0.0.1", broker.port))
    slow.sendall(
        mqtt.encode_packet(mqtt.Connect(client_id="slow"))
        + mqtt.encode_packet(mqtt.Subscribe(packet_id=1, filters=(("t", 0),)))
    )
    assert [type(p) for p in recv_packets(slow, 2)] == [mqtt.Connack, mqtt.Suback]

    fast = connect(broker, "fast")
    fast.subscribe("t")
    fast_received = []

    def read_fast():
        while len(fast_received) < len(payloads):
            packet = fast.recv_packet(timeout=10.0)
            if packet is None:
                return
            fast_received.append(packet.payload)

    reader = threading.Thread(target=read_fast, daemon=True)
    reader.start()
    pub = connect(broker, "pub")
    for i, payload in enumerate(payloads):
        # Keep the fast subscriber close behind, so only the slow one backs up.
        wait_until(lambda: len(fast_received) >= i - 8, timeout=10.0, what="fast reader")
        pub.publish("t", payload)
    reader.join(timeout=10.0)
    assert fast_received == payloads
    wait_until(
        lambda: broker.stats.messages_delivered + broker.stats.messages_dropped == 300,
        what="every publish routed",
    )
    slow_count = broker.stats.messages_delivered - len(payloads)
    slow_received = [p.payload for p in recv_packets(slow, slow_count, timeout=5.0)]
    assert len(slow_received) == slow_count
    indices = [int.from_bytes(p[:8], "big") for p in slow_received]
    assert indices == sorted(set(indices))
    assert slow_received == [payloads[i] for i in indices]
    assert slow_count + broker.stats.messages_dropped == len(payloads)
    pub.disconnect()
    fast.disconnect()
    slow.close()


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


def test_table_keeps_reserved_topics_from_wildcard_led_filters():
    # MQTT-4.7.2-1: "#" and "+/x" do not match "$SYS/x"; "$SYS/#" and "$SYS/+" do.
    table = SubscriptionTable()
    hash_, plus, sys_hash, sys_plus = (FakeSession(n) for n in ("#", "+/x", "$SYS/#", "$SYS/+"))
    for session in (hash_, plus, sys_hash, sys_plus):
        table.add(session.name, session)
    assert table.sessions_for("$SYS/x") == {sys_hash, sys_plus}
    assert table.sessions_for("a/x") == {hash_, plus}


def test_table_discard_leaves_no_dangling_refs():
    table = SubscriptionTable()
    s1, s2 = FakeSession("s1"), FakeSession("s2")
    table.add("a", s1)
    table.add("a", s2)
    table.add("b/+", s1)
    table.discard_session(s1)
    assert table.sessions_for("a") == {s2}
    assert table.sessions_for("b/x") == set()
    assert table.filter_count() == 1
    table.discard_session(s2)
    assert table.sessions_for("a") == set()
    assert table.filter_count() == 0


def test_broker_drops_sessions_on_disconnect(broker):
    conn = connect(broker, "leaver")
    conn.subscribe("x/y")
    wait_until(lambda: broker.table.filter_count() == 1, what="subscription")
    conn.disconnect()
    wait_until(lambda: broker.table.filter_count() == 0, what="table cleanup")
    assert broker.table.sessions_for("x/y") == set()


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


def test_a_superseded_session_that_keeps_sending_cannot_hold_the_loop(broker):
    # The old session is drained of what its socket held, not for as long
    # as its peer sends: a third session must still get its PINGRESP.
    witness = connect(broker, "witness")
    witness.ping()
    assert isinstance(witness.recv_packet(timeout=2.0), mqtt.Pingresp)
    flooder = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    flooder.sendall(mqtt.encode_packet(mqtt.Connect(client_id="dup")))
    assert recv_packets(flooder, 1) == [mqtt.Connack()]
    publish = mqtt.encode_packet(mqtt.Publish(topic="t", payload=bytes(16)))
    assert len(publish) == 21
    stop = threading.Event()

    def flood():
        deadline = time.monotonic() + 10.0
        try:
            while not stop.is_set() and time.monotonic() < deadline:
                flooder.sendall(publish * 3000)
        except OSError:  # the broker closed the session
            pass

    sender = threading.Thread(target=flood, daemon=True)
    sender.start()
    try:
        time.sleep(0.2)
        second = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
        second.sendall(mqtt.encode_packet(mqtt.Connect(client_id="dup")))
        time.sleep(0.2)  # the broker has taken the second CONNECT by now
        witness.ping()
        assert isinstance(witness.recv_packet(timeout=1.0), mqtt.Pingresp)
        assert recv_packets(second, 1) == [mqtt.Connack()]
    finally:
        stop.set()
        sender.join(timeout=5.0)
    assert not sender.is_alive()
    flooder.close()
    second.close()
    witness.disconnect()


def test_a_fault_draining_a_superseded_session_closes_that_session_only(broker, monkeypatch):
    # The old session's last PUBLISH is handled while the new session's
    # CONNECT is: a fault routing it must close the old session, and the
    # new one must still connect.
    held, release = threading.Event(), threading.Event()
    real_route = broker.route

    def route(publish):
        if publish.topic == "hold":  # keeps the loop here while both sockets fill
            held.set()
            release.wait(timeout=5.0)
        elif publish.topic == "boom":
            raise RuntimeError("fault routing a drained publish")
        real_route(publish)

    monkeypatch.setattr(broker, "route", route)
    old = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    old.sendall(mqtt.encode_packet(mqtt.Connect(client_id="dup")))
    assert recv_packets(old, 1) == [mqtt.Connack()]
    holder = connect(broker, "holder")
    new = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    wait_until(lambda: broker.stats.connections_accepted == 3, what="three sessions")
    holder.publish("hold", b"")
    assert held.wait(timeout=2.0)
    new.sendall(mqtt.encode_packet(mqtt.Connect(client_id="dup")))
    time.sleep(0.05)  # so the next select lists the new CONNECT first
    old.sendall(mqtt.encode_packet(mqtt.Publish(topic="boom", payload=b"x")))
    time.sleep(0.05)
    release.set()
    assert_closed_by_broker(old)
    new.sendall(raw_subscribe(1, [("t", 0)]))
    assert [type(p) for p in recv_packets(new, 2)] == [mqtt.Connack, mqtt.Suback]
    new.close()
    holder.disconnect()


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


# First bytes of every type, with the flags it allows.
_FIRST_BYTES = [0x10, 0x20, 0x30, 0x31, 0x3B, 0x82, 0x90, 0xA2, 0xB0, 0xC0, 0xD0, 0xE0]


@settings(max_examples=40, deadline=None)
@given(
    first=st.sampled_from(_FIRST_BYTES),
    declared=st.integers(mqtt.MAX_PACKET_LENGTH, mqtt.MAX_REMAINING_LENGTH),
    body=st.binary(max_size=256),
)
def test_large_declared_lengths_close_only_the_offending_session(first, declared, body):
    # A packet no session buffer could hold ends its session from the fixed
    # header on, without waiting for its body or for the end of input.
    with Broker("127.0.0.1", 0) as broker:
        sub = connect(broker, "sub")
        sub.subscribe("t")
        sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
        sock.sendall(
            mqtt.encode_packet(mqtt.Connect(client_id="fuzz"))
            + bytes([first])
            + mqtt.encode_remaining_length(declared)
            + body
        )
        assert_closed_by_broker(sock, timeout=2.0)

        pub = connect(broker, "pub")
        pub.publish("t", b"after")
        assert sub.recv_packet(timeout=2.0) == mqtt.Publish(topic="t", payload=b"after")
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


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads minor faults from Linux /proc"
)
def test_publishers_coming_and_going_do_not_fault_the_broker_heap():
    # Each publisher sends three frames back to back and leaves, as in a
    # stream of short authorized attempts. A read buffer per session, or
    # reads of several frames at once, let glibc trim the heap between
    # sessions: 2 to 21 faults a frame.
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
            payload = bytes(86_412)

            def attempts(count):
                for _ in range(count):
                    pub = MqttConnection("127.0.0.1", port, "pub")
                    pub.connect()
                    for _ in range(3):
                        pub.publish("cam", payload)
                    for _ in range(3):
                        assert sub.recv_packet(timeout=5.0).payload == payload
                    pub.disconnect()

            attempts(10)  # warm-up
            before = _minor_faults(child.pid)
            attempts(60)
            per_frame = (_minor_faults(child.pid) - before) / 180
            sub.disconnect()
        finally:
            child.stdin.close()  # end of input stops the broker
            child.wait(timeout=10)
    assert per_frame <= 1, f"{per_frame:.1f} minor faults per frame"


_FD_STARVED_BROKER_CHILD = """
import resource, sys, time
from streamgate.broker import serve
resource.setrlimit(resource.RLIMIT_NOFILE, (32, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
b = serve('127.0.0.1', 0)
print(b.port, flush=True)
for _ in sys.stdin:  # each line asks for the CPU time spent so far
    print(time.process_time(), flush=True)
b.stop()
"""


def test_broker_out_of_descriptors_sleeps_until_a_session_closes():
    # A connection the broker cannot accept stays pending, so the listener
    # stays readable: a broker that kept watching it spent 2 s of CPU in 2 s.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_NOFILE"):
        pytest.skip("needs RLIMIT_NOFILE")
    src = os.path.dirname(os.path.dirname(streamgate.__file__))
    with subprocess.Popen(
        [sys.executable, "-c", _FD_STARVED_BROKER_CHILD],
        env={**os.environ, "PYTHONPATH": src},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        idle = []
        try:
            port = int(child.stdout.readline())

            def cpu_s():
                child.stdin.write("\n")
                child.stdin.flush()
                return float(child.stdout.readline())

            # About 25 fit in the child's 32 descriptors; the rest stay pending.
            idle = [socket.create_connection(("127.0.0.1", port)) for _ in range(40)]
            time.sleep(0.3)
            before = cpu_s()
            time.sleep(2.0)
            spent = cpu_s() - before
            for sock in idle:
                sock.close()
            late = MqttConnection("127.0.0.1", port, "after-the-flood")
            late.connect()
            assert late.subscribe("alive") == 0
            late.disconnect()
        finally:
            for sock in idle:
                sock.close()
            child.stdin.close()  # end of input stops the broker
            child.wait(timeout=10)
    assert spent < 0.2, f"{spent:.2f} s of broker CPU in 2 s"


_FD_FILLED_BROKER_CHILD = """
import os, resource, sys
from streamgate.broker import serve
resource.setrlimit(resource.RLIMIT_NOFILE, (32, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
b = serve('127.0.0.1', 0)
filler = []
try:
    while True:
        filler.append(os.open(os.devnull, os.O_RDONLY))
except OSError:
    pass
print(b.port, flush=True)
sys.stdin.readline()  # then free the descriptors that no session holds
for fd in filler:
    os.close(fd)
sys.stdin.read()
b.stop()
"""


def test_broker_out_of_descriptors_with_no_session_accepts_once_they_are_free():
    # No session will close to resume accepting, so the broker retries on a timer.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_NOFILE"):
        pytest.skip("needs RLIMIT_NOFILE")
    src = os.path.dirname(os.path.dirname(streamgate.__file__))
    with subprocess.Popen(
        [sys.executable, "-c", _FD_FILLED_BROKER_CHILD],
        env={**os.environ, "PYTHONPATH": src},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        try:
            port = int(child.stdout.readline())
            client = MqttConnection("127.0.0.1", port, "waits-for-a-descriptor")
            client.connect()  # pending: the broker has no descriptor to accept it with
            time.sleep(0.3)
            child.stdin.write("\n")
            child.stdin.flush()
            start = time.monotonic()
            assert client.subscribe("alive") == 0
            waited = time.monotonic() - start
            client.disconnect()
        finally:
            child.stdin.close()  # end of input stops the broker
            child.wait(timeout=10)
    assert waited < broker_module.ACCEPT_RETRY_S + 1.0


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


def test_oversized_packet_after_connect_closes_session_at_once(broker):
    # The header alone says the packet could never be forwarded: the broker
    # must not buffer a session buffer's worth of its body first.
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=5.0)
    sock.sendall(mqtt.encode_packet(mqtt.Connect(client_id="big")))
    assert recv_packets(sock, 1) == [mqtt.Connack()]
    sent = 0
    with pytest.raises(OSError):  # reset before 1 MiB of body is in
        sock.sendall(b"\x30\xff\xff\xff\x7f")
        while sent < 1 << 20:
            time.sleep(0.02)
            sent += sock.send(bytes(64 << 10))
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
