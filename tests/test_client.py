"""Client connection framing against a hand-driven server."""

import random
import re
import socket
import threading
import time

import pytest

from streamgate import client, mqtt
from streamgate.client import ClientError, MqttConnection
from streamgate.enclave import AuthEnclave
from streamgate.keystore import GatewayConfig
from streamgate.pipeline import SyntheticFrameSource, encode_payload, publish_stream
from streamgate.subscriber import subscribe_and_collect

SECRET = bytes(range(100, 132))


def test_publish_larger_than_send_buffer_arrives_intact(monkeypatch):
    # 16 MiB is more than the send and receive buffers of a loopback pair
    # hold, so a server that reads late makes sendmsg take only part.
    payload = random.Random(5).randbytes(16 << 20)
    expected = mqtt.encode_packet(mqtt.Publish(topic="big", payload=payload))
    finished = []
    real_sendall = socket.socket.sendall

    def spy_sendall(sock, data, *args):
        finished.append(len(data))
        return real_sendall(sock, data, *args)

    listener = socket.create_server(("127.0.0.1", 0))
    received = bytearray()

    def serve_one():
        conn, _ = listener.accept()
        with conn:
            connect = mqtt.encode_packet(mqtt.Connect(client_id="pub"))
            while len(received) < len(connect):
                received.extend(conn.recv(len(connect) - len(received)))
            real_sendall(conn, mqtt.encode_packet(mqtt.Connack()))
            del received[:]
            time.sleep(0.3)  # let the client's send buffer fill
            while chunk := conn.recv(1 << 20):
                received.extend(chunk)

    server = threading.Thread(target=serve_one, daemon=True)
    server.start()
    try:
        conn = MqttConnection("127.0.0.1", listener.getsockname()[1], "pub")
        conn.connect()
        monkeypatch.setattr(socket.socket, "sendall", spy_sendall)
        conn.publish("big", payload)
        monkeypatch.undo()
        conn.disconnect()
        server.join(timeout=10.0)
    finally:
        listener.close()
    assert finished, "sendmsg took the whole packet; the partial path did not run"
    assert bytes(received) == expected + mqtt.encode_packet(mqtt.Disconnect())


# -- the pipelined handshake ----------------------------------------------------------


class RawPeer:
    """The server end of one client connection, driven by hand."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.sock.settimeout(2.0)
        self.buffer = bytearray()

    def read(self, count: int) -> list:
        packets = []
        while len(packets) < count:
            try:
                packet, consumed = mqtt.decode_packet(self.buffer)
            except mqtt.NeedMoreDataError:
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise EOFError(f"client closed after {packets}")
                self.buffer += chunk
                continue
            del self.buffer[:consumed]
            packets.append(packet)
        return packets

    def read_to_end(self) -> list:
        packets = []
        while True:
            try:
                packets += self.read(1)
            except EOFError:
                return packets

    def send(self, *packets) -> None:
        self.sock.sendall(b"".join(map(mqtt.encode_packet, packets)))


def serve_one(script):
    """Run ``script(peer)`` for the first connection to a new listener.

    Returns the listener's port and a function that waits for the
    script and returns its result, or raises what it raised.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    outcome = {}

    def run():
        try:
            conn, _ = listener.accept()
            with conn:
                outcome["result"] = script(RawPeer(conn))
        except BaseException as exc:  # handed to the test's thread
            outcome["error"] = exc
        finally:
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def result():
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "server script did not finish"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    return listener.getsockname()[1], result


def gateway_config(port: int) -> GatewayConfig:
    return GatewayConfig(
        camera_width=64,
        camera_height=64,
        camera_fps=200.0,
        mqtt_host="127.0.0.1",
        mqtt_port=port,
        mqtt_client_id="gw",
    )


def stream(port: int, frames: int = 3):
    return publish_stream(
        gateway_config(port),
        AuthEnclave(SECRET),
        SECRET,
        max_frames=frames,
        source=SyntheticFrameSource(64, 64, frame_bytes=64),
    )


def test_publish_stream_sends_its_first_frame_before_the_connack():
    def script(peer):
        before = peer.read(2)  # nothing is written until both are in
        peer.send(mqtt.Connack())
        return before, peer.read_to_end()

    port, result = serve_one(script)
    outcome = stream(port)
    before, after = result()
    assert outcome.stats.frames_sent == 3
    assert before[0] == mqtt.Connect(client_id="gw")
    assert isinstance(before[1], mqtt.Publish)
    assert [type(p) for p in after] == [mqtt.Publish, mqtt.Publish, mqtt.Disconnect]


def test_refusal_read_after_frames_were_sent_raises_client_error():
    def script(peer):
        peer.read(1)
        peer.send(mqtt.Connack(return_code=5))
        return peer.read_to_end()  # the frames arrive; the refusal stands

    port, result = serve_one(script)
    with pytest.raises(ClientError, match="return code 5"):
        stream(port)
    assert mqtt.Disconnect() not in result()


def test_refusal_with_a_closed_socket_raises_client_error_not_a_broken_pipe():
    # The broker answers and closes at once: the frames that follow are
    # reset, and the refusal must still be what the caller sees.
    def script(peer):
        peer.read(1)
        peer.send(mqtt.Connack(return_code=5))

    port, result = serve_one(script)
    with pytest.raises(ClientError, match="return code 5"):
        stream(port, frames=50)
    result()


def test_subscribe_is_sent_before_the_connack_is_read():
    def script(peer):
        before = peer.read(2)
        peer.send(mqtt.Connack(), mqtt.Suback(packet_id=7, granted=(0,)))
        return before, peer.read_to_end()

    port, result = serve_one(script)
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    assert conn.subscribe("cam/#", packet_id=7) == 0
    conn.disconnect()
    before, after = result()
    assert before == [
        mqtt.Connect(client_id="sub"),
        mqtt.Subscribe(packet_id=7, filters=(("cam/#", 0),)),
    ]
    assert after == [mqtt.Disconnect()]


def test_a_publish_before_the_suback_is_kept_for_recv_packet():
    # MQTT 3.1.1 section 3.8.4: a server may send PUBLISH packets for the
    # new subscription before its SUBACK.
    early = mqtt.Publish(topic="cam/1", payload=b"early frame")

    def script(peer):
        peer.read(2)
        peer.send(mqtt.Connack(), early, mqtt.Suback(packet_id=1, granted=(0,)))
        return peer.read_to_end()

    port, result = serve_one(script)
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    assert conn.subscribe("cam/#") == 0
    assert conn.recv_packet(timeout=2.0) == early
    conn.disconnect()
    assert result() == [mqtt.Disconnect()]


def test_disconnect_waits_for_the_connack_before_its_disconnect():
    # Else the broker could take the same client id's next CONNECT first.
    def script(peer):
        peer.read(1)
        time.sleep(0.3)
        peer.sock.setblocking(False)
        try:
            early = peer.sock.recv(64)
        except BlockingIOError:
            early = b""
        peer.sock.settimeout(2.0)
        peer.send(mqtt.Connack())
        return early, peer.read_to_end()

    port, result = serve_one(script)
    conn = MqttConnection("127.0.0.1", port, "gw")
    conn.connect()
    conn.disconnect()
    early, after = result()
    assert early == b""
    assert after == [mqtt.Disconnect()]


@pytest.mark.parametrize("call", ["recv_packet", "subscribe", "disconnect"])
def test_every_reading_call_reports_a_refusal(call):
    def script(peer):
        peer.read(1)
        peer.send(mqtt.Connack(return_code=2))
        peer.read_to_end()

    port, result = serve_one(script)
    conn = MqttConnection("127.0.0.1", port, "gw")
    conn.connect()
    conn.publish("t", b"x")  # never waits for the CONNACK
    with pytest.raises(ClientError, match="return code 2"):
        getattr(conn, call)(*(["t"] if call == "subscribe" else []))
    with pytest.raises(ClientError, match="not connected"):
        conn.publish("t", b"x")
    result()


def test_close_without_a_connack_gives_up_after_the_connect_timeout(monkeypatch):
    def script(peer):
        peer.read(1)
        return peer.read_to_end()

    port, result = serve_one(script)
    monkeypatch.setattr(client, "WAIT_S", 0.3)
    conn = MqttConnection("127.0.0.1", port, "gw")
    conn.connect()
    start = time.monotonic()
    with pytest.raises(ClientError, match="no CONNACK"):
        conn.disconnect()
    assert 0.25 <= time.monotonic() - start <= 2.0
    with pytest.raises(ClientError, match="not connected"):
        conn.publish("t", b"x")
    assert result() == []


def test_subscribe_without_a_suback_gives_up_after_the_connect_timeout(monkeypatch):
    def script(peer):
        peer.read(2)
        peer.send(mqtt.Connack())
        return peer.read_to_end()

    port, result = serve_one(script)
    monkeypatch.setattr(client, "WAIT_S", 0.3)
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    start = time.monotonic()
    with pytest.raises(ClientError, match=r"no SUBACK within 0\.3 s"):
        conn.subscribe("cam/#")
    assert 0.25 <= time.monotonic() - start <= 2.0
    conn.disconnect()
    assert result() == [mqtt.Disconnect()]


@pytest.mark.parametrize(
    "answer,refusal",
    [
        (mqtt.Suback(packet_id=1, granted=(0x80,)), "broker rejected filter 'cam/#'"),
        (mqtt.Suback(packet_id=2, granted=(0,)), "suback for unexpected packet id 2"),
        (None, "broker closed the connection during subscribe"),
    ],
    ids=["failure-code", "other-packet-id", "closed-after-connack"],
)
def test_each_subscribe_refusal_raises_client_error(monkeypatch, answer, refusal):
    def script(peer):
        peer.read(2)
        peer.send(mqtt.Connack(), *([answer] if answer else []))
        if answer:  # else the connection closes here
            peer.read_to_end()

    port, result = serve_one(script)
    monkeypatch.setattr(client, "WAIT_S", 0.3)
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    with pytest.raises(ClientError, match=re.escape(refusal)):
        conn.subscribe("cam/#")
    conn.disconnect()
    result()


# -- what a broker can make the client hold or wait for -----------------------------


def test_packet_over_the_cap_closes_before_it_is_buffered(monkeypatch):
    # The header declares 256 MiB; the client must not wait for it, or
    # hold the 4 MiB that follow it, before giving up.
    reads = []
    real_recv_into = socket.socket.recv_into

    def spy_recv_into(sock, *args):
        received = real_recv_into(sock, *args)
        reads.append(received)
        return received

    def script(peer):
        peer.read(1)
        peer.send(mqtt.Connack())
        try:
            peer.sock.sendall(b"\x30\xff\xff\xff\x7f" + bytes(4 << 20))
            return peer.sock.recv(1)
        except ConnectionError:  # reset: the client closed with bytes unread
            return b""

    port, result = serve_one(script)
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    monkeypatch.setattr(socket.socket, "recv_into", spy_recv_into)
    assert conn.recv_packet(timeout=5.0) is None
    monkeypatch.undo()
    with pytest.raises(ClientError, match="not connected"):
        conn.publish("t", b"x")
    assert result() == b""
    assert sum(reads) < 1 << 20


# 45 bytes on the wire, sent one byte per 0.1 s after the handshake.
TRICKLED = mqtt.encode_packet(mqtt.Publish(topic="t", payload=bytes(40)))


def trickle_after(*answers):
    """A server script: read one packet per answer, send the answers, then
    trickle TRICKLED until it is out or the client has gone."""

    def script(peer):
        peer.read(len(answers))
        peer.send(*answers)
        try:
            for byte in TRICKLED:
                time.sleep(0.1)
                peer.sock.sendall(bytes([byte]))
        except OSError:
            pass

    return script


def test_recv_timeout_bounds_the_whole_call_not_each_read():
    port, result = serve_one(trickle_after(mqtt.Connack()))
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        conn.recv_packet(timeout=0.3)
    assert time.monotonic() - start < 0.6
    conn.disconnect()
    result()


def test_a_timed_out_packet_is_returned_whole_by_a_later_call():
    port, result = serve_one(trickle_after(mqtt.Connack()))
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    timeouts = 0
    while True:
        try:
            packet = conn.recv_packet(timeout=0.3)
            break
        except TimeoutError:
            timeouts += 1
    assert packet == mqtt.decode_packet(TRICKLED)[0]
    assert timeouts >= 5  # the packet took about 4.5 s
    conn.disconnect()
    result()


def test_a_trickling_broker_cannot_hold_a_subscriber_past_its_duration():
    port, result = serve_one(
        trickle_after(mqtt.Connack(), mqtt.Suback(packet_id=1, granted=(0,)))
    )
    start = time.monotonic()
    report = subscribe_and_collect("127.0.0.1", port, "t", duration_s=0.5)
    assert time.monotonic() - start < 2.0
    assert report.frames_received == 0
    result()


def test_a_flooding_broker_cannot_hold_a_subscriber_past_its_duration():
    # The socket is never empty, so only the deadline can end collection.
    frame = SyntheticFrameSource(64, 64, frame_bytes=65536).frame_at(0)
    burst = mqtt.encode_packet(mqtt.Publish(topic="t", payload=encode_payload(frame))) * 16

    def script(peer):
        peer.read(2)
        peer.send(mqtt.Connack(), mqtt.Suback(packet_id=1, granted=(0,)))
        give_up = time.monotonic() + 5.0  # so a subscriber that overstays fails, not hangs
        try:
            while time.monotonic() < give_up:
                peer.sock.sendall(burst)
        except OSError:  # the subscriber has gone
            pass

    port, result = serve_one(script)
    start = time.monotonic()
    report = subscribe_and_collect("127.0.0.1", port, "t", duration_s=0.5)
    assert time.monotonic() - start < 1.5
    assert report.frames_received > 0
    result()


# -- the waits: a read bounded by its call, a send by the connect timeout ------------


def test_recv_timeout_zero_takes_a_packet_already_in_and_never_waits():
    answered = threading.Event()

    def script(peer):
        peer.read(2)
        peer.send(mqtt.Connack(), mqtt.Pingresp())
        peer.read(1)
        peer.send(mqtt.Pingresp())
        answered.set()
        return peer.read_to_end()

    port, result = serve_one(script)
    conn = MqttConnection("127.0.0.1", port, "sub")
    conn.connect()
    conn.ping()
    assert conn.recv_packet(timeout=2.0) == mqtt.Pingresp()
    conn.ping()
    assert answered.wait(2.0)
    time.sleep(0.1)  # for loopback to deliver it
    assert conn.recv_packet(timeout=0) == mqtt.Pingresp()
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        conn.recv_packet(timeout=0)
    assert time.monotonic() - start < 0.05
    conn.disconnect()
    result()


@pytest.mark.parametrize("read_timeout", [None, 0])
def test_a_send_to_a_peer_that_never_reads_gives_up_after_the_connect_timeout(
    read_timeout, monkeypatch
):
    # Whatever wait the last read used, a send waits for client.WAIT_S.
    answered = threading.Event()
    done = threading.Event()

    def script(peer):
        peer.read(2)
        peer.send(mqtt.Connack(), mqtt.Pingresp())
        answered.set()
        done.wait(10.0)  # never reads the publish

    port, result = serve_one(script)
    monkeypatch.setattr(client, "WAIT_S", 0.3)
    conn = MqttConnection("127.0.0.1", port, "pub")
    conn.connect()
    conn.ping()
    assert answered.wait(2.0)
    time.sleep(0.1)  # for loopback to deliver both
    assert conn.recv_packet(timeout=read_timeout) == mqtt.Pingresp()
    start = time.monotonic()
    try:
        with pytest.raises(ClientError, match="send failed"):
            conn.publish("big", bytes(16 << 20))
        assert 0.25 <= time.monotonic() - start < 0.8
    finally:
        done.set()
        conn.disconnect()
    result()
