"""Client connection framing against a hand-driven server."""

import random
import socket
import threading
import time

import pytest

from streamgate import mqtt
from streamgate.client import ClientError, MqttConnection
from streamgate.enclave import provision
from streamgate.keystore import GatewayConfig
from streamgate.pipeline import SyntheticFrameSource, publish_stream

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
        conn.close()
        server.join(timeout=10.0)
    finally:
        listener.close()
    assert finished, "sendmsg took the whole packet; the partial path did not run"
    assert bytes(received) == expected


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
        provision(SECRET),
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


@pytest.mark.parametrize("call", ["recv_packet", "subscribe", "disconnect", "close"])
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
    assert not conn.connected
    result()


def test_close_without_a_connack_gives_up_after_the_connect_timeout():
    def script(peer):
        peer.read(1)
        return peer.read_to_end()

    port, result = serve_one(script)
    conn = MqttConnection("127.0.0.1", port, "gw", connect_timeout=0.3)
    conn.connect()
    start = time.monotonic()
    with pytest.raises(ClientError, match="no CONNACK"):
        conn.close()
    assert 0.25 <= time.monotonic() - start <= 2.0
    assert not conn.connected
    assert result() == []
