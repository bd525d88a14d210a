"""Client connection framing against a hand-driven server."""

import random
import socket
import threading
import time

from streamgate import mqtt
from streamgate.client import MqttConnection


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
