"""Delivery collection, fault isolation, and disk sink behavior."""

import base64
import hashlib
import logging
import socket
import threading
import time
from pathlib import Path

import pytest

from streamgate import mqtt
from streamgate.broker import Broker
from streamgate.client import MqttConnection
from streamgate.pipeline import SyntheticFrameSource, encode_payload
from streamgate.subscriber import DeliveryReport, subscribe_and_collect

TOPIC = "camera/stream"


def collect_in_thread(broker, box, **kwargs):
    def _run():
        box["report"] = subscribe_and_collect(
            "127.0.0.1", broker.port, TOPIC, **kwargs
        )

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 3.0
    while broker.table.filter_count() == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert broker.table.filter_count() == 1, "subscriber never registered"
    return thread


def publish_frames(broker, frames, client_id="feeder"):
    pub = MqttConnection("127.0.0.1", broker.port, client_id)
    pub.connect()
    for frame in frames:
        pub.publish(TOPIC, encode_payload(frame))
    pub.disconnect()


def test_collects_published_frames_with_hashes():
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    frames = [source.next_frame() for _ in range(10)]
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=10, duration_s=8.0)
        publish_frames(broker, frames)
        thread.join(timeout=8.0)
    report = box["report"]
    assert report.frames_received == 10
    assert report.decode_failure_count == 0
    assert report.out_of_order_count == 0
    assert report.content_hashes == [
        hashlib.sha256(f.bytes).hexdigest() for f in frames
    ]


def test_received_hashes_subset_of_published():
    source = SyntheticFrameSource(32, 32, frame_bytes=32)
    frames = [source.next_frame() for _ in range(25)]
    published = {hashlib.sha256(f.bytes).hexdigest() for f in frames}
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=25, duration_s=8.0)
        publish_frames(broker, frames)
        thread.join(timeout=8.0)
    assert set(box["report"].content_hashes) <= published


def test_bad_payload_counted_not_fatal():
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=2, duration_s=8.0)
        pub = MqttConnection("127.0.0.1", broker.port, "feeder")
        pub.connect()
        pub.publish(TOPIC, encode_payload(source.frame_at(0)))
        pub.publish(TOPIC, b"!this is not base64!")
        pub.publish(TOPIC, encode_payload(source.frame_at(1)))
        pub.disconnect()
        thread.join(timeout=8.0)
    report = box["report"]
    assert report.frames_received == 2
    assert report.decode_failure_count == 1


def test_consecutive_bad_payloads_log_distinct_numbers(tmp_path, caplog):
    # Numbered by decoded frames, all three logged "payload 0".
    caplog.set_level(logging.WARNING, logger="streamgate.subscriber")
    frame = SyntheticFrameSource(64, 64, frame_bytes=64).frame_at(0)
    sink = tmp_path / "frames"
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=1, duration_s=8.0, sink_dir=sink)
        pub = MqttConnection("127.0.0.1", broker.port, "feeder")
        pub.connect()
        for junk in (b"!not base64!", b"abc", b"@@@@"):
            pub.publish(TOPIC, junk)
        pub.publish(TOPIC, encode_payload(frame))
        pub.disconnect()
        thread.join(timeout=8.0)
    report = box["report"]
    assert report.decode_failure_count == 3
    assert report.frames_received == 1
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"payload {i} failed base64 decode, skipping" for i in range(3)]
    assert [p.name for p in sink.iterdir()] == ["frame_000000.bin"]
    assert (sink / "frame_000000.bin").read_bytes() == frame.bytes


def test_frames_without_an_index_are_named_by_decoded_count(tmp_path):
    sink = tmp_path / "frames"
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=2, duration_s=8.0, sink_dir=sink)
        pub = MqttConnection("127.0.0.1", broker.port, "feeder")
        pub.connect()
        pub.publish(TOPIC, b"!not base64!")  # counted apart, takes no name
        pub.publish(TOPIC, base64.b64encode(b"tiny"))
        pub.publish(TOPIC, base64.b64encode(b"four"))
        pub.disconnect()
        thread.join(timeout=8.0)
    assert box["report"].frames_received == 2
    assert sorted(p.name for p in sink.iterdir()) == ["frame_000000.bin", "frame_000001.bin"]
    assert (sink / "frame_000000.bin").read_bytes() == b"tiny"
    assert (sink / "frame_000001.bin").read_bytes() == b"four"


def test_empty_topic_times_out_cleanly():
    with Broker("127.0.0.1", 0) as broker:
        start = time.monotonic()
        report = subscribe_and_collect(
            "127.0.0.1", broker.port, "nothing/here", duration_s=1.0
        )
        elapsed = time.monotonic() - start
    assert report.frames_received == 0
    assert report.measured_fps is None
    assert 0.9 <= elapsed <= 3.0


def test_subscribed_is_logged_before_collection_starts(caplog):
    # Scripts wait for this line before they start a stream: QoS 0 keeps
    # nothing for a subscriber that is not subscribed yet.
    caplog.set_level(logging.INFO, logger="streamgate.subscriber")
    with Broker("127.0.0.1", 0) as broker:
        report = subscribe_and_collect("127.0.0.1", broker.port, TOPIC, max_frames=0)
    messages = [r.getMessage() for r in caplog.records if r.name == "streamgate.subscriber"]
    assert report.frames_received == 0
    assert messages[0] == f"subscribed to {TOPIC}"
    assert messages[-1].startswith("collection done")


def test_broker_shutdown_ends_collection_cleanly():
    broker = Broker("127.0.0.1", 0).start()
    box = {}
    thread = collect_in_thread(broker, box, duration_s=10.0)
    time.sleep(0.2)
    broker.stop()
    thread.join(timeout=5.0)
    assert box["report"].frames_received == 0


def test_out_of_order_detection():
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    shuffled = [source.frame_at(i) for i in (0, 2, 1)]
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=3, duration_s=8.0)
        publish_frames(broker, shuffled)
        thread.join(timeout=8.0)
    report = box["report"]
    assert report.frames_received == 3
    assert report.out_of_order_count == 1
    # Each frame's index is in its hashed bytes.
    assert report.content_hashes == [hashlib.sha256(f.bytes).hexdigest() for f in shuffled]


def test_sink_writes_numbered_files(tmp_path):
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    frames = [source.frame_at(i) for i in range(4)]
    sink = tmp_path / "frames"
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(
            broker, box, max_frames=4, duration_s=8.0, sink_dir=sink
        )
        publish_frames(broker, frames)
        thread.join(timeout=8.0)
    names = sorted(p.name for p in sink.iterdir())
    assert names == [f"frame_{i:06d}.bin" for i in range(4)]
    for i, frame in enumerate(frames):
        assert (sink / f"frame_{i:06d}.bin").read_bytes() == frame.bytes
    assert box["report"].write_drop_count == 0


def test_slow_sink_writes_leave_every_frame_on_disk_or_counted(tmp_path, monkeypatch):
    # A write that takes 0.2 s holds up receipt; the duration bound then ends
    # collection with frames unread, never with frames received but unwritten.
    real_write_bytes = Path.write_bytes

    def slow_write_bytes(path, data):
        time.sleep(0.2)
        return real_write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", slow_write_bytes)
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    sink = tmp_path / "frames"
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, duration_s=1.0, sink_dir=sink)
        publish_frames(broker, [source.frame_at(i) for i in range(60)])
        thread.join(timeout=10.0)
    report = box["report"]
    assert report.frames_received > 0
    assert len(list(sink.iterdir())) == report.frames_received - report.write_drop_count


def test_failed_sink_write_is_counted_and_the_rest_are_written(tmp_path):
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    frames = [source.frame_at(i) for i in range(4)]
    sink = tmp_path / "frames"
    (sink / "frame_000001.bin").mkdir(parents=True)  # a name no file can take
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(
            broker, box, max_frames=4, duration_s=8.0, sink_dir=sink
        )
        publish_frames(broker, frames)
        thread.join(timeout=8.0)
    assert box["report"].frames_received == 4
    assert box["report"].write_drop_count == 1
    for i in (0, 2, 3):
        assert (sink / f"frame_{i:06d}.bin").read_bytes() == frames[i].bytes


def test_sink_starts_no_thread(tmp_path, monkeypatch):
    with Broker("127.0.0.1", 0) as broker:
        started = []
        real_start = threading.Thread.start

        def record_start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        subscribe_and_collect(
            "127.0.0.1", broker.port, TOPIC, max_frames=0, sink_dir=tmp_path / "frames"
        )
        monkeypatch.undo()
    assert started == []


def test_measured_fps_from_arrival_times():
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=8, duration_s=8.0)
        pub = MqttConnection("127.0.0.1", broker.port, "feeder")
        pub.connect()
        for i in range(8):
            pub.publish(TOPIC, encode_payload(source.frame_at(i)))
            time.sleep(0.05)  # ~20 fps
        pub.disconnect()
        thread.join(timeout=8.0)
    fps = box["report"].measured_fps
    assert fps is not None
    assert 12.0 <= fps <= 28.0


def arrivals(first, last, frames):
    return DeliveryReport(frames_received=frames, first_timestamp=first, last_timestamp=last)


def test_measured_fps_fifteen_frames_in_a_second():
    assert arrivals(0.0, 1.0, 15).measured_fps == pytest.approx(14.0)


def test_measured_fps_two_frames():
    assert arrivals(0.0, 0.1, 2).measured_fps == pytest.approx(10.0)


def test_measured_fps_needs_two_frames():
    assert arrivals(0.0, 0.0, 1).measured_fps is None
    assert DeliveryReport().measured_fps is None


def test_measured_fps_none_for_frozen_clock():
    assert arrivals(1.0, 1.0, 2).measured_fps is None


def test_requires_a_bound():
    with pytest.raises(ValueError):
        subscribe_and_collect("127.0.0.1", 1883, TOPIC)


def test_non_publish_packets_ignored():
    # A stray pingresp in the stream must not disturb collection.
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    with Broker("127.0.0.1", 0) as broker:
        box = {}
        thread = collect_in_thread(broker, box, max_frames=1, duration_s=8.0)
        pub = MqttConnection("127.0.0.1", broker.port, "feeder")
        pub.connect()
        pub.publish(TOPIC, encode_payload(source.frame_at(0)))
        pub.disconnect()
        thread.join(timeout=8.0)
    assert box["report"].frames_received == 1


def test_malformed_packet_ends_collection_with_partial_report():
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve_one():
        # CONNACK, SUBACK, one valid frame, then a packet of reserved type 0.
        conn, _ = listener.accept()
        with conn:
            buffer = bytearray()

            def await_packet():
                while True:
                    try:
                        _packet, consumed = mqtt.decode_packet(buffer)
                        del buffer[:consumed]
                        return
                    except mqtt.NeedMoreDataError:
                        buffer.extend(conn.recv(4096))

            await_packet()  # CONNECT
            conn.sendall(mqtt.encode_packet(mqtt.Connack()))
            await_packet()  # SUBSCRIBE
            payload = encode_payload(source.frame_at(0))
            conn.sendall(
                mqtt.encode_packet(mqtt.Suback(packet_id=1, granted=(0,)))
                + mqtt.encode_packet(mqtt.Publish(topic=TOPIC, payload=payload))
                + b"\x00\x00"
            )
            conn.settimeout(5.0)
            while conn.recv(4096):  # until the client hangs up
                pass

    server = threading.Thread(target=serve_one, daemon=True)
    server.start()
    try:
        report = subscribe_and_collect(
            "127.0.0.1", port, TOPIC, max_frames=5, duration_s=5.0
        )
    finally:
        server.join(timeout=5.0)
        listener.close()
    assert report.frames_received == 1
    assert report.content_hashes == [hashlib.sha256(source.frame_at(0).bytes).hexdigest()]
