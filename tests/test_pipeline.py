"""Frame sources, payload codec, pacing, and the authentication gate."""

import hashlib
import random
import threading
import time

import pytest

from streamgate import pipeline
from streamgate.broker import Broker
from streamgate.client import ClientError, MqttConnection
from streamgate.enclave import AuthEnclave
from streamgate.keystore import GatewayConfig
from streamgate.pipeline import (
    DirectoryFrameSource,
    SourceError,
    StreamAborted,
    SyntheticFrameSource,
    decode_payload,
    encode_payload,
    publish_stream,
)
from streamgate.subscriber import subscribe_and_collect

SECRET = bytes(range(100, 132))


def small_config(broker, fps=50.0, topic="camera/stream") -> GatewayConfig:
    return GatewayConfig(
        camera_width=64,
        camera_height=64,
        camera_fps=fps,
        mqtt_host="127.0.0.1",
        mqtt_port=broker.port,
        mqtt_topic=topic,
        mqtt_client_id="test-publisher",
    )


# -- synthetic source -----------------------------------------------------------


def test_first_eight_bytes_encode_index():
    source = SyntheticFrameSource(1920, 1080)
    frame = source.next_frame()
    assert frame.index == 0
    assert frame.bytes[:8] == (0).to_bytes(8, "big")
    frame = source.next_frame()
    assert frame.bytes[:8] == (1).to_bytes(8, "big")


def test_frame_index_reads_the_header_both_sources_write():
    assert pipeline.frame_index(SyntheticFrameSource(64, 64).frame_at(7).bytes) == 7
    assert pipeline.frame_index(pipeline._with_index(2**40, b"body")) == 2**40
    assert pipeline.frame_index(b"tiny") is None


def test_synthetic_frames_deterministic():
    a = SyntheticFrameSource(320, 240).frame_at(7)
    b = SyntheticFrameSource(320, 240).frame_at(7)
    assert a.bytes == b.bytes
    assert SyntheticFrameSource(320, 241).frame_at(7).bytes != a.bytes
    assert SyntheticFrameSource(320, 240).frame_at(8).bytes != a.bytes


def test_synthetic_frame_bytes_are_pinned():
    # Frames are a pure function of their inputs: these digests must
    # hold on every machine and every supported Python.
    def digest(source, index):
        return hashlib.sha256(source.frame_at(index).bytes).hexdigest()

    hd = SyntheticFrameSource(1920, 1080)
    assert digest(hd, 0) == "99db66f68db6c225ec6b99993a046b6cc72deb79dfc9d8a4cbf3f37d9138b3e7"
    assert digest(hd, 255) == "d35d493888fb4d7faffdac8131637b7a6d3dedbe4d3c6daaa6bd8b81c69f701a"
    small = SyntheticFrameSource(64, 64, frame_bytes=64)
    assert digest(small, 3) == "ece45332b31c11dd986852713f996b9b8775e981e68c9f0356ace4e0836c219a"
    header_only = SyntheticFrameSource(64, 64, frame_bytes=8)
    assert header_only.frame_at(5).bytes == (5).to_bytes(8, "big")


def test_synthetic_bodies_distinct_across_a_pool():
    source = SyntheticFrameSource(1920, 1080)
    bodies = {source.frame_at(i).bytes[8:] for i in range(256)}
    assert len(bodies) == 256


def test_synthetic_frame_length_scales_with_geometry():
    assert pipeline.synthetic_frame_length(1920, 1080) == 8 + (1920 * 1080) // 32
    source = SyntheticFrameSource(1920, 1080)
    assert len(source.next_frame().bytes) == pipeline.synthetic_frame_length(1920, 1080)


def test_synthetic_frame_bytes_override():
    source = SyntheticFrameSource(64, 64, frame_bytes=128)
    assert len(source.next_frame().bytes) == 128


def test_synthetic_rejects_bad_geometry():
    with pytest.raises(SourceError):
        SyntheticFrameSource(0, 64)


def test_frame_indices_strictly_increasing():
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    indices = [source.next_frame().index for _ in range(10)]
    assert indices == list(range(10))


# -- directory source --------------------------------------------------------------


def test_directory_lexicographic_order(tmp_path):
    (tmp_path / "b.bin").write_bytes(b"second")
    (tmp_path / "a.bin").write_bytes(b"first")
    source = DirectoryFrameSource(tmp_path, 64, 64)
    assert source.next_frame().bytes == (0).to_bytes(8, "big") + b"first"
    assert source.next_frame().bytes == (1).to_bytes(8, "big") + b"second"
    assert source.next_frame().bytes == (2).to_bytes(8, "big") + b"first"  # cycles


def test_directory_frames_arrive_in_order_under_their_own_names(tmp_path):
    # Files that share their first 8 bytes, as JPEG headers do: the
    # subscriber must read each frame's index, not the file's header.
    frames_dir = tmp_path / "in"
    frames_dir.mkdir()
    files = [frames_dir / f"{name}.jpg" for name in "abc"]
    for path in files:
        path.write_bytes(b"\xff\xd8\xff\xe0\x00\x10JFIF" + path.stem.encode())
    sink = tmp_path / "out"
    box = {}
    with Broker("127.0.0.1", 0) as broker:

        def collect():
            box["report"] = subscribe_and_collect(
                "127.0.0.1", broker.port, "camera/stream",
                max_frames=3, duration_s=8.0, sink_dir=sink,
            )

        collector = threading.Thread(target=collect, daemon=True)
        collector.start()
        deadline = time.monotonic() + 3.0
        while broker.table.filter_count() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        source = DirectoryFrameSource(frames_dir, 64, 64)
        config = small_config(broker, fps=50.0)
        publish_stream(config, AuthEnclave(SECRET), SECRET, max_frames=3, source=source)
        collector.join(timeout=8.0)
    report = box["report"]
    assert report.frames_received == 3
    assert report.out_of_order_count == 0
    assert sorted(p.name for p in sink.iterdir()) == [f"frame_{i:06d}.bin" for i in range(3)]
    for i, path in enumerate(files):
        expected = i.to_bytes(8, "big") + path.read_bytes()
        assert (sink / f"frame_{i:06d}.bin").read_bytes() == expected


def test_empty_directory_is_source_error(tmp_path):
    with pytest.raises(SourceError):
        DirectoryFrameSource(tmp_path, 64, 64)


def test_missing_directory_is_source_error(tmp_path):
    with pytest.raises(SourceError):
        DirectoryFrameSource(tmp_path / "absent", 64, 64)


# -- payload codec --------------------------------------------------------------------


def reference_base64(data: bytes) -> str:
    # Independent bit-shifting oracle for the payload encoding.
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    out = []
    for i in range(0, len(data), 3):
        chunk = data[i : i + 3]
        n = int.from_bytes(chunk.ljust(3, b"\x00"), "big")
        quad = [alphabet[(n >> s) & 0x3F] for s in (18, 12, 6, 0)]
        if len(chunk) < 3:
            quad[-1] = "="
        if len(chunk) < 2:
            quad[-2] = "="
        out.append("".join(quad))
    return "".join(out)


def frame_of(data: bytes) -> pipeline.Frame:
    return pipeline.Frame(index=0, width=1, height=1, bytes=data, captured_at=0.0)


def test_payload_known_vector():
    assert encode_payload(frame_of(b"\x4d\x61\x6e")) == b"TWFu"


def test_empty_payload():
    assert encode_payload(frame_of(b"")) == b""


def test_payload_matches_reference_encoder():
    rng = random.Random(42)
    for _ in range(500):
        data = rng.randbytes(rng.randrange(0, 100))
        assert encode_payload(frame_of(data)) == reference_base64(data).encode("ascii")


def test_payload_round_trip_and_length():
    rng = random.Random(43)
    for _ in range(200):
        data = rng.randbytes(rng.randrange(0, 300))
        text = encode_payload(frame_of(data))
        assert decode_payload(text) == data
        assert len(text) == 4 * ((len(data) + 2) // 3)


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_payload("!!!not base64!!!")


# -- the authentication gate --------------------------------------------------------------


def test_wrong_key_publishes_nothing():
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker)
        enclave = AuthEnclave(SECRET)
        result = publish_stream(
            config,
            enclave,
            bytes(32),
            max_frames=5,
            source=SyntheticFrameSource(64, 64, frame_bytes=64),
        )
        assert not result.authorized
        assert result.stats is None
        time.sleep(0.1)
        assert broker.stats.publishes_received == 0
        assert broker.stats.connections_accepted == 0  # gate precedes connect


def test_refusal_happens_without_any_broker():
    # No broker anywhere; a wrong key must still return cleanly.
    config = GatewayConfig(mqtt_host="127.0.0.1", mqtt_port=9, camera_fps=10)
    enclave = AuthEnclave(SECRET)
    result = publish_stream(config, enclave, b"", max_frames=1)
    assert not result.authorized


def test_correct_key_publishes_exactly_bound():
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker, fps=200.0)
        enclave = AuthEnclave(SECRET)
        result = publish_stream(
            config,
            enclave,
            SECRET,
            max_frames=12,
            source=SyntheticFrameSource(64, 64, frame_bytes=64),
        )
        assert result.authorized
        assert result.stats.frames_sent == 12
        deadline = time.monotonic() + 2.0
        while broker.stats.publishes_received < 12 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert broker.stats.publishes_received == 12


def test_gate_integrity_randomized_candidates():
    rng = random.Random(1234)
    with Broker("127.0.0.1", 0) as broker:
        enclave = AuthEnclave(SECRET)
        expected = 0
        for trial in range(12):
            use_correct = rng.random() < 0.5
            candidate = SECRET if use_correct else rng.randbytes(32)
            config = small_config(broker, fps=500.0)
            config.mqtt_client_id = f"gate-{trial}"
            result = publish_stream(
                config,
                enclave,
                candidate,
                max_frames=3,
                source=SyntheticFrameSource(64, 64, frame_bytes=64),
            )
            if use_correct:
                expected += 3
                assert result.authorized
            else:
                assert not result.authorized
        deadline = time.monotonic() + 2.0
        while broker.stats.publishes_received < expected and time.monotonic() < deadline:
            time.sleep(0.01)
        assert broker.stats.publishes_received == expected


# -- bounds and pacing ------------------------------------------------------------------------


def test_requires_a_bound():
    enclave = AuthEnclave(SECRET)
    with pytest.raises(ValueError):
        publish_stream(GatewayConfig(), enclave, SECRET)


def test_negative_frame_bound_refused_before_authenticating(monkeypatch):
    def no_authenticate(*args):
        raise AssertionError("authenticated")

    monkeypatch.setattr(pipeline.driver, "authenticate", no_authenticate)
    config = GatewayConfig(mqtt_host="127.0.0.1", mqtt_port=9)
    with pytest.raises(ValueError, match="max_frames"):
        publish_stream(config, AuthEnclave(SECRET), SECRET, max_frames=-1)


@pytest.mark.parametrize("fps", [-5.0, 0.0, float("nan")])
def test_non_positive_fps_refused_before_authenticating(monkeypatch, fps):
    def no_authenticate(*args):
        raise AssertionError("authenticated")

    monkeypatch.setattr(pipeline.driver, "authenticate", no_authenticate)
    # Nothing listens on port 9 either: a connect would raise ClientError.
    config = GatewayConfig(camera_fps=fps, mqtt_host="127.0.0.1", mqtt_port=9)
    with pytest.raises(ValueError, match="camera_fps"):
        publish_stream(config, AuthEnclave(SECRET), SECRET, max_frames=3)


@pytest.mark.parametrize(
    "topic",
    ["cam/#", "cam/+/raw", "a\x00b", pytest.param("t" * 65_536, id="over-65535-bytes")],
)
def test_bad_topic_refused_before_authenticating(topic):
    enclave = AuthEnclave(SECRET)
    with Broker("127.0.0.1", 0) as broker:
        with pytest.raises(ValueError, match="topic"):
            publish_stream(small_config(broker, topic=topic), enclave, SECRET, max_frames=3)
        assert broker.stats.connections_accepted == 0
    assert enclave.cycle_counter == 0  # the enclave never ran


@pytest.mark.parametrize("client_id", ["a\x00b", pytest.param("c" * 70_000, id="over-65535-bytes")])
def test_bad_client_id_refused_before_authenticating(client_id):
    enclave = AuthEnclave(SECRET)
    config = GatewayConfig(mqtt_host="127.0.0.1", mqtt_port=9, mqtt_client_id=client_id)
    with pytest.raises(ValueError, match="client id"):
        publish_stream(config, enclave, SECRET, max_frames=3)
    assert enclave.cycle_counter == 0  # the enclave never ran


def test_bad_camera_source_refused_before_authenticating(monkeypatch, tmp_path):
    # An authorized key must never be spent on a stream that cannot start.
    calls = []
    authenticate = pipeline.driver.authenticate

    def spy(*args):
        calls.append(args)
        return authenticate(*args)

    monkeypatch.setattr(pipeline.driver, "authenticate", spy)
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker)
        config.camera_source = str(tmp_path / "absent")
        with pytest.raises(SourceError, match="not a directory"):
            publish_stream(config, AuthEnclave(SECRET), SECRET, max_frames=3)
        assert broker.stats.connections_accepted == 0
    assert calls == []


def test_unreachable_broker_raises_client_error():
    # Bind a port and close it so nothing is listening there.
    import socket as socket_mod

    probe = socket_mod.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    config = GatewayConfig(mqtt_host="127.0.0.1", mqtt_port=port, camera_fps=10)
    enclave = AuthEnclave(SECRET)
    with pytest.raises(ClientError):
        publish_stream(config, enclave, SECRET, max_frames=1)


def test_pacing_hits_target_rate():
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker, fps=40.0)
        enclave = AuthEnclave(SECRET)
        result = publish_stream(
            config,
            enclave,
            SECRET,
            max_frames=40,
            source=SyntheticFrameSource(64, 64, frame_bytes=64),
        )
        stats = result.stats
        assert stats.frames_sent == 40
        assert stats.measured_fps == pytest.approx(
            (stats.frames_sent - 1) / stats.window_duration
        )
        assert 36.0 <= stats.measured_fps <= 44.0


def test_measured_rate_counts_intervals_not_frames():
    # Three frames paced at 2 fps are two half-second intervals apart.
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker, fps=2.0)
        result = publish_stream(
            config,
            AuthEnclave(SECRET),
            SECRET,
            max_frames=3,
            source=SyntheticFrameSource(64, 64, frame_bytes=64),
        )
    assert result.stats.frames_sent == 3
    assert result.stats.measured_fps == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("frames, span", [(0, 0.0), (1, 0.0), (1, 2.0), (2, 0.0), (5, -1.0)])
def test_frame_rate_none_below_two_frames_or_no_elapsed_time(frames, span):
    assert pipeline.frame_rate(frames, span) is None


def test_one_frame_stream_has_no_rate():
    # It read 0.0, where the subscriber's report reads None.
    assert pipeline.ThrottleStats(14.0, 1, 0.0).measured_fps is None
    assert pipeline.ThrottleStats(14.0, 0, 0.0).measured_fps is None
    assert pipeline.ThrottleStats(14.0, 3, 1.0).measured_fps == pytest.approx(2.0)


def test_rate_text_prints_n_a_where_there_is_no_rate():
    assert pipeline.rate_text(None) == "n/a"
    assert pipeline.rate_text(14.0) == "14.000"


def test_duration_bound_stops_stream():
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker, fps=30.0)
        enclave = AuthEnclave(SECRET)
        result = publish_stream(
            config,
            enclave,
            SECRET,
            duration_s=0.5,
            source=SyntheticFrameSource(64, 64, frame_bytes=64),
        )
        # ~15 frames fit into half a second at 30 fps.
        assert 10 <= result.stats.frames_sent <= 16


def test_wire_order_equals_acquisition_order():
    with Broker("127.0.0.1", 0) as broker:
        collected = []
        sub = MqttConnection("127.0.0.1", broker.port, "order-check")
        sub.connect()
        sub.subscribe("camera/stream")

        config = small_config(broker, fps=300.0)
        enclave = AuthEnclave(SECRET)
        result = publish_stream(
            config,
            enclave,
            SECRET,
            max_frames=30,
            source=SyntheticFrameSource(64, 64, frame_bytes=64),
        )
        assert result.stats.frames_sent == 30
        while len(collected) < 30:
            packet = sub.recv_packet(timeout=3.0)
            if packet is None:
                break
            collected.append(
                int.from_bytes(decode_payload(packet.payload)[:8], "big")
            )
        sub.disconnect()
        assert collected == list(range(30))


def test_source_failure_aborts_with_partial_stats(tmp_path):
    (tmp_path / "a.bin").write_bytes(b"frame-a")
    (tmp_path / "b.bin").write_bytes(b"frame-b")
    source = DirectoryFrameSource(tmp_path, 64, 64)
    (tmp_path / "b.bin").unlink()  # second acquisition will fail
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker, fps=100.0)
        enclave = AuthEnclave(SECRET)
        with pytest.raises(StreamAborted) as err:
            publish_stream(config, enclave, SECRET, max_frames=10, source=source)
        assert err.value.stats.frames_sent >= 1


def test_mid_stream_disconnect_aborts_with_partial_stats():
    broker = Broker("127.0.0.1", 0).start()
    config = small_config(broker, fps=50.0)
    enclave = AuthEnclave(SECRET)
    outcome = {}

    def _stream():
        try:
            publish_stream(
                config,
                enclave,
                SECRET,
                duration_s=20.0,
                source=SyntheticFrameSource(64, 64, frame_bytes=64),
            )
            outcome["result"] = "completed"
        except StreamAborted as exc:
            outcome["result"] = "aborted"
            outcome["stats"] = exc.stats

    worker = threading.Thread(target=_stream)
    worker.start()
    time.sleep(0.6)
    broker.stop()
    worker.join(timeout=10.0)
    assert outcome["result"] == "aborted"
    assert outcome["stats"].frames_sent >= 1


class RecordingSource(SyntheticFrameSource):
    """Synthetic source that notes the acquiring thread and the threads alive."""

    def __init__(self):
        super().__init__(64, 64, frame_bytes=64)
        self.calls = 0
        self.threads = set()
        self.thread_names = set()

    def next_frame(self):
        self.calls += 1
        self.threads.add(threading.current_thread())
        self.thread_names.update(t.name for t in threading.enumerate())
        return super().next_frame()


def test_frames_are_acquired_on_the_calling_thread():
    source = RecordingSource()
    with Broker("127.0.0.1", 0) as broker:
        result = publish_stream(
            small_config(broker, fps=200.0),
            AuthEnclave(SECRET),
            SECRET,
            max_frames=8,
            source=source,
        )
    assert result.stats.frames_sent == 8
    assert source.calls == 8
    assert source.threads == {threading.current_thread()}
    assert "frame-producer" not in source.thread_names


def test_duration_bound_reads_at_most_one_frame_ahead():
    source = RecordingSource()
    with Broker("127.0.0.1", 0) as broker:
        result = publish_stream(
            small_config(broker, fps=20.0),
            AuthEnclave(SECRET),
            SECRET,
            duration_s=0.5,
            source=source,
        )
    assert result.stats.frames_sent >= 1
    assert source.calls - result.stats.frames_sent <= 1


def test_duration_bound_takes_no_frame_it_does_not_send():
    # 5 frame slots fit in 0.5 s at 10 fps; a sixth frame taken from a
    # live camera and dropped would be lost.
    source = RecordingSource()
    with Broker("127.0.0.1", 0) as broker:
        result = publish_stream(
            small_config(broker, fps=10.0),
            AuthEnclave(SECRET),
            SECRET,
            duration_s=0.5,
            source=source,
        )
    assert result.stats.frames_sent >= 1
    assert source.calls == result.stats.frames_sent


def test_reused_source_is_paced_from_the_new_stream_start():
    # The second stream starts at the source index the first one left
    # off at; its first frame is still due at its own start.
    source = SyntheticFrameSource(64, 64, frame_bytes=64)
    with Broker("127.0.0.1", 0) as broker:
        config = small_config(broker, fps=20.0)
        enclave = AuthEnclave(SECRET)
        sent = [
            publish_stream(config, enclave, SECRET, duration_s=0.5, source=source).stats.frames_sent
            for _ in range(2)
        ]
    assert min(sent) >= 5  # 10 frame slots fit in each stream


def test_interrupt_returns_partial_stats():
    class InterruptedSource(SyntheticFrameSource):
        def next_frame(self):
            if self._index == 4:
                raise KeyboardInterrupt
            return super().next_frame()

    with Broker("127.0.0.1", 0) as broker:
        result = publish_stream(
            small_config(broker, fps=200.0),
            AuthEnclave(SECRET),
            SECRET,
            max_frames=10,
            source=InterruptedSource(64, 64, frame_bytes=64),
        )
    assert result.authorized
    assert result.stats.frames_sent == 4
