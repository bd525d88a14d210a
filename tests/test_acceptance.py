"""Acceptance criteria, one test per criterion.

Each criterion prints a single pass/fail line (visible with
``pytest -s tests/test_acceptance.py``) and asserts at its stated
tolerance. Criterion 8 (interop against external MQTT implementations)
is CI-optional and skips with an explicit reason when no external
implementation is installed.
"""

import contextlib
import io
import logging
import random
import shutil
import statistics
import threading
import time

import pytest

from packet_gen import random_packet
from streamgate import bench, cli, driver, mqtt, pipeline
from streamgate.broker import Broker
from streamgate.client import MqttConnection
from streamgate.enclave import (
    CTRL_OFFSET,
    CTRL_START_BIT,
    KEY_WORD_OFFSETS,
    RESULT_OFFSET,
    AuthEnclave,
    LatencyModel,
    key_bytes_to_words,
)
from streamgate.keystore import GatewayConfig
from streamgate.subscriber import subscribe_and_collect


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[acceptance] criterion {criterion} ({name}): {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


# -- 1. attempt-table replication ---------------------------------------------


def test_criterion_1_attempt_table_replication():
    start = time.monotonic()
    rng = random.Random(2023)
    secret = bench.generate_secret(rng)
    enclave = AuthEnclave(secret)
    suite = bench.generate_suite(secret, rng)
    label_counts, successes, failures = bench.tally_suite(enclave, suite)
    elapsed = time.monotonic() - start
    ok = (
        successes == 10
        and failures == 22
        and label_counts == bench.TABLE_SUITE_COUNTS
        and elapsed < 1.0
    )
    report(
        1,
        "attempt table",
        ok,
        f"{successes} successes / {failures} failures in {elapsed:.3f}s",
    )


# -- 2. latency model ------------------------------------------------------------


def test_criterion_2_latency_model():
    rng = random.Random(77)
    results = {}
    for mode, model, expected_cycles in (
        ("pipelined", LatencyModel.pipelined(), 34),
        ("unpipelined", LatencyModel.unpipelined(), 64),
    ):
        enclave = AuthEnclave(rng.randbytes(32), model)
        cycles = [
            driver.authenticate(enclave, rng.randbytes(rng.randrange(0, 33))).cycles
            for _ in range(1000)
        ]
        results[mode] = (
            set(cycles) == {expected_cycles},
            statistics.pvariance(cycles) == 0.0,
            expected_cycles * model.CLOCK_PERIOD_NS,
        )
    ok = (
        results["pipelined"][0]
        and results["pipelined"][1]
        and results["pipelined"][2] == 340
        and results["unpipelined"][0]
        and results["unpipelined"][1]
        and results["unpipelined"][2] == 640
    )
    report(2, "latency model", ok, "34cy/340ns pipelined, 64cy/640ns unpipelined, zero variance")


# -- 3. exhaustive correctness at reduced width -----------------------------------


def test_criterion_3_exhaustive_reduced_width():
    start = time.monotonic()
    true_key = 0x6B21
    image = true_key.to_bytes(2, "little") + bytes(30)
    enclave = AuthEnclave(image, _compare_bits=16)
    authorized = [
        candidate
        for candidate in range(65536)
        if driver.authenticate(enclave, candidate.to_bytes(2, "little")).authorized
    ]
    elapsed = time.monotonic() - start
    ok = authorized == [true_key] and elapsed < 10.0
    report(
        3,
        "exhaustive 16-bit oracle",
        ok,
        f"65536 candidates, sole hit {authorized!r:.18s} in {elapsed:.2f}s",
    )


# -- 4. secret opacity --------------------------------------------------------------


class _LogTap(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(self.format(record))


def _random_register_session(rng, observed: bytearray) -> bytes:
    secret = rng.randbytes(32)
    enclave = AuthEnclave(secret)
    for _ in range(rng.randrange(2, 8)):
        candidate = rng.randbytes(rng.randrange(0, 33))
        for i, word in enumerate(key_bytes_to_words(candidate)):
            enclave.write_word(KEY_WORD_OFFSETS[i], word)
        observed += enclave.read_word(CTRL_OFFSET).to_bytes(4, "little")
        enclave.write_word(CTRL_OFFSET, CTRL_START_BIT)
        head = rng.randrange(0, enclave.model.latency_cycles + 1)
        enclave.step(head)
        observed += enclave.read_word(CTRL_OFFSET).to_bytes(4, "little")
        enclave.step(enclave.model.latency_cycles - head)
        observed += enclave.read_word(RESULT_OFFSET).to_bytes(4, "little")
    observed += repr(enclave).encode()
    return secret


def _cli_key_file_errors(rng, directory, secrets) -> list:
    """``auth``'s error lines for key files that break their rule around a
    real key, and for a key file given as the config; the lines that
    start with their own file's path."""
    cases = [
        ("--provision", lambda key: key + "g"),  # a non-hex character
        ("--provision", lambda key: key[:-2]),  # 31 bytes
        ("--credentials", lambda key: key + "0"),  # odd length
        ("--credentials", lambda key: key + "00"),  # 33 bytes
        ("--config", lambda key: key),  # a key file given as the config
    ]
    valid = directory / "valid.hex"
    valid.write_text(rng.randbytes(32).hex())
    named = []
    for i, (flag, damage) in enumerate(cases):
        secret = rng.randbytes(32)
        secrets.append(secret)
        path = directory / f"key{i}.hex"
        path.write_text(damage(secret.hex()) + "\n")
        files = {"--provision": valid, "--credentials": valid, flag: path}
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors):
            code = cli.main(["auth", *(f"{k}={v}" for k, v in files.items())])
        if code == cli.EXIT_BAD_INPUT:
            named += [e for e in errors.getvalue().splitlines() if e.startswith(f"error: {path}: ")]
    return named


def test_criterion_4_secret_opacity(tmp_path):
    rng = random.Random(0x0BF0)
    tap = _LogTap()
    root = logging.getLogger("streamgate")
    root.addHandler(tap)
    old_level = root.level
    root.setLevel(logging.DEBUG)
    secrets = []
    observed = bytearray()
    payload_blob = bytearray()
    try:
        for _ in range(100):
            secrets.append(_random_register_session(rng, observed))

        # Full stream runs: payloads observed broker-side through a wildcard tap.
        with Broker("127.0.0.1", 0) as broker:
            tap_conn = MqttConnection("127.0.0.1", broker.port, "opacity-tap")
            tap_conn.connect()
            tap_conn.subscribe("#")
            for run in range(12):
                secret = rng.randbytes(32)
                secrets.append(secret)
                config = GatewayConfig(
                    camera_width=64,
                    camera_height=64,
                    camera_fps=200.0,
                    mqtt_host="127.0.0.1",
                    mqtt_port=broker.port,
                    mqtt_topic=f"camera/run{run}",
                    mqtt_client_id=f"opacity-{run}",
                )
                result = pipeline.publish_stream(
                    config,
                    AuthEnclave(secret),
                    secret,
                    max_frames=3,
                    source=pipeline.SyntheticFrameSource(64, 64, frame_bytes=256),
                )
                assert result.authorized
            deadline = time.monotonic() + 5.0
            collected = 0
            while collected < 36 and time.monotonic() < deadline:
                try:
                    packet = tap_conn.recv_packet(timeout=0.5)
                except TimeoutError:
                    continue
                if packet is None:
                    break
                if isinstance(packet, mqtt.Publish):
                    payload_blob += packet.payload
                    payload_blob += pipeline.decode_payload(packet.payload)
                    collected += 1
            tap_conn.disconnect()
            # A subscriber's own log lines, "subscribed to" among them.
            subscribe_and_collect("127.0.0.1", broker.port, "camera/#", duration_s=0.1)
        cli_errors = _cli_key_file_errors(rng, tmp_path, secrets)
    finally:
        root.removeHandler(tap)
        root.setLevel(old_level)

    log_text = "\n".join(tap.lines + cli_errors)
    log_bytes = log_text.encode()
    occurrences = 0
    for secret in secrets:
        for i in range(29):
            window = secret[i : i + 4]
            if (
                window in observed
                or window in payload_blob
                or window in log_bytes
                or window.hex() in log_text
            ):
                occurrences += 1
    subscribed = any(line.endswith("subscribed to camera/#") for line in tap.lines)
    ok = (
        occurrences == 0
        and len(secrets) >= 117
        and collected == 36
        and subscribed
        and len(cli_errors) == 5
    )
    report(
        4,
        "secret opacity",
        ok,
        f"{len(secrets)} sessions, {collected} payloads, {len(tap.lines)} log lines, "
        f"{len(cli_errors)} CLI error lines, {occurrences} secret windows observed",
    )


# -- 5. gate integrity -----------------------------------------------------------------


def test_criterion_5_gate_integrity():
    rng = random.Random(51)
    secret = bench.generate_secret(rng)
    frames = 10

    with Broker("127.0.0.1", 0) as broker:
        config = GatewayConfig(
            camera_width=64,
            camera_height=64,
            camera_fps=200.0,
            mqtt_host="127.0.0.1",
            mqtt_port=broker.port,
            mqtt_client_id="gate-check",
        )
        wrong = pipeline.publish_stream(
            config,
            AuthEnclave(secret),
            bench.generate_secret(rng),
            max_frames=frames,
            source=pipeline.SyntheticFrameSource(64, 64, frame_bytes=128),
        )
        time.sleep(0.1)
        wrong_count = broker.stats.publishes_received
        right = pipeline.publish_stream(
            config,
            AuthEnclave(secret),
            secret,
            max_frames=frames,
            source=pipeline.SyntheticFrameSource(64, 64, frame_bytes=128),
        )
        deadline = time.monotonic() + 3.0
        while broker.stats.publishes_received < frames and time.monotonic() < deadline:
            time.sleep(0.01)
        right_count = broker.stats.publishes_received

    ok = (
        not wrong.authorized
        and wrong_count == 0
        and right.authorized
        and right_count == frames
    )
    report(
        5,
        "gate integrity",
        ok,
        f"wrong key: {wrong_count} publishes, correct key: {right_count}/{frames}",
    )


# -- 6. end-to-end loopback ---------------------------------------------------------------


@pytest.mark.parametrize(
    "target_fps,frames",
    [(14.0, 70), (6.0, 30), (30.0, 150)],
    ids=["gateway-14fps", "lowcost-6fps", "gpu-30fps"],
)
def test_criterion_6_loopback(target_fps, frames):
    run = bench.run_loopback(target_fps, frames, seed=int(target_fps))
    lo, hi = target_fps * 0.9, target_fps * 1.1
    ok = (
        run.frames_sent == frames
        and run.frames_received == frames
        and run.hashes_match
        and run.indices_increasing
        and lo <= run.publisher_fps <= hi
        and run.subscriber_fps is not None
        and lo <= run.subscriber_fps <= hi
    )
    report(
        6,
        f"loopback {target_fps:g} fps",
        ok,
        f"{run.frames_received}/{frames} frames at 1920x1080, "
        f"pub {run.publisher_fps:.2f} / sub {run.subscriber_fps:.2f} fps, "
        f"hashes {'match' if run.hashes_match else 'MISMATCH'}",
    )


# -- 7. codec soundness ------------------------------------------------------------------------


def test_criterion_7_codec_soundness():
    rng = random.Random(0xC0DEC)

    for _ in range(10_000):
        packet = random_packet(rng)
        raw = mqtt.encode_packet(packet)
        decoded, consumed = mqtt.decode_packet(raw)
        assert decoded == packet and consumed == len(raw)

    for value in range(1_000_001):
        encoded = mqtt.encode_remaining_length(value)
        assert mqtt.decode_remaining_length(encoded) == (value, len(encoded))

    outcomes = {"ok": 0, "malformed": 0, "need_more": 0}
    for _ in range(1_000_000):
        blob = rng.randbytes(rng.randrange(0, 24))
        try:
            mqtt.decode_packet(blob)
            outcomes["ok"] += 1
        except mqtt.MalformedPacketError:
            outcomes["malformed"] += 1
        except mqtt.NeedMoreDataError:
            outcomes["need_more"] += 1
        # anything else propagates and fails the criterion

    report(
        7,
        "codec soundness",
        True,
        f"10k round-trips, varint exhaustive to 1e6, fuzz outcomes {outcomes}",
    )


# -- 8. interop (CI-optional) --------------------------------------------------------------------


def _paho_or_skip():
    try:
        import paho.mqtt.client as paho  # noqa: F401

        return paho
    except ImportError:
        print("[acceptance] criterion 8 (interop, external client): SKIP — paho-mqtt not installed")
        pytest.skip("paho-mqtt not installed; interop is a CI-optional criterion")


def test_criterion_8a_external_client_through_embedded_broker():
    paho = _paho_or_skip()
    received = []
    done = threading.Event()
    with Broker("127.0.0.1", 0) as broker:
        if hasattr(paho, "CallbackAPIVersion"):  # paho-mqtt 2.x
            client = paho.Client(
                paho.CallbackAPIVersion.VERSION1,
                client_id="external-paho",
                protocol=paho.MQTTv311,
            )
        else:
            client = paho.Client(client_id="external-paho", protocol=paho.MQTTv311)

        def on_message(_client, _userdata, message):
            received.append(message.payload)
            done.set()

        client.on_message = on_message
        client.connect("127.0.0.1", broker.port)
        client.subscribe("camera/stream", qos=0)
        client.loop_start()
        deadline = time.monotonic() + 3.0
        while broker.table.filter_count() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)

        pub = MqttConnection("127.0.0.1", broker.port, "native-pub")
        pub.connect()
        pub.publish("camera/stream", b"interop-payload")
        pub.disconnect()
        done.wait(timeout=5.0)
        client.loop_stop()
        client.disconnect()
    ok = received == [b"interop-payload"]
    report(8, "interop: external client via embedded broker", ok, f"received {received!r}")


def test_criterion_8b_pipeline_through_external_broker(tmp_path):
    mosquitto = shutil.which("mosquitto")
    if mosquitto is None:
        print("[acceptance] criterion 8 (interop, external broker): SKIP — mosquitto not installed")
        pytest.skip("mosquitto not installed; interop is a CI-optional criterion")

    import socket
    import subprocess

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    proc = subprocess.Popen(
        [mosquitto, "-p", str(port)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        time.sleep(0.5)
        rng = random.Random(88)
        secret = bench.generate_secret(rng)
        config = GatewayConfig(
            camera_width=64,
            camera_height=64,
            camera_fps=50.0,
            mqtt_host="127.0.0.1",
            mqtt_port=port,
            mqtt_client_id="interop-pub",
        )
        box = {}

        def _collect():
            box["report"] = subscribe_and_collect(
                "127.0.0.1", port, "camera/stream", max_frames=10, duration_s=10.0
            )

        collector = threading.Thread(target=_collect, daemon=True)
        collector.start()
        time.sleep(0.5)
        result = pipeline.publish_stream(
            config,
            AuthEnclave(secret),
            secret,
            max_frames=10,
            source=pipeline.SyntheticFrameSource(64, 64, frame_bytes=128),
        )
        collector.join(timeout=10.0)
        ok = (
            result.authorized
            and result.stats.frames_sent == 10
            and box["report"].frames_received == 10
        )
        report(8, "interop: pipeline via external broker", ok, "10 frames through mosquitto")
    finally:
        proc.terminate()
        proc.wait(timeout=5.0)
