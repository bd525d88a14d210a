#!/usr/bin/env python3
"""Benchmark of the streamgate gateway, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Topology: the broker runs in a child process (``broker_child.py``, which
calls ``streamgate.broker.serve``). This process holds two connections:
the gated publisher (``pipeline.publish_stream``, fed by a camera object
of this file) and a receiver built on ``client.MqttConnection`` that
handles each frame as ``subscriber.subscribe_and_collect`` does.

Violations go to standard error. Standard output gets a detail line and
then, as its last line, the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is split
into an untraced and a traced half (plus, on session-churn, a short
probe of back-to-back attempts) and the metrics are the per-layer ones,
including the tracing overhead. ``NOTES.md`` next to this file says
why each workload exists and which layer moves which metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if not (SRC / "streamgate" / "__init__.py").is_file():
    sys.exit(f"perfbench: no streamgate sources at {SRC}")
sys.path.insert(0, str(SRC))

from streamgate import bench, client, driver, mqtt, pipeline  # noqa: E402
from streamgate.enclave import AuthEnclave, LatencyModel  # noqa: E402
from streamgate.keystore import GatewayConfig  # noqa: E402

if Path(pipeline.__file__).resolve().parent != (SRC / "streamgate").resolve():
    sys.exit(f"perfbench: streamgate was imported from {pipeline.__file__}, not {SRC}")

clock = time.perf_counter

HOST = "127.0.0.1"
WIDTH, HEIGHT = 1920, 1080
TOPIC = "camera/stream"
CHURN_FILTER = "cam/#"
RECEIVER_ID = "bench-receiver"
EXPECTED_CYCLES = LatencyModel.PIPELINED_CYCLES
# Pacing is the camera's job: the publisher's own schedule must never hold
# a frame back, so its configured rate is far above any offered rate.
PUBLISHER_FPS = 1e6
WARMUP_S = 0.5  # run before the measured window: its frames are checked, not timed
SETUPS = 5  # set-ups per timed run; setup_s is their median
POOL_FRAMES = 256
CHURN_FRAMES = 3
CAMERA_GRACE_S = 0.05  # a window camera stops waiting this long after the deadline
QUIET_S = 1.0  # delivery is over once nothing arrived for this long
PROBE_S = 2.0  # back-to-back session-churn attempts in a traced run, to count the supersede loss
WATCHDOG_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    frame_bytes: Optional[int] = None  # None: the synthetic 1920x1080 size
    fps: Optional[float] = None  # open loop at this rate
    window: Optional[int] = None  # closed loop with this many frames in flight
    extra_filters: int = 0  # non-matching filters the receiver also holds
    churn: bool = False  # repeated gated sessions instead of one stream

    def filters(self) -> List[str]:
        if self.churn:
            return [CHURN_FILTER]
        return [TOPIC] + [f"other/{k}/+" for k in range(self.extra_filters)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("camera-30fps", fps=30.0),
        Workload("frames-window8", window=8),
        # Run by hand only: not in BENCHMARK.json, because its figures move
        # with the host's speed for interpreted Python (see NOTES.md).
        Workload("routing-1000-filters", frame_bytes=64, window=1, extra_filters=1000),
        Workload("session-churn", churn=True),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "delivered_fps": "frames/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_frame": "ms",
    "broker_peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Broker child process
# ---------------------------------------------------------------------------


class BrokerProcess:
    """``broker_child.py`` behind a line-per-request pipe."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "broker_child.py"), str(SRC), "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._read(timeout=30.0)["port"]
        except BaseException:
            self.kill()
            raise

    def request(self, command: str, timeout: float = 30.0) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchError(f"broker process gone: {exc}") from exc
        return self._read(timeout)

    def stop(self) -> dict:
        try:
            final = self.request("stop")
            self.proc.wait(timeout=10.0)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError("broker process did not answer")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"broker process exited with {self.proc.wait()}")
        return json.loads(line)


# ---------------------------------------------------------------------------
# Receiver: what subscribe_and_collect does per frame, plus arrival times
# ---------------------------------------------------------------------------


class Receiver:
    def __init__(self, port: int, filters: List[str]):
        self.conn = client.MqttConnection(HOST, port, RECEIVER_ID, keep_alive_s=0)
        self.conn.connect()
        for packet_id, topic_filter in enumerate(filters, start=1):
            self.conn.subscribe(topic_filter, packet_id=packet_id)
        self.hash = hashlib.sha256  # an attribute, so a traced run can wrap it alone
        self.cond = threading.Condition()
        self.arrivals: list = []  # (topic, index, arrival time, sha256 hex)
        self.delivered_max = -1
        self.delivered_at: Dict[int, float] = {}
        self.per_topic: Dict[str, int] = {}
        self.undecodable = 0
        self.malformed: Optional[str] = None
        self.error: Optional[str] = None
        self.ended = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-receiver", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # reported as a failed run, not a traceback
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            with self.cond:
                self.ended = True
                self.cond.notify_all()

    def _loop(self) -> None:
        conn = self.conn
        while not self._stop.is_set():
            try:
                packet = conn.recv_packet(timeout=0.2)
            except TimeoutError:
                continue
            except mqtt.MalformedPacketError as exc:
                self.malformed = str(exc)
                return
            if packet is None:
                return
            if not isinstance(packet, mqtt.Publish):
                continue
            try:
                data = pipeline.decode_payload(packet.payload)
            except (ValueError, UnicodeDecodeError):
                self.undecodable += 1
                continue
            digest = self.hash(data).hexdigest()
            index = tracing.raw_frame_index(data)
            now = clock()
            with self.cond:
                self.arrivals.append((packet.topic, index, now, digest))
                self.delivered_at[index] = now
                self.per_topic[packet.topic] = self.per_topic.get(packet.topic, 0) + 1
                if index > self.delivered_max:
                    self.delivered_max = index
                self.cond.notify_all()

    def wait_quiet(self, total: int) -> None:
        """Wait for ``total`` arrivals, or until none came for QUIET_S."""
        with self.cond:
            while len(self.arrivals) < total and not self.ended:
                if not self.cond.wait(QUIET_S):
                    return

    def wait_topic(self, topic: str, count: int) -> None:
        """Wait for ``count`` arrivals on ``topic``, or until none came for QUIET_S."""
        with self.cond:
            while self.per_topic.get(topic, 0) < count and not self.ended:
                if not self.cond.wait(QUIET_S):
                    return

    def by_topic(self) -> Dict[str, list]:
        grouped: Dict[str, list] = {}
        for topic, index, at, digest in self.arrivals:
            grouped.setdefault(topic, []).append((index, at, digest))
        return grouped

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.conn.disconnect()


# ---------------------------------------------------------------------------
# Camera input: frames made by SyntheticFrameSource.frame_at during set-up
# ---------------------------------------------------------------------------


class FramePool:
    """Frame ``i`` is the pool frame ``i mod POOL_FRAMES`` carrying index ``i``.

    Below POOL_FRAMES the bytes are exactly ``frame_at(i)``; above it only
    the 8-byte index header differs from the pool frame it reuses.
    """

    def __init__(self, frame_bytes: Optional[int]):
        source = pipeline.SyntheticFrameSource(WIDTH, HEIGHT, frame_bytes)
        self.frames = [source.frame_at(k) for k in range(POOL_FRAMES)]
        self._tails = [f.bytes[pipeline.INDEX_HEADER_BYTES :] for f in self.frames]
        self._digests: Dict[int, str] = {}

    def data(self, index: int) -> bytes:
        if index < POOL_FRAMES:
            return self.frames[index].bytes
        header = index.to_bytes(pipeline.INDEX_HEADER_BYTES, "big")
        return header + self._tails[index % POOL_FRAMES]

    def frame(self, index: int, data: bytes, due: float) -> pipeline.Frame:
        return pipeline.Frame(index=index, width=WIDTH, height=HEIGHT, bytes=data, captured_at=due)

    def digest(self, index: int) -> str:
        digest = self._digests.get(index)
        if digest is None:
            digest = self._digests[index] = hashlib.sha256(self.data(index)).hexdigest()
        return digest


class OpenLoopCamera:
    """Hands over frame ``i`` at its capture slot ``t0 + i / fps``.

    ``t0`` is the first request. A frame requested after its slot is
    handed over at once and still timed from its slot.
    """

    def __init__(self, pool: FramePool, fps: float):
        self.pool = pool
        self.fps = fps
        self.t0: Optional[float] = None
        self.ask: List[float] = []
        self.due: List[float] = []

    @property
    def available(self) -> List[float]:
        return self.due

    def next_frame(self) -> pipeline.Frame:
        ask = clock()
        index = len(self.due)
        if self.t0 is None:
            self.t0 = ask
        due = self.t0 + index / self.fps
        data = self.pool.data(index)
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        self.ask.append(ask)
        self.due.append(due)
        return self.pool.frame(index, data, due)


class WindowCamera:
    """Releases frame ``i`` once frame ``i - window`` (or a later one) arrived.

    A frame is due when it is released. After ``end`` it stops waiting, so
    the publisher's producer thread can always finish.
    """

    def __init__(self, pool: FramePool, window: int, receiver: Receiver, end: float):
        self.pool = pool
        self.window = window
        self.receiver = receiver
        self.end = end
        self.ask: List[float] = []
        self.due: List[float] = []
        self.available: List[float] = []

    def next_frame(self) -> pipeline.Frame:
        ask = clock()
        index = len(self.due)
        data = self.pool.data(index)
        credit = index - self.window
        receiver = self.receiver
        if credit >= 0:
            with receiver.cond:
                while receiver.delivered_max < credit:
                    left = self.end - clock()
                    if left <= 0:
                        break
                    receiver.cond.wait(left)
        due = clock()
        self.ask.append(ask)
        self.due.append(due)
        self.available.append(receiver.delivered_at.get(credit, ask) if credit >= 0 else ask)
        return self.pool.frame(index, data, due)


class AttemptCamera:
    """The first CHURN_FRAMES pool frames, all due when the attempt starts."""

    def __init__(self, pool: FramePool):
        self.pool = pool
        self.ask: List[float] = []

    def next_frame(self) -> pipeline.Frame:
        self.ask.append(clock())
        return self.pool.frames[len(self.ask) - 1]


# ---------------------------------------------------------------------------
# One set-up and one measured phase
# ---------------------------------------------------------------------------


class Env:
    """Broker process, subscribed receiver and frame pool of one run phase."""

    def __init__(self, workload: Workload, trace: bool):
        self.pool = FramePool(workload.frame_bytes)
        self.broker = BrokerProcess(trace)
        try:
            self.receiver = Receiver(self.broker.port, workload.filters())
        except BaseException:
            self.broker.kill()
            raise

    def close(self) -> dict:
        try:
            self.receiver.close()
        except BaseException:
            self.broker.kill()
            raise
        return self.broker.stop()


def set_up(workload: Workload, trace: bool):
    start = clock()
    env = Env(workload, trace)
    return env, clock() - start


@dataclasses.dataclass
class Phase:
    """Raw outcome of one measured phase."""

    latency_ms: List[float] = dataclasses.field(default_factory=list)
    window_arrivals: List[float] = dataclasses.field(default_factory=list)
    first_frame_ms: List[float] = dataclasses.field(default_factory=list)
    stream_open_ms: List[float] = dataclasses.field(default_factory=list)
    lag_ms: List[float] = dataclasses.field(default_factory=list)
    cycles: List[int] = dataclasses.field(default_factory=list)
    window_attempts: int = 0
    authorized: int = 0
    offered: int = 0
    frames_sent: int = 0
    intact: int = 0
    failed: int = 0
    bad_frames: int = 0
    violations: List[str] = dataclasses.field(default_factory=list)
    counted: bool = True  # False: its losses are a metric, not the run's failed operations
    cpu_bench_s: float = 0.0
    cpu_broker_s: float = 0.0
    broker: dict = dataclasses.field(default_factory=dict)

    def violate(self, message: str) -> None:
        self.failed += 1
        if len(self.violations) < 20:
            self.violations.append(message)


def publish(config, enclave, candidate, camera, bounds, phase: Phase, expect: bool) -> int:
    """One gated stream; returns the frames the publisher sent."""
    try:
        result = pipeline.publish_stream(config, enclave, candidate, source=camera, **bounds)
    except pipeline.StreamAborted as exc:
        phase.authorized += 1
        phase.violate(f"{config.mqtt_topic}: {exc}")
        return exc.stats.frames_sent
    except client.ClientError as exc:
        phase.authorized += 1
        phase.violate(f"{config.mqtt_topic}: {exc}")
        return 0
    phase.cycles.append(result.verdict.cycles)
    if result.verdict.cycles != EXPECTED_CYCLES:
        phase.violate(f"verdict took {result.verdict.cycles} cycles, not {EXPECTED_CYCLES}")
    if result.authorized != expect:
        phase.violate(f"{config.mqtt_topic}: authorized={result.authorized}, expected {expect}")
    if not result.authorized:
        if camera.ask:
            phase.violate(f"{config.mqtt_topic}: refused stream asked the camera for frames")
        return 0
    phase.authorized += 1
    return result.stats.frames_sent


def check_frames(pool: FramePool, arrivals, sent: int, phase: Phase) -> list:
    """Intact arrivals ``(index, time)`` of one stream; counts the rest as failed."""
    intact = []
    last = -1
    for index, at, digest in arrivals:
        if last < index < sent and digest == pool.digest(index):
            intact.append((index, at))
            last = index
        else:
            phase.bad_frames += 1
    phase.offered += sent
    phase.frames_sent += sent
    phase.intact += len(intact)
    phase.failed += sent - len(intact)
    return intact


def stream_phase(workload: Workload, env: Env, secret: bytes, enclave, seconds: float) -> Phase:
    phase = Phase()
    receiver = env.receiver
    config = GatewayConfig(
        camera_width=WIDTH,
        camera_height=HEIGHT,
        camera_fps=PUBLISHER_FPS,
        mqtt_host=HOST,
        mqtt_port=env.broker.port,
        mqtt_topic=TOPIC,
    )
    length = WARMUP_S + seconds
    before = env.broker.request("mark")
    cpu0 = time.process_time()
    t_call = clock()
    if workload.fps is not None:
        camera = OpenLoopCamera(env.pool, workload.fps)
        bounds = {"max_frames": math.ceil(length * workload.fps)}
    else:
        camera = WindowCamera(env.pool, workload.window, receiver, t_call + length + CAMERA_GRACE_S)
        bounds = {"duration_s": length}
    sent = publish(config, enclave, secret, camera, bounds, phase, expect=True)
    receiver.wait_quiet(sent)
    phase.cpu_bench_s = time.process_time() - cpu0
    after = env.broker.request("mark")
    phase.cpu_broker_s = after["cpu_s"] - before["cpu_s"]
    phase.broker = after

    grouped = receiver.by_topic()
    intact = check_frames(env.pool, grouped.pop(TOPIC, []), sent, phase)
    phase.bad_frames += sum(len(v) for v in grouped.values())
    t0 = camera.t0 if isinstance(camera, OpenLoopCamera) else t_call
    if t0 is None:
        return phase
    low, high = t0 + WARMUP_S, t0 + length
    for index, at in intact:
        due = camera.due[index]
        if low <= due < high:
            phase.latency_ms.append((at - due) * 1e3)
            phase.window_arrivals.append(at)
    phase.window_attempts = 1
    if intact and intact[0][0] == 0:
        phase.first_frame_ms.append((intact[0][1] - t_call) * 1e3)
    phase.stream_open_ms.append((camera.ask[0] - t_call) * 1e3)
    phase.lag_ms = [max(0.0, a - v) * 1e3 for a, v in zip(camera.ask, camera.available)]
    return phase


def churn_phase(env: Env, suite, enclave, seconds: float, await_delivery: bool = True) -> Phase:
    """Attempts one at a time; the next starts once this one's frames arrived.

    With ``await_delivery`` false the next attempt starts as soon as
    ``publish_stream`` returns, so its CONNECT can supersede a session
    whose frames the broker has not read yet.
    """
    phase = Phase()
    receiver = env.receiver
    base = GatewayConfig(
        camera_width=WIDTH,
        camera_height=HEIGHT,
        camera_fps=PUBLISHER_FPS,
        mqtt_host=HOST,
        mqtt_port=env.broker.port,
    )
    bounds = {"max_frames": CHURN_FRAMES}
    attempts = []
    before = env.broker.request("mark")
    cpu0 = time.process_time()
    t0 = clock()
    low, high = t0 + WARMUP_S, t0 + WARMUP_S + seconds
    k = 0
    while True:
        start = clock()
        if start >= high:
            break
        label, candidate = suite[k % len(suite)]
        topic = f"cam/{k}"
        camera = AttemptCamera(env.pool)
        config = dataclasses.replace(base, mqtt_topic=topic)
        sent = publish(config, enclave, candidate, camera, bounds, phase, label == "correct")
        if await_delivery and sent:
            receiver.wait_topic(topic, sent)
        attempts.append((topic, start, label == "correct", sent, camera))
        k += 1
    receiver.wait_quiet(sum(a[3] for a in attempts))
    phase.cpu_bench_s = time.process_time() - cpu0
    after = env.broker.request("mark")
    phase.cpu_broker_s = after["cpu_s"] - before["cpu_s"]
    phase.broker = after

    grouped = receiver.by_topic()
    for topic, start, authorized, sent, camera in attempts:
        arrivals = grouped.pop(topic, [])
        if not authorized:
            phase.offered += 1
            if arrivals:
                phase.violate(f"{topic}: refused attempt delivered {len(arrivals)} frames")
            continue
        intact = check_frames(env.pool, arrivals, sent, phase)
        if start < low:
            continue
        phase.window_attempts += 1
        for index, at in intact:
            phase.latency_ms.append((at - start) * 1e3)
            phase.window_arrivals.append(at)
        if intact and intact[0][0] == 0:
            phase.first_frame_ms.append((intact[0][1] - start) * 1e3)
        if camera.ask:
            phase.stream_open_ms.append((camera.ask[0] - start) * 1e3)
        phase.lag_ms += [(a - start) * 1e3 for a in camera.ask]
    phase.window_attempts += sum(1 for a in attempts if not a[2] and a[1] >= low)
    phase.bad_frames += sum(len(v) for v in grouped.values())
    phase.window_arrivals.sort()
    return phase


def run_phase(
    workload: Workload, env: Env, secret, suite, seconds: float, await_delivery: bool = True
) -> Phase:
    enclave = AuthEnclave(secret, LatencyModel.pipelined())
    if workload.churn:
        phase = churn_phase(env, suite, enclave, seconds, await_delivery)
    else:
        phase = stream_phase(workload, env, secret, enclave, seconds)
    receiver = env.receiver
    # The frames a stopped receiver did not deliver are already counted failed.
    if receiver.malformed is not None:
        phase.violations.append(f"receiver got a malformed packet: {receiver.malformed}")
    if receiver.error is not None:
        phase.violations.append(f"receiver failed: {receiver.error}")
    if receiver.undecodable:
        phase.bad_frames += receiver.undecodable
    if phase.bad_frames:
        phase.violations.append(f"{phase.bad_frames} frames corrupt, repeated or out of order")
    accepted = phase.broker["stats"]["connections_accepted"]
    if accepted != phase.authorized + 1:
        phase.violate(
            f"broker accepted {accepted} connections for {phase.authorized} authorized attempts"
        )
    return phase


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def rate(times) -> float:
    """(n - 1) / span over event times; 0.0 for fewer than two."""
    if len(times) < 2 or times[-1] <= times[0]:
        return 0.0
    return (len(times) - 1) / (times[-1] - times[0])


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    delivered = max(phase.intact, 1)
    return {
        "setup_s": setup_s,
        "delivered_fps": rate(phase.window_arrivals),
        "latency_p50_ms": median(phase.latency_ms),
        "cpu_ms_per_frame": (phase.cpu_bench_s + phase.cpu_broker_s) * 1e3 / delivered,
        "broker_peak_rss_mb": phase.broker["maxrss_kb"] / 1024.0,
    }


def unbounded_metrics(phase: Phase, seconds: float) -> Dict[str, float]:
    return {
        "latency_p95_ms": percentile(phase.latency_ms, 0.95),
        "latency_p99_ms": percentile(phase.latency_ms, 0.99),
        "attempts_per_s": phase.window_attempts / seconds,
        "first_frame_p50_ms": median(phase.first_frame_ms),
        "first_frame_p99_ms": percentile(phase.first_frame_ms, 0.99),
        "failed_ratio": phase.failed / max(phase.offered, 1),
    }


def per_layer(
    untraced: Phase, traced: Phase, probe: Optional[Phase], bench_spans, broker_trace, setup_s, seconds
) -> dict:
    spans = list(bench_spans) + [tuple(s) for s in broker_trace["spans"]]
    durations = tracing.durations_by_name(spans)

    def med_us(name):
        return median(durations.get(name, []))

    def calls(name):
        return len(durations.get(name, []))

    decode_ok = calls("mqtt.decode_packet")
    decode_retries = tracing.raised(spans, "mqtt.decode_packet")
    stats = traced.broker["stats"]
    e2e_u = end_to_end(untraced, setup_s)
    e2e_t = end_to_end(traced, setup_s)
    cycles = untraced.cycles + traced.cycles
    delivered_u = max(untraced.intact, 1)
    metrics = {
        "enclave.cycles_per_verdict": (median(cycles), "cycles"),
        "enclave.cycle_variance": (statistics.pvariance(cycles) if cycles else 0.0, "cycles2"),
        "driver.authenticate_us": (med_us("driver.authenticate"), "us"),
        "driver.authenticate_calls": (calls("driver.authenticate"), "count"),
        "pipeline.frame_at_us": (med_us("pipeline.frame_at"), "us"),
        "pipeline.encode_payload_us": (med_us("pipeline.encode_payload"), "us"),
        "pipeline.decode_payload_us": (med_us("pipeline.decode_payload"), "us"),
        "subscriber.hash_us": (med_us("subscriber.hash"), "us"),
        "pipeline.acquire_lag_p99_ms": (percentile(traced.lag_ms, 0.99), "ms"),
        "pipeline.stream_open_ms": (median(traced.stream_open_ms), "ms"),
        "mqtt.encode_packet_us": (med_us("mqtt.encode_packet"), "us"),
        "mqtt.decode_packet_us": (med_us("mqtt.decode_packet"), "us"),
        "mqtt.decode_attempts_per_packet": (
            (decode_ok + decode_retries) / max(decode_ok, 1),
            "ratio",
        ),
        "mqtt.topic_matches_per_publish": (
            broker_trace["topic_matches"] / max(calls("broker.route"), 1),
            "ratio",
        ),
        "broker.route_us": (med_us("broker.route"), "us"),
        "broker.sessions_for_us": (med_us("broker.sessions_for"), "us"),
        "broker.publishes_received": (stats["publishes_received"], "count"),
        "broker.messages_delivered": (stats["messages_delivered"], "count"),
        "broker.messages_dropped": (stats["messages_dropped"], "count"),
        "broker.threads": (broker_trace["peak_threads"], "count"),
        "broker.cpu_ms_per_frame": (untraced.cpu_broker_s * 1e3 / delivered_u, "ms"),
        "client.connect_ms": (med_us("client.connect") / 1e3, "ms"),
        "client.publish_us": (med_us("client.publish"), "us"),
        "client.cpu_ms_per_frame": (untraced.cpu_bench_s * 1e3 / delivered_u, "ms"),
        "churn.superseded_loss_ratio": (
            probe.failed / max(probe.frames_sent, 1) if probe is not None else 0.0,
            "ratio",
        ),
    }
    units = {"attempts_per_s": "1/s", "failed_ratio": "ratio"}
    for name, value in unbounded_metrics(untraced, seconds).items():
        metrics[name] = (value, units.get(name, "ms"))
    for name in ("delivered_fps", "latency_p50_ms", "cpu_ms_per_frame"):
        metrics[f"trace.overhead_{name}"] = (e2e_t[name] - e2e_u[name], END_TO_END_UNITS[name])
    return metrics


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_run(workload: Workload, secret, suite, seconds: float):
    setup_times = []
    env = None
    for _ in range(SETUPS):
        if env is not None:
            env.close()
        env, took = set_up(workload, trace=False)
        setup_times.append(took)
    try:
        phase = run_phase(workload, env, secret, suite, seconds)
    finally:
        final = env.close()
    phase.broker = final
    setup_s = median(setup_times)
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(phase, setup_s).items()}
    detail = dict(
        unbounded_metrics(phase, seconds),
        setup_runs_s=setup_times,
        latency_samples=len(phase.latency_ms),
    )
    return [phase], metrics, detail


def traced_run(workload: Workload, secret, suite, seconds: float, trace_path: Path):
    half = seconds / 2.0
    env, _ = set_up(workload, trace=False)
    try:
        untraced = run_phase(workload, env, secret, suite, half)
    finally:
        final = env.close()
    untraced.broker = final

    tracer = tracing.Tracer()
    install_bench_tracing(tracer)
    try:
        env, setup_s = set_up(workload, trace=True)
        try:
            tracer.wrap(env.receiver, "hash", "subscriber.hash", tracing.raw_arg_frame)
            traced = run_phase(workload, env, secret, suite, half)
        finally:
            final = env.close()
    finally:
        tracer.restore()
    traced.broker = final
    broker_trace = final["trace"]

    # The known supersede loss, measured apart: its frames are a metric,
    # not failed operations, but its checks still decide ``correct``.
    probe = None
    if workload.churn:
        env, _ = set_up(workload, trace=False)
        try:
            probe = run_phase(workload, env, secret, suite, PROBE_S, await_delivery=False)
        finally:
            final = env.close()
        probe.broker = final
        probe.counted = False

    metrics = per_layer(untraced, traced, probe, tracer.spans, broker_trace, setup_s, half)
    write_spans(trace_path, workload.name, tracer.spans, broker_trace["spans"])
    detail = {"trace_file": str(trace_path.relative_to(HERE.parent))}
    if probe is not None:
        detail.update(probe_frames_sent=probe.frames_sent, probe_frames_lost=probe.failed)
    return [p for p in (untraced, traced, probe) if p is not None], metrics, detail


def install_bench_tracing(tracer: tracing.Tracer) -> None:
    tracer.wrap(driver, "authenticate", "driver.authenticate")
    tracer.wrap(
        pipeline.SyntheticFrameSource, "frame_at", "pipeline.frame_at", lambda a, _r: a[1]
    )
    tracer.wrap(pipeline, "encode_payload", "pipeline.encode_payload", lambda a, _r: a[0].index)
    tracer.wrap(
        pipeline,
        "decode_payload",
        "pipeline.decode_payload",
        lambda _a, r: tracing.raw_frame_index(r),
    )
    tracer.wrap(mqtt, "encode_packet", "mqtt.encode_packet", tracing.packet_arg_frame)
    tracer.wrap(mqtt, "decode_packet", "mqtt.decode_packet", tracing.decoded_packet_frame)
    tracer.wrap(client.MqttConnection, "connect", "client.connect")
    tracer.wrap(client.MqttConnection, "publish", "client.publish", tracing.payload_arg_frame)


def write_spans(path: Path, workload: str, bench_spans, broker_spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        header = {"workload": workload, "fields": ["id", "parent", "name", "start", "end", "frame", "ok"]}
        out.write(json.dumps(header) + "\n")
        for span in list(bench_spans) + list(broker_spans):
            out.write(json.dumps(list(span)) + "\n")


def _watchdog(_signum, _frame):
    raise BenchError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    secret = bench.generate_secret(rng)
    suite = bench.generate_suite(secret, rng)
    try:
        if args.trace:
            trace_path = HERE / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
            phases, metrics, detail = traced_run(workload, secret, suite, args.seconds, trace_path)
        else:
            phases, metrics, detail = timed_run(workload, secret, suite, args.seconds)
    except (BenchError, OSError, client.ClientError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    violations = [v for p in phases for v in p.violations]
    for message in violations:
        print(f"perfbench: violation: {message}", file=sys.stderr)
    counted = [p for p in phases if p.counted]
    detail.update(
        workload=workload.name,
        seed=args.seed,
        offered=sum(p.offered for p in counted),
        intact=sum(p.intact for p in counted),
        violations=violations,
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not violations,
        "attempted": sum(p.offered for p in counted),
        "failed": sum(p.failed for p in counted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
