"""Authenticated frame publisher.

Acquires frames, base64-encodes them, and publishes to the configured
topic at the configured rate. The whole stream is gated on one
enclave authentication up front: a refused key means nothing ever
touches the network, not even a TCP connect.

Frames are opaque bytes; there is no image codec here. The synthetic
source stands in for a camera and produces deterministic frames so
content integrity can be checked end to end by hash. Its frame size
scales with the configured resolution at roughly the footprint of a
compressed high-definition frame (about 63 KiB at 1920x1080) rather
than raw pixel data.

Pacing uses an absolute schedule: the ``i``-th frame of a stream is
sent no earlier than ``start + i / fps``, counted from that stream's
start whatever index the source has reached. Sleeping a fixed interval
between frames would accumulate drift; an absolute schedule keeps long
runs inside a tight tolerance of the target rate.
"""

from __future__ import annotations

import base64
import logging
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import driver
from .client import ClientError, MqttConnection
from .enclave import AuthEnclave
from .keystore import CandidateKey, GatewayConfig

__all__ = [
    "DirectoryFrameSource",
    "Frame",
    "FrameSource",
    "MeasurementError",
    "SourceError",
    "StreamAborted",
    "StreamResult",
    "SyntheticFrameSource",
    "ThrottleStats",
    "decode_payload",
    "encode_payload",
    "measure_fps",
    "publish_stream",
]

log = logging.getLogger(__name__)

INDEX_HEADER_BYTES = 8
_BODY_STRIDE = 7919  # a prime, so few body lengths share a factor with it


class SourceError(Exception):
    """Frame source cannot produce frames."""


class MeasurementError(ValueError):
    """Not enough timestamps to measure a rate."""


class StreamAborted(Exception):
    """Stream ended early; partial stats are attached."""

    def __init__(self, message: str, stats: "ThrottleStats"):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class Frame:
    index: int
    width: int
    height: int
    bytes: bytes
    captured_at: float


@dataclass(frozen=True)
class ThrottleStats:
    """Publisher-side pacing outcome for one stream session."""

    target_fps: float
    measured_fps: float
    frames_sent: int
    window_duration: float  # first send to last send


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one gated stream session.

    ``stats`` is None exactly when authorization was refused, in which
    case no broker connection was ever attempted.
    """

    authorized: bool
    verdict: driver.AuthVerdict
    stats: Optional[ThrottleStats]


# ---------------------------------------------------------------------------
# Frame sources
# ---------------------------------------------------------------------------


def synthetic_frame_length(width: int, height: int) -> int:
    """Deterministic frame size for the synthetic source.

    Models a compressed frame at the configured resolution (divisor 32
    puts 1920x1080 at 64,800 bytes) plus the 8-byte index header.
    """
    return INDEX_HEADER_BYTES + max(8, (width * height) // 32)


class SyntheticFrameSource:
    """Camera stand-in producing deterministic frames.

    Frame bytes are a pure function of (index, width, height,
    frame_bytes): the index in the first 8 bytes big-endian, then a
    body-length window into one seeded pseudo-random noise block drawn
    when the source is built. Frame ``i``'s window starts at
    ``i * stride mod body_len``, with the stride coprime to the body
    length, so the first ``body_len`` frames all have distinct bodies.
    A frame costs one copy of its bytes, not a fresh random draw. Same
    inputs, same bytes, on any machine.
    """

    def __init__(self, width: int, height: int, frame_bytes: Optional[int] = None):
        if width <= 0 or height <= 0:
            raise SourceError(f"bad frame geometry: {width}x{height}")
        self.width = width
        self.height = height
        self.frame_bytes = (
            frame_bytes if frame_bytes is not None else synthetic_frame_length(width, height)
        )
        if self.frame_bytes < INDEX_HEADER_BYTES:
            raise SourceError(f"frame length must be >= {INDEX_HEADER_BYTES} bytes")
        body_len = self.frame_bytes - INDEX_HEADER_BYTES
        noise = random.Random(f"frame-noise:{width}:{height}:{body_len}").randbytes(body_len)
        # Doubled, so every window is one contiguous slice.
        self._noise = memoryview(noise + noise)
        self._body_len = body_len
        self._period = max(body_len, 1)
        self._stride = _BODY_STRIDE
        while math.gcd(self._stride, self._period) != 1:
            self._stride += 1
        self._index = 0

    def frame_at(self, index: int) -> Frame:
        start = index * self._stride % self._period
        data = b"".join(
            (
                index.to_bytes(INDEX_HEADER_BYTES, "big"),
                self._noise[start : start + self._body_len],
            )
        )
        return Frame(
            index=index,
            width=self.width,
            height=self.height,
            bytes=data,
            captured_at=time.monotonic(),
        )

    def next_frame(self) -> Frame:
        frame = self.frame_at(self._index)
        self._index += 1
        return frame


class DirectoryFrameSource:
    """Cycles through the files of a directory in lexicographic order."""

    def __init__(self, directory: Union[str, Path], width: int, height: int):
        self.directory = Path(directory)
        self.width = width
        self.height = height
        if not self.directory.is_dir():
            raise SourceError(f"not a directory: {self.directory}")
        self._paths = sorted(p for p in self.directory.iterdir() if p.is_file())
        if not self._paths:
            raise SourceError(f"no frame files in {self.directory}")
        self._index = 0

    def next_frame(self) -> Frame:
        path = self._paths[self._index % len(self._paths)]
        frame = Frame(
            index=self._index,
            width=self.width,
            height=self.height,
            bytes=path.read_bytes(),
            captured_at=time.monotonic(),
        )
        self._index += 1
        return frame


FrameSource = Union[SyntheticFrameSource, DirectoryFrameSource]


def source_from_config(config: GatewayConfig) -> FrameSource:
    if config.camera_source == "synthetic":
        return SyntheticFrameSource(config.camera_width, config.camera_height)
    return DirectoryFrameSource(
        config.camera_source, config.camera_width, config.camera_height
    )


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------


def encode_payload(frame: Frame) -> bytes:
    """Standard padded base64 of the frame bytes, as published."""
    return base64.b64encode(frame.bytes)


def decode_payload(text: Union[str, bytes]) -> bytes:
    """Inverse of :func:`encode_payload`; strict, raises on bad input."""
    return base64.b64decode(text, validate=True)


# ---------------------------------------------------------------------------
# Rate measurement
# ---------------------------------------------------------------------------


def measure_fps(timestamps) -> float:
    """Frames per second over a window of delivery timestamps."""
    stamps = list(timestamps)
    if len(stamps) < 2:
        raise MeasurementError(f"need at least 2 timestamps, got {len(stamps)}")
    span = stamps[-1] - stamps[0]
    if span <= 0:
        raise MeasurementError("timestamps do not advance")
    return (len(stamps) - 1) / span


# ---------------------------------------------------------------------------
# Gated publishing
# ---------------------------------------------------------------------------


def publish_stream(
    config: GatewayConfig,
    enclave: AuthEnclave,
    candidate: Union[CandidateKey, bytes],
    *,
    max_frames: Optional[int] = None,
    duration_s: Optional[float] = None,
    source: Optional[FrameSource] = None,
) -> StreamResult:
    """Authenticate, then publish frames until the bound is reached.

    Exactly one of the bounds must be given (both is allowed: whichever
    trips first ends the stream). On a refused key the result carries
    ``stats=None`` and no connection attempt is made. A broker that
    is unreachable or refuses the session raises :class:`ClientError`,
    also when the refusal is read after frames were sent; a connection
    lost mid-stream or a failing frame source raises
    :class:`StreamAborted` with partial stats. Frames are acquired,
    encoded, paced and sent one at a time on the caller's thread.
    """
    if max_frames is None and duration_s is None:
        raise ValueError("need a frame-count or duration bound")
    if max_frames is not None and max_frames < 0:
        raise ValueError("max_frames must be >= 0")

    verdict = driver.authenticate(enclave, candidate)
    if not verdict.authorized:
        log.info("stream refused: candidate key rejected by enclave")
        return StreamResult(authorized=False, verdict=verdict, stats=None)
    log.info("authentication verdict: authorized (%d cycles)", verdict.cycles)

    if source is None:
        source = source_from_config(config)
    fps = config.camera_fps

    conn = MqttConnection(
        config.mqtt_host, config.mqtt_port, config.mqtt_client_id, keep_alive_s=0
    )
    conn.connect()

    frames_sent = 0
    start = time.monotonic()
    first_send = last_send = start
    deadline = None if duration_s is None else start + duration_s
    try:
        while max_frames is None or frames_sent < max_frames:
            due = start + frames_sent / fps
            if deadline is not None and due >= deadline:
                break  # never take a frame from the source only to drop it
            try:
                payload = encode_payload(source.next_frame())
            except Exception as exc:
                stats = _finish_stats(fps, frames_sent, first_send, last_send)
                raise StreamAborted(
                    f"frame source failed after {frames_sent} frames: {exc}", stats
                ) from exc
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                break  # the source blocked past the deadline
            if due > now:
                time.sleep(due - now)
            conn.publish(config.mqtt_topic, payload)
            last_send = time.monotonic()
            if not frames_sent:
                first_send = last_send
            frames_sent += 1
    except KeyboardInterrupt:
        # Treat like a deadline: stop pacing, flush partial stats.
        log.info("stream interrupted after %d frames", frames_sent)
    except ClientError as exc:
        stats = _finish_stats(fps, frames_sent, first_send, last_send)
        raise StreamAborted(f"stream aborted after {frames_sent} frames: {exc}", stats) from exc
    finally:
        conn.disconnect()  # checks the CONNACK first: a refusal replaces any abort

    stats = _finish_stats(fps, frames_sent, first_send, last_send)
    log.info(
        "stream complete: %d frames at %.2f fps (target %.2f)",
        stats.frames_sent,
        stats.measured_fps,
        fps,
    )
    return StreamResult(authorized=True, verdict=verdict, stats=stats)


def _finish_stats(
    fps: float, frames_sent: int, first_send: float, last_send: float
) -> ThrottleStats:
    # n sends span n - 1 frame intervals, as in measure_fps.
    window = last_send - first_send
    measured = (frames_sent - 1) / window if window > 0 else 0.0
    return ThrottleStats(
        target_fps=fps,
        measured_fps=measured,
        frames_sent=frames_sent,
        window_duration=window,
    )

