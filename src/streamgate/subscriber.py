"""Headless stream consumer.

Subscribes to the frame topic, base64-decodes each payload, and
optionally writes the decoded frames to disk, one numbered file per
frame. This replaces a visual dashboard with something auditable:
content hashes and on-disk artifacts.

A payload that fails base64 decoding is counted and skipped; one bad
message must not take the stream down. Each frame is written on the
receiving thread before the next read, so every received frame is on
disk or counted as a write drop. A slow disk holds up receipt; what
that costs is dropped, and counted, at the broker's outbox.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from . import mqtt, pipeline
from .client import MqttConnection

__all__ = ["DeliveryReport", "subscribe_and_collect"]

log = logging.getLogger(__name__)


@dataclass
class DeliveryReport:
    """What arrived, in what order, and how fast."""

    frames_received: int = 0
    first_timestamp: Optional[float] = None
    last_timestamp: Optional[float] = None
    out_of_order_count: int = 0
    decode_failure_count: int = 0
    write_drop_count: int = 0
    content_hashes: List[str] = field(default_factory=list)

    @property
    def measured_fps(self) -> Optional[float]:
        """Frames per second from first to last arrival, by :func:`pipeline.frame_rate`."""
        if self.first_timestamp is None:
            return None
        return pipeline.frame_rate(self.frames_received, self.last_timestamp - self.first_timestamp)


def subscribe_and_collect(
    host: str,
    port: int,
    topic_filter: str,
    *,
    max_frames: Optional[int] = None,
    duration_s: Optional[float] = None,
    sink_dir: Optional[Union[str, Path]] = None,
    client_id: str = "stream-subscriber",
) -> DeliveryReport:
    """Receive frames until a bound is hit; returns the delivery report.

    The broker closing the connection ends collection cleanly with a
    partial report. Out-of-order detection uses the sequence index
    embedded in the first 8 bytes of each decoded frame; frames too
    short to carry one are skipped by that check.
    """
    if max_frames is None and duration_s is None:
        raise ValueError("need a frame-count or duration bound")
    report = DeliveryReport()
    if sink_dir is not None:
        sink_dir = Path(sink_dir)
        sink_dir.mkdir(parents=True, exist_ok=True)
    last_index: Optional[int] = None

    conn = MqttConnection(host, port, client_id, keep_alive_s=0)
    conn.connect()
    try:
        conn.subscribe(topic_filter)
        log.info("subscribed to %s", topic_filter)
        deadline = None if duration_s is None else time.monotonic() + duration_s
        while True:
            if max_frames is not None and report.frames_received >= max_frames:
                break
            # Checked before each call, so a stream that never pauses cannot
            # keep collection running past its duration.
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                break
            try:
                packet = conn.recv_packet(timeout=left)
            except TimeoutError:
                break
            if packet is None:
                log.info("broker closed the connection, ending collection")
                break
            if not isinstance(packet, mqtt.Publish):
                continue
            now = time.monotonic()
            try:
                data = pipeline.decode_payload(packet.payload)
            except (ValueError, UnicodeDecodeError):
                report.decode_failure_count += 1
                received = report.frames_received + report.decode_failure_count
                log.warning("payload %d failed base64 decode, skipping", received - 1)
                continue

            report.frames_received += 1
            if report.first_timestamp is None:
                report.first_timestamp = now
            report.last_timestamp = now
            report.content_hashes.append(hashlib.sha256(data).hexdigest())

            index = pipeline.frame_index(data)
            if index is not None:
                if last_index is not None and index <= last_index:
                    report.out_of_order_count += 1
                last_index = index

            if sink_dir is not None:
                name = index if index is not None else report.frames_received - 1
                path = sink_dir / f"frame_{name:06d}.bin"
                try:
                    path.write_bytes(data)
                except OSError as exc:
                    report.write_drop_count += 1
                    log.warning("sink write failed for %s: %s", path, exc)
    except KeyboardInterrupt:
        log.info("collection interrupted after %d frames", report.frames_received)
    finally:
        conn.disconnect()

    log.info(
        "collection done: %d frames, %d decode failures, %d out of order",
        report.frames_received,
        report.decode_failure_count,
        report.out_of_order_count,
    )
    return report
