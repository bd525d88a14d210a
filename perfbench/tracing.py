"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces public callables (module functions and class
methods) with wrappers that time each call. Every span is one tuple
``(id, parent, name, start, end, frame, ok)``: ``parent`` is the id of
the span open on the same thread when the call started (0 for none),
``frame`` the frame index the call worked on (-1 when it has none) and
``ok`` whether the call returned rather than raised. Spans stay in a
list until the run ends; nothing is written while measuring.

Both the bench process and the broker process use this module, so span
times come from ``time.perf_counter``, which reads the same monotonic
clock in every process on Linux.
"""

from __future__ import annotations

import base64
import itertools
import threading
import time

INDEX_B64_CHARS = 12  # base64 of the first 9 frame bytes; the index is 8 of them


def b64_frame_index(payload) -> int:
    """Frame index carried by a base64 payload, or -1 if it has none."""
    if len(payload) < INDEX_B64_CHARS:
        return -1
    try:
        head = base64.b64decode(bytes(payload[:INDEX_B64_CHARS]), validate=True)
    except (ValueError, TypeError):  # binascii.Error is a ValueError
        return -1
    return int.from_bytes(head[:8], "big")


def raw_frame_index(data) -> int:
    """Frame index in the first 8 bytes of decoded frame bytes, or -1."""
    if not isinstance(data, (bytes, bytearray)) or len(data) < 8:
        return -1
    return int.from_bytes(data[:8], "big")


def _packet_frame(packet) -> int:
    payload = getattr(packet, "payload", None)
    return -1 if payload is None else b64_frame_index(payload)


# ``frame_of`` helpers for :meth:`Tracer.wrap`.


def payload_arg_frame(args, _result) -> int:
    """The base64 payload is the last argument."""
    return b64_frame_index(args[-1])


def packet_arg_frame(args, _result) -> int:
    """The MQTT packet is the last argument."""
    return _packet_frame(args[-1])


def decoded_packet_frame(_args, result) -> int:
    """The call returned ``(packet, consumed)``."""
    return _packet_frame(result[0])


def raw_arg_frame(args, _result) -> int:
    """Decoded frame bytes are the first argument."""
    return raw_frame_index(args[0])


class CallCount:
    """Call counter for hot functions where a span would cost too much."""

    def __init__(self):
        self.calls = 0


class Tracer:
    def __init__(self, id_base: int = 0):
        self.spans: list = []
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, frame_of=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``frame_of(args, result)`` names the frame a call worked on; it
        runs after the end time is taken, so it is not in the span.
        """
        original = getattr(owner, attr)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            ok = False
            start = clock()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                frame = frame_of(args, result) if (frame_of and ok) else -1
                spans.append((span_id, parent, name, start, end, frame, ok))

        self._patch(owner, attr, original, traced)

    def count(self, owner, attr: str) -> CallCount:
        """Count calls of ``owner.attr``; safe while one thread calls it."""
        original = getattr(owner, attr)
        counter = CallCount()

        def counted(*args, **kwargs):
            counter.calls += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)
        return counter

    def after(self, owner, attr: str, hook) -> None:
        """Call ``hook()`` after every call of ``owner.attr``."""
        original = getattr(owner, attr)

        def hooked(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                hook()

        self._patch(owner, attr, original, hooked)

    def restore(self) -> None:
        """Put back every original callable, newest wrapper first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))


def durations_by_name(spans) -> dict:
    """Span durations in µs by name, for calls that returned."""
    grouped: dict = {}
    for _id, _parent, name, start, end, _frame, ok in spans:
        if ok:
            grouped.setdefault(name, []).append((end - start) * 1e6)
    return grouped


def raised(spans, name: str) -> int:
    """Calls of ``name`` that raised."""
    return sum(1 for s in spans if s[2] == name and not s[6])
