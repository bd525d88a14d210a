"""Broker process of the benchmark.

    python3 perfbench/broker_child.py SRC_DIR TRACE

Starts ``streamgate.broker.serve`` on an ephemeral localhost port and
prints ``{"port": n}``. It then answers each command line read from
standard input with one JSON line:

* ``mark``: CPU seconds used so far, peak RSS and the broker counters;
* ``stop``: the same after the broker has shut down, plus the spans and
  counts of a traced run, then the process exits.

End of input counts as ``stop``, so the process cannot outlive the
bench. With TRACE=1 the public broker and codec calls are wrapped
before ``serve`` is called.
"""

from __future__ import annotations

import json
import resource
import sys
import threading

import tracing

SPAN_ID_BASE = 1 << 40  # keeps broker span ids apart from the bench's


class BrokerTrace:
    """Spans, counts and the peak thread count of the broker process."""

    def __init__(self, broker, mqtt):
        self.tracer = tracing.Tracer(id_base=SPAN_ID_BASE)
        self.peak_threads = 0
        tracer = self.tracer
        self.topic_matches = tracer.count(mqtt, "topic_matches")
        tracer.wrap(mqtt, "encode_packet", "mqtt.encode_packet", tracing.packet_arg_frame)
        tracer.wrap(mqtt, "decode_packet", "mqtt.decode_packet", tracing.decoded_packet_frame)
        tracer.wrap(broker.SubscriptionTable, "sessions_for", "broker.sessions_for")
        tracer.wrap(broker.Broker, "route", "broker.route", tracing.packet_arg_frame)
        tracer.after(broker.Broker, "route", self._sample_threads)

    def _sample_threads(self) -> None:
        count = threading.active_count()
        if count > self.peak_threads:
            self.peak_threads = count

    def report(self) -> dict:
        return {
            "spans": self.tracer.spans,
            "topic_matches": self.topic_matches.calls,
            "peak_threads": self.peak_threads,
        }


def _status(handle) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "stats": handle.stats.snapshot(),
    }


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    src_dir, trace = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, src_dir)
    from streamgate import broker, mqtt

    traced = BrokerTrace(broker, mqtt) if trace else None
    handle = broker.serve("127.0.0.1", 0)
    _reply({"port": handle.port})
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command == "mark":
            _reply(_status(handle))
    handle.stop()
    final = _status(handle)
    if traced is not None:
        final["trace"] = traced.report()
    _reply(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
