"""Embedded QoS-0 MQTT broker for self-contained gateway deployments.

Accepts client sessions over TCP, keeps a subscription table, and
routes each Publish to every matching session exactly once. It is a
deliberately small broker: no retained messages, no QoS 1/2, no
persistence. The gateway also runs against external standards-compliant
brokers; this one exists so a single process can host the whole
publisher/broker/subscriber loop.

One thread runs a ``selectors`` loop over the listener and every
session socket. That thread owns all broker state, so nothing is
locked. Each select batch is handled in full before any output is
flushed. A fault while receiving, decoding or handling one session's
bytes logs and closes that session only. A CONNECT that supersedes a
session with the same client id first routes what the old one had
sent, up to what its socket could hold (``SO_RCVBUF``), then closes it.

A PUBLISH is never re-encoded: every matching session's outbox gets one
new header and the payload object as received. The outbox holds at most
``mqtt.MAX_PACKET_LENGTH`` (8 MiB); when it is full, new messages for
that session are dropped rather than queued, because a live video
stream wants freshness, not completeness. Sessions read through their
own ``mqtt.PacketReader`` into one shared 64 KiB buffer; one whose
packet declares more than 8 MiB is closed once its fixed header is in.
A socket must open with a CONNECT no longer than the codec accepts, and
within ``CONNECT_TIMEOUT_S``, or it is closed. When the process runs out
of file descriptors the broker stops watching its listener, whose
pending connection would keep it readable, until a session closes or
``ACCEPT_RETRY_S`` passes.

Log lines carry client ids, topics, and byte counts only, never
payload content.
"""

from __future__ import annotations

import errno
import logging
import selectors
import socket
import threading
import time
from typing import Dict, List, Optional, Set, Union

from . import mqtt

__all__ = ["Broker", "BrokerStats", "SubscriptionTable", "serve"]

log = logging.getLogger(__name__)

DEFAULT_PORT = 1883
KEEP_ALIVE_GRACE = 1.5
CONNECT_TIMEOUT_S = 10.0  # from accept to CONNECT, MQTT 3.1.1 section 3.1.4
ACCEPT_RETRY_S = 1.0  # out of descriptors with no session to close, try again after this
_IOV_MAX = 1024  # buffers per sendmsg call, the Linux and BSD limit


class BrokerStats:
    """Counters for tests and shutdown reports, written by the loop thread only."""

    def __init__(self):
        self.connections_accepted = 0
        self.publishes_received = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    def snapshot(self) -> dict:
        return dict(vars(self))


class SubscriptionTable:
    """Mapping from topic filter to the sessions subscribed through it.

    Removing a session strips it from every filter so no dangling
    references survive a disconnect. Only the broker's loop thread
    changes the table.
    """

    def __init__(self):
        self._filters: Dict[str, Set["_Session"]] = {}

    def add(self, topic_filter: str, session: "_Session") -> None:
        self._filters.setdefault(topic_filter, set()).add(session)

    def remove(self, topic_filter: str, session: "_Session") -> None:
        """Drop one subscription; a filter the session never had is a no-op."""
        sessions = self._filters.get(topic_filter)
        if sessions is None:
            return
        sessions.discard(session)
        if not sessions:
            del self._filters[topic_filter]

    def discard_session(self, session: "_Session") -> None:
        for topic_filter in list(self._filters):
            self.remove(topic_filter, session)

    def sessions_for(self, topic: str) -> Set["_Session"]:
        """All sessions with at least one matching filter, deduplicated.

        A filter that starts with a wildcard matches no topic that starts
        with ``$`` (MQTT-4.7.2-1).
        """
        reserved = topic.startswith("$")
        matched: Set["_Session"] = set()
        for topic_filter, sessions in self._filters.items():
            if reserved and topic_filter[0] in "#+":
                continue
            if mqtt.topic_matches(topic_filter, topic):
                matched.update(sessions)
        return matched

    def filter_count(self) -> int:
        return len(self._filters)


class _Session:
    """One client connection: its socket, packet reader and outbox."""

    def __init__(self, sock: socket.socket, address, read_buffer: bytearray):
        self.sock = sock
        self.address = address
        self.client_id: Optional[str] = None  # set once CONNECT is accepted
        self.keep_alive_s = 0
        self.accepted_at = self.last_activity = time.monotonic()
        self.reader = mqtt.PacketReader(read_buffer)
        # Wire bytes, never copied: a forwarded PUBLISH is its header and
        # then its payload. The head may be the unsent tail of a partial send.
        self.outbox: List[Union[bytes, memoryview]] = []
        self.outbox_bytes = 0
        self.writing = False  # registered for EVENT_WRITE
        self.closed = False

    @property
    def name(self) -> str:
        return self.client_id or str(self.address)

    def deadline(self) -> float:
        """When the broker gives up on hearing from this session.

        Only a session with no CONNECT yet, or with a keep-alive, has one.
        """
        if self.client_id is None:
            return self.accepted_at + CONNECT_TIMEOUT_S
        return self.last_activity + KEEP_ALIVE_GRACE * self.keep_alive_s


class Broker:
    """Embedded broker: bind, accept, route. Start with :meth:`start`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after start.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self.host = host
        self._requested_port = port
        self._port: Optional[int] = None
        self.table = SubscriptionTable()
        self.stats = BrokerStats()
        self._sessions: Dict[str, _Session] = {}  # by client id
        self._unflushed: Set[_Session] = set()  # output queued since the last flush
        self._timed: Set[_Session] = set()  # the sessions that have a deadline()
        # One read buffer for all sessions: buffers per session, or reads over
        # 64 KiB, let glibc trim the heap and fault it back in as sessions churn.
        self._read_buffer = bytearray(64 * 1024)
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._accept_paused_until: Optional[float] = None  # set while the listener is unwatched
        self._waker: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("broker not started")
        return self._port

    def start(self) -> "Broker":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self._requested_port))
        except OSError as exc:
            listener.close()
            raise OSError(
                f"cannot bind broker to {self.host}:{self._requested_port}: {exc}"
            ) from exc
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._waker, wake_end = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(wake_end, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._loop, name="mqtt-broker", daemon=True)
        self._thread.start()
        log.info("broker listening on %s:%d", self.host, self._port)
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._waker.send(b"\0")
        self._thread.join()
        self._thread = None
        self._waker.close()
        log.info("broker stopped: %s", self.stats.snapshot())

    # -- the loop -------------------------------------------------------------

    def _loop(self) -> None:
        selector = self._selector
        timeout = None
        try:
            while True:
                for key, events in selector.select(timeout):
                    session = key.data
                    if key.fileobj is self._listener:
                        self._accept()
                    elif session is None:  # woken by stop()
                        return
                    elif not session.closed:
                        if events & selectors.EVENT_WRITE:
                            self._unflushed.add(session)
                        if events & selectors.EVENT_READ:
                            self._read(session)
                while self._unflushed:
                    self._flush(self._unflushed.pop())
                timeout = self._expire_idle()
        finally:
            for key in list(selector.get_map().values()):
                if key.data is None:
                    key.fileobj.close()  # the listener and the waker's end
                else:
                    self._close(key.data, "broker shutdown")
            self._listener.close()  # also when it is not being watched
            selector.close()

    def _accept(self) -> None:
        try:
            sock, address = self._listener.accept()
        except OSError as exc:
            if exc.errno in (errno.EMFILE, errno.ENFILE):
                # The connection stays pending and the listener readable: stop
                # watching it for a while, or the loop would spin.
                log.warning("out of file descriptors, accept paused")
                self._selector.unregister(self._listener)
                self._accept_paused_until = time.monotonic() + ACCEPT_RETRY_S
            return  # else nothing pending, or the peer already gave up
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stats.connections_accepted += 1
        session = _Session(sock, address, self._read_buffer)
        self._timed.add(session)  # until its CONNECT is in
        self._selector.register(sock, selectors.EVENT_READ, session)

    def _read(self, session: _Session) -> int:
        """Receive once and handle each whole packet now in; the bytes taken.

        0 means the session has nothing more to give: its socket would
        block, or the session is closed. One thread serves every session,
        so a fault receiving, decoding or handling ends this session only.
        """
        try:
            received = session.reader.recv(session.sock)
        except BlockingIOError:
            return 0
        except OSError:
            self._close(session, "socket error")
            return 0
        if not received:
            self._close(session, "peer closed")
            return 0
        session.last_activity = time.monotonic()
        try:
            while not session.closed:
                if session.client_id is not None:
                    packet = session.reader.next(mqtt.MAX_PACKET_LENGTH)
                elif session.reader.pending[0] >> 4 == mqtt.PacketType.CONNECT:
                    packet = session.reader.next(mqtt.MAX_CONNECT_LENGTH)
                else:  # nothing is consumed before CONNECT, so pending[0] is the first byte
                    raise mqtt.MalformedPacketError("first packet is not CONNECT")
                if packet is None:
                    break
                self._handle(session, packet)
        except mqtt.MalformedPacketError as exc:  # a drain in _handle catches its own
            log.warning("session %s: malformed packet: %s", session.name, exc)
            self._close(session, "malformed packet")
        except Exception:
            log.exception("session %s: internal error", session.name)
            self._close(session, "internal error")
        return 0 if session.closed else received

    def _handle(self, session: _Session, packet) -> None:
        if session.client_id is None:  # _read lets only a CONNECT through
            self._register(session, packet)
        elif isinstance(packet, mqtt.Publish):
            self.stats.publishes_received += 1
            self.route(packet)
        elif isinstance(packet, mqtt.Subscribe):
            granted = []
            for topic_filter, _requested_qos in packet.filters:
                try:
                    mqtt.validate_filter(topic_filter)
                except mqtt.FilterError:
                    granted.append(0x80)
                    continue
                self.table.add(topic_filter, session)
                granted.append(0x00)
            suback = mqtt.Suback(packet_id=packet.packet_id, granted=tuple(granted))
            self._enqueue(session, mqtt.encode_packet(suback))
        elif isinstance(packet, mqtt.Unsubscribe):
            for topic_filter in packet.filters:
                self.table.remove(topic_filter, session)
            unsuback = mqtt.Unsuback(packet_id=packet.packet_id)
            self._enqueue(session, mqtt.encode_packet(unsuback))
        elif isinstance(packet, mqtt.Pingreq):
            self._enqueue(session, mqtt.encode_packet(mqtt.Pingresp()))
        elif isinstance(packet, mqtt.Disconnect):
            self._close(session, "client disconnect")
        elif isinstance(packet, mqtt.Connect):
            # [MQTT-3.1.0-2] a second connect on a live session is an error
            self._close(session, "duplicate connect")
        else:
            log.warning("session %s: unexpected %s", session.name, type(packet).__name__)
            self._close(session, "unexpected packet")

    # -- session registry -----------------------------------------------------

    def _register(self, session: _Session, packet: mqtt.Connect) -> None:
        if not packet.client_id:
            log.warning("rejecting connect with empty client id from %s", session.address)
            # MQTT-3.1.3-9: CONNACK 0x02, identifier rejected, then close.
            self._enqueue(session, mqtt.encode_packet(mqtt.Connack(return_code=2)))
            self._flush(session)
            self._close(session, "connect rejected")
            return
        superseded = self._sessions.get(packet.client_id)
        if superseded is not None:
            log.info("client id %r reconnected, superseding old session", packet.client_id)
            # Route what the old connection sent before cutting it, up to what
            # its socket holds: a peer that keeps sending must not hold the loop.
            left = superseded.sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            while left > 0 and (taken := self._read(superseded)):
                left -= taken
            self._close(superseded, "superseded by new connect")
        session.client_id = packet.client_id
        session.keep_alive_s = packet.keep_alive_s
        if not packet.keep_alive_s:
            self._timed.discard(session)
        self._sessions[packet.client_id] = session
        self._enqueue(session, mqtt.encode_packet(mqtt.Connack(return_code=0)))
        log.info("session %s connected (keep-alive %ds)", packet.client_id, packet.keep_alive_s)

    def _close(self, session: _Session, reason: str) -> None:
        if session.closed:
            return
        session.closed = True
        log.info("session %s closed: %s", session.name, reason)
        self.table.discard_session(session)
        if self._sessions.get(session.client_id) is session:
            del self._sessions[session.client_id]
        self._unflushed.discard(session)
        self._timed.discard(session)
        self._selector.unregister(session.sock)
        session.sock.close()
        if self._accept_paused_until is not None:
            self._resume_accept()

    def _resume_accept(self) -> None:
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._accept_paused_until = None

    def _expire_idle(self) -> Optional[float]:
        """Close sessions past their deadline, and resume a paused accept when due;
        seconds until the next deadline."""
        now = time.monotonic()
        timeout = None
        for session in list(self._timed):
            left = session.deadline() - now
            if left < 0:
                expired = "keep-alive expired" if session.client_id else "no connect in time"
                self._close(session, expired)
            elif timeout is None or left < timeout:
                timeout = left
        if self._accept_paused_until is not None:
            left = self._accept_paused_until - now
            if left <= 0:
                self._resume_accept()
            elif timeout is None or left < timeout:
                timeout = left
        return timeout

    # -- outbound -------------------------------------------------------------

    def _enqueue(self, session: _Session, *data: bytes) -> bool:
        """Queue the parts of one packet for the next flush; False means dropped (full)."""
        size = sum(map(len, data))
        if session.outbox_bytes + size > mqtt.MAX_PACKET_LENGTH:
            return False
        if not session.outbox:  # else a flush is already due or awaits EVENT_WRITE
            self._unflushed.add(session)
        session.outbox.extend(data)
        session.outbox_bytes += size
        return True

    def _flush(self, session: _Session) -> None:
        """Send what the socket takes; watch for EVENT_WRITE while bytes remain."""
        outbox = session.outbox
        try:
            while outbox:
                sent = session.sock.sendmsg(outbox[:_IOV_MAX])
                session.outbox_bytes -= sent
                done = 0
                while done < len(outbox) and sent >= len(outbox[done]):
                    sent -= len(outbox[done])
                    done += 1
                del outbox[:done]
                if sent:  # partial send: the socket buffer is full
                    outbox[0] = memoryview(outbox[0])[sent:]
                    break
        except BlockingIOError:
            pass
        except OSError:
            self._close(session, "send failed")
            return
        if session.writing != bool(outbox):
            session.writing = bool(outbox)
            events = selectors.EVENT_READ
            if session.writing:
                events |= selectors.EVENT_WRITE
            self._selector.modify(session.sock, events, session)

    # -- routing --------------------------------------------------------------

    def route(self, publish: mqtt.Publish) -> None:
        """Deliver a publish once to every matching session.

        QoS 0: sessions whose outbox is full just miss this message.
        """
        matched = self.table.sessions_for(publish.topic)
        if not matched:
            return
        # Forwarded publishes never carry the retain flag (nothing is stored).
        header = mqtt.publish_header(publish.topic, len(publish.payload))
        size = len(header) + len(publish.payload)
        for session in matched:
            if self._enqueue(session, header, publish.payload):
                self.stats.messages_delivered += 1
            else:
                self.stats.messages_dropped += 1
                log.info(
                    "dropped %d-byte message for slow session %s", size, session.name
                )


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> Broker:
    """Bind and start a broker; returns the running handle."""
    return Broker(host, port).start()
