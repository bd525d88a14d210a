"""Minimal blocking MQTT 3.1.1 client connection.

Shared plumbing for the frame publisher and the headless subscriber:
a TCP socket, a pipelined handshake, and incremental packet framing on
the receive side. QoS 0 only, like everything else here.

:meth:`MqttConnection.connect` sends CONNECT and returns without
waiting for CONNACK, which MQTT 3.1.1 section 3.1.4 allows, so a
publisher's first frame travels in the same round trip as its CONNECT.
The first call that reads takes the CONNACK and checks it: receiving,
subscribing (after its SUBSCRIBE is sent) and disconnecting. A refusal
raises :class:`ClientError` there.

The calls block through the socket's own timeout. Each read waits
for what is left of its call's deadline, so the ``timeout`` of
:meth:`MqttConnection.recv_packet` bounds the whole call, however the
packet trickles in. A send gives up after waiting :data:`WAIT_S` for
room in the socket. An :class:`mqtt.PacketReader` reads and frames
packets, as in the broker, under the same 8 MiB cap: a packet that
declares more ends the connection before it is buffered.
"""

from __future__ import annotations

import contextlib
import logging
import socket
import time
from collections import deque
from typing import Optional

from . import mqtt

__all__ = ["ClientError", "MqttConnection", "WAIT_S"]

log = logging.getLogger(__name__)

# How long a call waits on the broker: to connect, for a CONNACK or
# SUBACK, and for room to send. Read at each call.
WAIT_S = 5.0


class ClientError(Exception):
    """Connection or handshake failure talking to a broker."""


class MqttConnection:
    """One client session against a broker.

    End it with :meth:`disconnect`. Incoming
    packets that arrive while waiting for an acknowledgement are queued
    and handed out by later :meth:`recv_packet` calls, so packet order
    is preserved. :meth:`publish` and :meth:`ping` never wait for the
    CONNACK; every method that reads checks it first.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str,
        *,
        keep_alive_s: int = 0,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.keep_alive_s = keep_alive_s
        self._sock: Optional[socket.socket] = None
        self._connack_due = False
        self._reader = mqtt.PacketReader()
        self._pending: deque = deque()

    def connect(self) -> None:
        """Open the TCP connection and send CONNECT; the CONNACK is read later."""
        try:
            sock = socket.create_connection((self.host, self.port), timeout=WAIT_S)
        except OSError as exc:
            raise ClientError(f"cannot reach broker at {self.host}:{self.port}: {exc}") from exc
        self._sock = sock
        connect = mqtt.Connect(self.client_id, self.keep_alive_s, clean_session=True)
        self._send(mqtt.encode_packet(connect))
        self._connack_due = True

    def publish(self, topic: str, payload: bytes) -> None:
        self._send(mqtt.publish_header(topic, len(payload)), payload)

    def subscribe(self, topic_filter: str, packet_id: int = 1) -> int:
        """Subscribe to one filter; returns the granted QoS (0) or raises."""
        subscribe = mqtt.Subscribe(packet_id=packet_id, filters=((topic_filter, 0),))
        self._send(mqtt.encode_packet(subscribe))
        self._settle()  # after the SUBSCRIBE: it shares the CONNECT's round trip
        try:
            ack = self._await_packet(mqtt.Suback, time.monotonic() + WAIT_S)
        except TimeoutError:
            raise ClientError(f"no SUBACK within {WAIT_S} s") from None
        if ack is None:
            raise ClientError("broker closed the connection during subscribe")
        if ack.packet_id != packet_id:
            raise ClientError(f"suback for unexpected packet id {ack.packet_id}")
        if ack.granted[0] == 0x80:
            raise ClientError(f"broker rejected filter {topic_filter!r}")
        return ack.granted[0]

    def ping(self) -> None:
        self._send(mqtt.encode_packet(mqtt.Pingreq()))

    def recv_packet(self, timeout: Optional[float] = None):
        """Return the next packet, or None once the peer has closed or
        sent bytes that are not a valid packet.

        Raises TimeoutError if no whole packet is in within ``timeout``
        seconds of the call, and ClientError if the CONNACK, read first,
        refuses the session.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._connack_due:
            self._check_connack(deadline)
        if self._pending:
            return self._pending.popleft()
        return self._read_packet(deadline)

    def disconnect(self) -> None:
        """Polite shutdown: check a CONNACK still due, send DISCONNECT, then
        drop the socket.

        The CONNACK comes first so that the broker has taken this CONNECT
        before the same client id can connect again, and because closing
        with it unread would make the kernel reset the connection, which
        discards what the broker has not read yet.
        """
        try:
            self._settle()
            with contextlib.suppress(ClientError):  # a lost goodbye changes nothing
                self._send(mqtt.encode_packet(mqtt.Disconnect()))
        finally:
            self._drop()

    # -- internals ----------------------------------------------------------

    def _settle(self) -> None:
        """Check a CONNACK still due, waiting no longer than :data:`WAIT_S`."""
        if self._connack_due:
            try:
                self._check_connack(time.monotonic() + WAIT_S)
            except TimeoutError:
                raise ClientError(f"no CONNACK within {WAIT_S} s") from None

    def _check_connack(self, deadline: Optional[float]) -> None:
        ack = self._await_packet(mqtt.Connack, deadline)
        self._connack_due = False
        if ack is None:
            raise ClientError("broker closed the connection during handshake")
        if ack.return_code != 0:
            self._drop()
            raise ClientError(f"broker refused connection: return code {ack.return_code}")

    def _drop(self) -> None:
        """Close the socket at once, whatever is left unread."""
        self._connack_due = False
        self._reader.pending.clear()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _send(self, *buffers: bytes) -> None:
        """Send the buffers in order, in one system call unless the socket is full."""
        sock = self._sock
        if sock is None:
            raise ClientError("not connected")
        if sock.gettimeout() != WAIT_S:  # a read left its own
            sock.settimeout(WAIT_S)
        try:
            sent = sock.sendmsg(buffers)
            for buf in buffers:
                if sent < len(buf):  # the socket is full: wait for it to take the rest
                    sock.sendall(memoryview(buf)[sent:])
                sent = max(sent - len(buf), 0)
        except OSError as exc:
            if not self._connack_due:  # else keep it, so a refusal can still be read
                self._drop()
            raise ClientError(f"send failed: {exc}") from exc

    def _read_packet(self, deadline: Optional[float]):
        """Return the next packet, reading until it is whole or ``deadline`` passes."""
        if self._sock is None:
            return None
        while True:
            try:
                packet = self._reader.next(mqtt.MAX_PACKET_LENGTH)
            except mqtt.MalformedPacketError as exc:
                # Nothing after bad framing can be trusted: end the session
                # as if the peer had closed it.
                log.warning("bad packet from broker, closing: %s", exc)
                self._drop()
                return None
            if packet is not None:
                return packet
            left = None if deadline is None else max(deadline - time.monotonic(), 0)
            self._sock.settimeout(left)  # 0 once the deadline is past: take what is in
            try:
                if self._reader.recv(self._sock):
                    continue
            except (TimeoutError, BlockingIOError):  # a timeout of 0 raises the latter
                raise TimeoutError("no packet within timeout") from None
            except OSError:
                pass
            self._drop()  # end of input or a socket error
            return None

    def _await_packet(self, packet_cls, deadline: Optional[float]):
        """Read until a packet of the wanted class arrives; queue the rest."""
        while True:
            packet = self._read_packet(deadline)
            if packet is None:
                return None
            if isinstance(packet, packet_cls):
                return packet
            self._pending.append(packet)
