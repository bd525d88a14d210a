"""Minimal blocking MQTT 3.1.1 client connection.

Shared plumbing for the frame publisher and the headless subscriber:
a TCP socket, a pipelined handshake, and incremental packet framing on
the receive side. QoS 0 only, like everything else here.

:meth:`MqttConnection.connect` sends CONNECT and returns without
waiting for CONNACK, which MQTT 3.1.1 section 3.1.4 allows, so a
publisher's first frame travels in the same round trip as its CONNECT.
The first call that reads takes the CONNACK and checks it: receiving,
subscribing (after its SUBSCRIBE is sent), disconnecting and closing.
A refusal raises :class:`ClientError` there.
"""

from __future__ import annotations

import contextlib
import logging
import socket
from collections import deque
from typing import Optional

from . import mqtt

__all__ = ["ClientError", "MqttConnection"]

log = logging.getLogger(__name__)

_RECV_CHUNK = 65536


class ClientError(Exception):
    """Connection or handshake failure talking to a broker."""


class MqttConnection:
    """One client session against a broker.

    Use as a context manager or call :meth:`close` explicitly. Incoming
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
        connect_timeout: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.keep_alive_s = keep_alive_s
        self._connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._timeout: Optional[float] = None  # the socket's, as last set
        self._connack_due = False
        self._buffer = bytearray()
        self._recv_view = memoryview(bytearray(_RECV_CHUNK))  # every recv lands here
        self._pending: deque = deque()

    def __enter__(self) -> "MqttConnection":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> None:
        """Open the TCP connection and send CONNECT; the CONNACK is read later."""
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self._connect_timeout
            )
        except OSError as exc:
            raise ClientError(f"cannot reach broker at {self.host}:{self.port}: {exc}") from exc
        self._timeout = self._connect_timeout
        connect = mqtt.Connect(self.client_id, self.keep_alive_s, clean_session=True)
        self._send(mqtt.encode_packet(connect))
        self._connack_due = True

    def publish(self, topic: str, payload: bytes, retain: bool = False) -> None:
        self._send(mqtt.publish_header(topic, len(payload), retain), payload)

    def subscribe(self, topic_filter: str, packet_id: int = 1) -> int:
        """Subscribe to one filter; returns the granted QoS (0) or raises."""
        subscribe = mqtt.Subscribe(packet_id=packet_id, filters=((topic_filter, 0),))
        self._send(mqtt.encode_packet(subscribe))
        self._settle()  # after the SUBSCRIBE: it shares the CONNECT's round trip
        ack = self._await_packet(mqtt.Suback, timeout=self._connect_timeout)
        if ack is None:
            raise ClientError("broker closed the connection during subscribe")
        if ack.packet_id != packet_id:
            raise ClientError(f"suback for unexpected packet id {ack.packet_id}")
        if ack.granted and ack.granted[0] == 0x80:
            raise ClientError(f"broker rejected filter {topic_filter!r}")
        return ack.granted[0] if ack.granted else 0

    def ping(self) -> None:
        self._send(mqtt.encode_packet(mqtt.Pingreq()))

    def recv_packet(self, timeout: Optional[float] = None):
        """Return the next packet, or None once the peer has closed or
        sent bytes that are not a valid packet.

        Raises TimeoutError if nothing arrives within ``timeout``, and
        ClientError if the CONNACK, read first, refuses the session.
        """
        if self._connack_due:
            self._check_connack(timeout)
        if self._pending:
            return self._pending.popleft()
        return self._read_packet(timeout)

    def disconnect(self) -> None:
        """Polite shutdown: check a CONNACK still due, send DISCONNECT, then
        drop the socket.

        The CONNACK comes first so that the broker has taken this CONNECT
        before the same client id can connect again.
        """
        try:
            self._settle()
            with contextlib.suppress(ClientError):  # a lost goodbye changes nothing
                self._send(mqtt.encode_packet(mqtt.Disconnect()))
        finally:
            self._drop()

    def close(self) -> None:
        """Drop the socket, once a CONNACK still due has been checked.

        Closing with the CONNACK unread would make the kernel reset the
        connection, and a reset discards what the broker has not read yet.
        """
        try:
            self._settle()
        finally:
            self._drop()

    # -- internals ----------------------------------------------------------

    def _settle(self) -> None:
        """Check a CONNACK still due, waiting no longer than the connect timeout."""
        if self._connack_due:
            try:
                self._check_connack(self._connect_timeout)
            except TimeoutError:
                raise ClientError(f"no CONNACK within {self._connect_timeout} s") from None

    def _check_connack(self, timeout: Optional[float]) -> None:
        ack = self._await_packet(mqtt.Connack, timeout)
        self._connack_due = False
        if ack is None:
            raise ClientError("broker closed the connection during handshake")
        if ack.return_code != 0:
            self._drop()
            raise ClientError(f"broker refused connection: return code {ack.return_code}")

    def _drop(self) -> None:
        """Close the socket at once, whatever is left unread."""
        self._connack_due = False
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _send(self, *buffers: bytes) -> None:
        """Send the buffers in order, in one system call unless the socket is full."""
        if self._sock is None:
            raise ClientError("not connected")
        try:
            sent = self._sock.sendmsg(buffers)
            for buf in buffers:  # a socket with a timeout may take only part
                if sent < len(buf):
                    self._sock.sendall(memoryview(buf)[sent:])
                sent = max(sent - len(buf), 0)
        except OSError as exc:
            if not self._connack_due:  # else keep it, so a refusal can still be read
                self._drop()
            raise ClientError(f"send failed: {exc}") from exc

    def _read_packet(self, timeout: Optional[float]):
        if self._sock is None:
            return None
        if timeout != self._timeout:  # settimeout costs two fcntl calls
            self._sock.settimeout(timeout)
            self._timeout = timeout
        buffer = self._buffer
        while True:
            try:
                if len(buffer) >= mqtt.packet_length(buffer):  # decode each packet once
                    packet, consumed = mqtt.decode_packet(buffer)
                    del buffer[:consumed]
                    return packet
            except mqtt.NeedMoreDataError:
                pass
            except mqtt.MalformedPacketError as exc:
                # Nothing after bad framing can be trusted: end the session
                # as if the peer had closed it.
                log.warning("malformed packet from broker, closing: %s", exc)
                self._drop()
                return None
            try:
                received = self._sock.recv_into(self._recv_view)
            except socket.timeout:
                raise TimeoutError("no packet within timeout") from None
            except OSError:
                self._drop()
                return None
            if not received:
                self._drop()
                return None
            buffer += self._recv_view[:received]

    def _await_packet(self, packet_cls, timeout: float):
        """Read until a packet of the wanted class arrives; queue the rest."""
        while True:
            packet = self._read_packet(timeout)
            if packet is None:
                return None
            if isinstance(packet, packet_cls):
                return packet
            self._pending.append(packet)
