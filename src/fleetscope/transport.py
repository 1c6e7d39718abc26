"""Echo transports: the interface the prober paces against, plus raw ICMP.

Two implementations exist: ``RawIcmpTransport`` here (real sockets, needs
CAP_NET_RAW or root) and the in-process simulated transport in
``simulation`` (no privilege, virtual time). Both satisfy ``EchoTransport``
structurally; the prober never imports a concrete transport.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Protocol


ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0


class TransportError(Exception):
    """Socket or privilege failure while probing."""


class EchoTransport(Protocol):
    """What the prober needs: a clock, pacing, and fire-and-collect echoes.

    ``send_echo`` must not block on the reply; replies are collected once
    per visit via ``drain``. ``begin_visit``/``end_visit`` bracket a visit
    so implementations can reset per-target state.
    """

    def now_ns(self) -> int: ...

    def sleep_until_ns(self, t_ns: int) -> None: ...

    def begin_visit(self, target: str) -> None: ...

    def send_echo(self, target: str, seq: int) -> int: ...

    def drain(self, target: str, deadline_ns: int) -> dict[int, tuple[int, int]]: ...

    def end_visit(self, target: str) -> None: ...


def icmp_checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def build_echo_request(ident: int, seq: int, payload: bytes = b"\x00" * 8) -> bytes:
    """Assemble an ICMP echo request (type 8, code 0) datagram."""
    header = struct.pack("!BBHHH", ICMP_ECHO_REQUEST, 0, 0, ident & 0xFFFF, seq & 0xFFFF)
    csum = icmp_checksum(header + payload)
    return struct.pack("!BBHHH", ICMP_ECHO_REQUEST, 0, csum, ident & 0xFFFF, seq & 0xFFFF) + payload


def parse_echo_reply(packet: bytes) -> tuple[int, int, int] | None:
    """Extract (ip_id, ident, seq) from a raw IPv4 echo-reply datagram.

    Returns None for anything that is not a well-formed echo reply. The ID
    of interest is the identification field of the reply's own IPv4 header.
    """
    if len(packet) < 28:
        return None
    ver_ihl = packet[0]
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(packet) < ihl + 8:
        return None
    ip_id = struct.unpack_from("!H", packet, 4)[0]
    icmp_type, icmp_code, _csum, ident, seq = struct.unpack_from("!BBHHH", packet, ihl)
    if icmp_type != ICMP_ECHO_REPLY or icmp_code != 0:
        return None
    return ip_id, ident, seq


class RawIcmpTransport:
    """Paced ICMP echo over a raw socket with an asynchronous receiver.

    The echo identifier is process-scoped; sequence numbers are the probe
    index mod 65536. Replies are matched by (source address, sequence) with
    the identifier checked; duplicates are dropped, first wins. Times are
    UNIX-epoch ns: the monotonic clock plus its offset from the wall clock,
    taken once at construction, so a wall-clock step cannot reorder them.
    """

    is_virtual = False

    def __init__(self, ident: int | None = None):
        import os

        self.ident = (ident if ident is not None else os.getpid()) & 0xFFFF
        self._epoch_offset_ns = time.time_ns() - time.monotonic_ns()
        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
        except PermissionError as exc:
            raise TransportError(
                "raw ICMP sockets need CAP_NET_RAW or root; use the simulated transport for tests"
            ) from exc
        except OSError as exc:
            raise TransportError(f"cannot open raw ICMP socket: {exc}") from exc
        self._sock.settimeout(0.2)
        self._pending: dict[str, dict[int, tuple[int, int]]] = {}
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._receiver = threading.Thread(target=self._receive_loop, daemon=True)
        self._receiver.start()

    def _receive_loop(self) -> None:
        while not self._closed.is_set():
            try:
                packet, addr = self._sock.recvfrom(2048)
            except socket.timeout:
                continue
            except OSError:
                return
            recv_ns = self.now_ns()
            parsed = parse_echo_reply(packet)
            if parsed is None:
                continue
            ip_id, ident, seq = parsed
            if ident != self.ident:
                continue
            with self._lock:
                bucket = self._pending.get(addr[0])
                if bucket is not None:
                    bucket.setdefault(seq, (recv_ns, ip_id))

    def now_ns(self) -> int:
        return time.monotonic_ns() + self._epoch_offset_ns

    def sleep_until_ns(self, t_ns: int) -> None:
        while True:
            remaining = t_ns - self.now_ns()
            if remaining <= 0:
                return
            time.sleep(min(remaining / 1e9, 0.05))

    def begin_visit(self, target: str) -> None:
        with self._lock:
            self._pending[target] = {}

    def send_echo(self, target: str, seq: int) -> int:
        packet = build_echo_request(self.ident, seq)
        sent_ns = self.now_ns()
        try:
            self._sock.sendto(packet, (target, 0))
        except OSError as exc:
            raise TransportError(f"send to {target} failed: {exc}") from exc
        return sent_ns

    def drain(self, target: str, deadline_ns: int) -> dict[int, tuple[int, int]]:
        self.sleep_until_ns(deadline_ns)
        with self._lock:
            return self._pending.pop(target, {})

    def end_visit(self, target: str) -> None:
        with self._lock:
            self._pending.pop(target, None)

    def close(self) -> None:
        self._closed.set()
        self._sock.close()

    def __enter__(self) -> "RawIcmpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
