"""Echo transports: the interface the prober paces against, plus raw ICMP.

Two implementations exist: ``RawIcmpTransport`` here (real sockets, needs
CAP_NET_RAW or root) and the in-process simulated transport in
``simulation`` (no privilege, virtual time). Both satisfy ``EchoTransport``
structurally; the prober never imports a concrete transport, and runs its
one event loop against either. The contract is four calls: a clock, a
wait, one call that sends a slot's visits, and one collection per slot.
``send_run`` sends every probe of a slot's visits in one call and returns
the send times as an int64 array; the raw transport sends them one by
one, the simulated one computes them in one numpy pass. The slot's visits
close when ``end_run`` collects their replies, which come back as two
arrays shaped like the send times: each reply's receive time (int64), or
``NO_REPLY``, and its IP ID. Only ``sleep_until_ns`` and ``send_run``
wait for time to pass, and no transport starts a thread: the raw
transport reads replies while it waits in them.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time
from typing import Protocol, Sequence

import numpy as np


ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0


class TransportError(Exception):
    """Socket or privilege failure while probing."""


# the receive time ``end_run`` gives a probe that no reply answered
NO_REPLY = -1


def reply_arrays(replies: Sequence[dict[int, tuple[int, int]]],
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``{seq: (recv_ns, ip_id)}`` replies of each of a slot's visits of
    ``count`` probes as ``end_run``'s arrays; a sequence number the visit
    did not send is dropped."""
    recv_ns = np.full((len(replies), count), NO_REPLY, dtype=np.int64)
    ip_id = np.zeros((len(replies), count), dtype=np.int64)
    for row, heard in enumerate(replies):
        for seq, (recv, ident) in heard.items():
            if 0 <= seq < count:
                recv_ns[row, seq], ip_id[row, seq] = recv, ident
    return recv_ns, ip_id


class EchoTransport(Protocol):
    """What the prober needs: a clock, a wait, a slot's sends, and its collection.

    ``send_run(targets, first_ns, interval_ns, count, not_before_ns)``
    opens a visit to every target and sends its probe indices ``0`` to
    ``count - 1``, each as sequence number ``i``: index by index, and
    within an index in target order. It sends index ``i`` no earlier than
    ``first_ns + i * interval_ns``, and never within one interval of the
    target's previous send; ``not_before_ns[j]`` is the previous send to
    ``targets[j]``, from its last visit. It must not block on replies, and
    returns the send times as an int64 array of shape
    ``len(targets) x count``.

    ``end_run(targets, sent_ns)`` is called once the reply timeout after
    the slot's last send has passed, with the targets and the send times of
    one ``send_run`` call (``sent_ns[j, seq]`` for echo ``seq`` to
    ``targets[j]``). Without waiting, it closes the slot's visits and
    returns the replies heard as two arrays shaped like ``sent_ns``: the
    receive time of the reply to each echo as an int64, or ``NO_REPLY``,
    and its IP ID, of any integer dtype. The caller owns both arrays. A
    transport that hears real replies may ignore ``sent_ns`` but its
    shape. Visits of different targets overlap; visits of one target do
    not.
    """

    def now_ns(self) -> int: ...

    def sleep_until_ns(self, t_ns: int) -> None: ...

    def send_run(self, targets: Sequence[str], first_ns: int, interval_ns: int, count: int,
                 not_before_ns: np.ndarray) -> np.ndarray: ...

    def end_run(self, targets: Sequence[str],
                sent_ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


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
    """Paced ICMP echo over a raw socket, on the caller's thread.

    The echo identifier is the process ID mod 65536; sequence numbers are
    the probe index mod 65536. Replies are read only inside
    ``sleep_until_ns``, which waits on the socket and, whenever it is
    readable, reads every queued datagram and stamps each as it is read.
    A reply is kept when it is an echo reply with our identifier from an
    address whose visit is open, that is, which has been sent the visit's
    first echo; duplicates are dropped, first wins. Times
    are UNIX-epoch ns: the monotonic clock plus its offset from the wall
    clock, taken once at construction, so a wall-clock step cannot reorder
    them.
    """

    def __init__(self):
        self.ident = os.getpid() & 0xFFFF
        self._epoch_offset_ns = time.time_ns() - time.monotonic_ns()
        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
        except PermissionError as exc:
            raise TransportError(
                "raw ICMP sockets need CAP_NET_RAW or root; use the simulated transport for tests"
            ) from exc
        except OSError as exc:
            raise TransportError(f"cannot open raw ICMP socket: {exc}") from exc
        # A full send buffer delays a send by at most 0.2 s before it fails.
        # This is the kernel's send timeout, not ``settimeout``: a Python
        # timeout makes every receive poll first, so the last read of each
        # drain would stall for the whole timeout.
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, struct.pack("ll", 0, 200_000))
        # Replies queue in the socket while the loop sends, until it waits
        # again. The default buffer holds about 278 loopback datagrams, fewer
        # than 150 echoes and their replies; the kernel caps this request at
        # net.core.rmem_max.
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        self._pending: dict[str, dict[int, tuple[int, int]]] = {}

    def _drain(self) -> None:
        """Read every queued datagram without blocking and keep our replies."""
        while True:
            try:
                packet, addr = self._sock.recvfrom(2048, socket.MSG_DONTWAIT)
            except BlockingIOError:
                return
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            recv_ns = self.now_ns()
            parsed = parse_echo_reply(packet)
            if parsed is None:
                continue
            ip_id, ident, seq = parsed
            bucket = self._pending.get(addr[0])
            if ident == self.ident and bucket is not None:
                bucket.setdefault(seq, (recv_ns, ip_id))

    def now_ns(self) -> int:
        return time.monotonic_ns() + self._epoch_offset_ns

    def sleep_until_ns(self, t_ns: int) -> None:
        """Wait until ``t_ns``, reading replies as they arrive; read the
        queued ones once even when ``t_ns`` has passed."""
        while True:
            remaining_ns = t_ns - self.now_ns()
            readable, _, _ = select.select([self._sock], [], [], max(remaining_ns, 0) / 1e9)
            if readable:
                self._drain()
            if remaining_ns <= 0:
                return

    def send_run(self, targets: Sequence[str], first_ns: int, interval_ns: int, count: int,
                 not_before_ns: np.ndarray) -> np.ndarray:
        """Send each index of the visits at its due time, reading replies
        while waiting for it; a visit opens with its index 0. The clock is
        read once per index, and a target whose previous send is under one
        interval old waits until that send plus the interval. A late send
        thus delays only the sends that would follow it by less than the
        interval."""
        sent_ns = np.empty((len(targets), count), dtype=np.int64)
        last_ns = [int(t_ns) for t_ns in not_before_ns]
        for seq in range(count):
            self.sleep_until_ns(first_ns + seq * interval_ns)
            now_ns = self.now_ns()
            packet = build_echo_request(self.ident, seq)
            for row, target in enumerate(targets):
                if now_ns < last_ns[row] + interval_ns:
                    # a late send must not bring this target's next one closer
                    self.sleep_until_ns(last_ns[row] + interval_ns)
                    now_ns = self.now_ns()
                if seq == 0:
                    self._pending[target] = {}
                last_ns[row] = self.now_ns()
                try:
                    self._sock.sendto(packet, (target, 0))
                except OSError as exc:
                    raise TransportError(f"send to {target} failed: {exc}") from exc
            sent_ns[:, seq] = last_ns
        return sent_ns

    def end_run(self, targets: Sequence[str],
                sent_ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return reply_arrays([self._pending.pop(target, {}) for target in targets],
                            sent_ns.shape[1])

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "RawIcmpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
