"""Probe engine: paced echo visits and the round-robin campaign scheduler.

A campaign dwells on each target for a fixed time, sending one echo per
interval, then moves on; each worker cycles through its share of the
target list so every target is revisited once per cycle. A per-target
courtesy cap bounds visit frequency; the scheduler inserts idle slots
rather than revisiting too fast.

One loop on one thread runs every campaign, on a virtual or a real clock
alike. It walks the busy slots of each cycle in time order, so idle slots
and workers cost nothing. The visits of a slot send in step: probe index
``i`` of each is due ``i`` intervals after the slot's start, and one
transport call (``send_run``) sends the whole slot. Before a slot sends,
the loop collects every earlier slot whose last send is one reply timeout
old by the slot's start: it waits for that time in the transport's
``sleep_until_ns``, which is where a real transport reads its replies,
collects the slot's replies in one call (``end_run``), and passes each of
its visits, as one ``VisitFrame``, to the caller's ``emit`` function.
``plan_campaign`` pads each cycle so that a target's reply window closes
by its next visit's start, so every visit is collected before its target
is sent to again. Due times are fixed
from the campaign's start. The transport sends no index before its due
time and no target within one interval of its previous send, in this
visit or its last one, so a late send delays only the sends that would
follow it by less than the interval. The loop checks every slot's send
times and raises ``TransportError`` on a gap under the interval:
courtesy is checked, not trusted.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .store import LOST_RTT, MAX_RTT_NS, VisitFrame
from .transport import NO_REPLY, EchoTransport, TransportError

MAX_IPID = 0xFFFF
MAX_PROBES_PER_VISIT = 1 << 16


class CapacityExceeded(ValueError):
    """Campaign parameters cannot be scheduled at all."""


@dataclass(frozen=True)
class CampaignParams:
    """Campaign knobs; defaults pace one echo per 30 ms, one minute per
    visit, 150 workers, ten days total, at most two visits per hour."""

    probe_interval_s: float = 0.03
    dwell_s: float = 60.0
    revisit_period_s: float = 1800.0
    workers: int = 150
    total_duration_s: float = 864000.0
    max_visits_per_hour: float | None = 2.0
    probe_timeout_s: float | None = None
    mtu_bytes: int = 1500
    seed: int = 0

    def __post_init__(self) -> None:
        if round(self.probe_interval_s * 1e9) <= 0:
            raise ValueError("probe_interval_s must be > 0")
        if self.probes_per_visit < 2:
            raise ValueError("dwell_s must cover at least two probe intervals")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.total_duration_s < 0:
            raise ValueError("total_duration_s must be >= 0")
        if self.mtu_bytes < 1:
            raise ValueError("mtu_bytes must be >= 1")
        cap = self.max_visits_per_hour
        if cap is not None and not 0 < cap < math.inf:  # NaN compares false
            raise CapacityExceeded(f"the courtesy cap must be a finite number > 0, not {cap!r}")
        # Echo sequence numbers are 16-bit on the wire, and replies are
        # matched by sequence number within a visit.
        if self.probes_per_visit > MAX_PROBES_PER_VISIT:
            raise ValueError(f"a visit must send at most {MAX_PROBES_PER_VISIT} probes")
        if not 0 < round(self.effective_timeout_s * 1e9) <= MAX_RTT_NS:
            raise ValueError(f"the reply timeout must be > 0 and at most {MAX_RTT_NS / 1e9} s")

    @property
    def probes_per_visit(self) -> int:
        """Echoes one visit sends: whole intervals in the dwell."""
        return round(self.dwell_s * 1e9) // round(self.probe_interval_s * 1e9)

    @property
    def effective_timeout_s(self) -> float:
        """Reply timeout; late replies count as loss to avoid ID reordering."""
        if self.probe_timeout_s is not None:
            return self.probe_timeout_s
        return max(1.0, 10 * self.probe_interval_s)


@dataclass(frozen=True)
class CampaignSchedule:
    """The busy slots of one cycle plus the cycle's length.

    ``slots[i]`` holds, in worker order, the targets visited in slot ``i``
    of each cycle of ``cycle_slots`` slots of one dwell each. The
    slots from ``len(slots)`` on are idle padding, added when the raw cycle
    would violate the courtesy cap or revisit a target within its previous
    visit's reply window.
    """

    slots: tuple[tuple[str, ...], ...]
    cycle_slots: int


def plan_campaign(targets: Sequence[str], params: CampaignParams) -> CampaignSchedule:
    """Deal targets to workers round-robin, deterministically per seed.

    Targets are shuffled (seeded) before dealing so load spreads across
    sites; each target lands on exactly one worker and is visited once per
    cycle. Cycles shorter than the courtesy cap allows get idle padding, as
    do cycles shorter than a visit's last send plus the reply timeout:
    replies are matched by (address, seq), so a target's next visit must
    not start before its previous reply window closes. A cycle longer than
    the revisit period, which is also the width of the report bins, raises
    ``CapacityExceeded``.
    """
    unique = sorted(set(targets))
    if not unique:
        raise ValueError("targets must be non-empty")
    cap = params.max_visits_per_hour

    order = list(unique)
    random.Random(f"{params.seed}:schedule").shuffle(order)
    # worker w visits order[w], order[w + workers], ...: slot i holds the
    # i-th target of every worker that has one
    worker_count = min(params.workers, len(order))
    slots = tuple(tuple(order[i:i + worker_count]) for i in range(0, len(order), worker_count))

    slot_ns = round(params.dwell_s * 1e9)
    window_ns = ((params.probes_per_visit - 1) * round(params.probe_interval_s * 1e9)
                 + round(params.effective_timeout_s * 1e9))
    min_slots = -(-window_ns // slot_ns)
    if cap is not None:
        min_spacing_s = 3600.0 / cap
        min_slots = max(min_slots, math.ceil(min_spacing_s / params.dwell_s - 1e-9))
    cycle_slots = max(min_slots, len(slots))
    period_ns = round(params.revisit_period_s * 1e9)
    if cycle_slots * slot_ns > period_ns:
        fits = f"a revisit period of at least {cycle_slots * slot_ns / 1e9:g} s"
        slots_per_period = period_ns // slot_ns
        if min_slots <= slots_per_period:
            fits = f"{-(-len(order) // slots_per_period)} workers or {fits}"
        raise CapacityExceeded(
            f"{len(order)} targets over {worker_count} workers take "
            f"{cycle_slots * slot_ns / 1e9:g} s per cycle, more than the revisit period "
            f"of {params.revisit_period_s:g} s; this needs {fits}")
    return CampaignSchedule(slots, cycle_slots)


@dataclass
class CampaignSummary:
    """Campaign accounting; targets partition into reachable (at least one
    echo reply over the whole campaign) and non-reachable."""

    visits_completed: int = 0
    probes_sent: int = 0
    losses: int = 0
    reachable: tuple[str, ...] = ()
    unreachable: tuple[str, ...] = ()


def run_campaign(
    targets: Sequence[str],
    params: CampaignParams,
    transport: EchoTransport,
    emit: Callable[[VisitFrame], None],
) -> CampaignSummary:
    """Execute the schedule until the campaign duration elapses, calling
    ``emit`` with each finished visit.

    The visits of slot ``s`` start at ``epoch + s * dwell_s``, where the
    epoch is the transport's clock at the call, and send in step. Once
    their last send is one reply timeout old, each is emitted before the
    next busy slot that starts at or after that time sends, or at the
    campaign's end, in slot order and then worker order.
    """
    if params.total_duration_s <= 0:
        return CampaignSummary()
    schedule = plan_campaign(targets, params)
    slot_ns = round(params.dwell_s * 1e9)
    interval_ns = round(params.probe_interval_s * 1e9)
    timeout_ns = round(params.effective_timeout_s * 1e9)
    count = params.probes_per_visit

    slot_count = -(-round(params.total_duration_s * 1e9) // slot_ns)
    # each busy slot of the campaign and the targets it visits
    slots = ((start + i, targets_now)
             for start in range(0, slot_count, schedule.cycle_slots)
             for i, targets_now in enumerate(schedule.slots) if start + i < slot_count)
    epoch_ns = transport.now_ns()
    answered: set[str] = set()
    # each target's latest send, from any visit; the clock never reads below the epoch
    last_sent_ns = dict.fromkeys(targets, epoch_ns - interval_ns)
    totals = CampaignSummary()
    # (due_ns, targets, sent_ns) of the sent slots not yet collected, where
    # row r of sent_ns holds the send times of the visit to targets[r]. A
    # slot's sends end before the next slot's begin (``count`` intervals fit
    # in a dwell), so sends and collections alike fall due in slot order.
    pending: deque[tuple[int, tuple[str, ...], np.ndarray]] = deque()

    def collect(visit_targets: tuple[str, ...], sent: np.ndarray) -> None:
        # a function, so that no frame outlives it to hold the slot's arrays
        frames, losses = _slot_frames(visit_targets, sent, *transport.end_run(visit_targets, sent),
                                      interval_ns, timeout_ns)
        for frame, lost in zip(frames, losses):
            emit(frame)
            totals.visits_completed += 1
            totals.probes_sent += count
            totals.losses += lost
            if lost < count:
                answered.add(frame.target)

    def collect_until(t_ns: float) -> None:
        while pending and pending[0][0] <= t_ns:
            due_ns, visit_targets, sent = pending.popleft()
            transport.sleep_until_ns(due_ns)
            collect(visit_targets, sent)

    for slot, visit_targets in slots:
        first_ns = epoch_ns + slot * slot_ns
        collect_until(first_ns)
        previous_ns = np.array([last_sent_ns[target] for target in visit_targets], dtype=np.int64)
        sent = transport.send_run(visit_targets, first_ns, interval_ns, count, previous_ns)
        _check_courtesy(visit_targets, sent, count, previous_ns, interval_ns)
        last_sent_ns.update(zip(visit_targets, sent[:, -1].tolist()))
        pending.append((first_ns + (count - 1) * interval_ns + timeout_ns, visit_targets, sent))
    collect_until(math.inf)

    totals.reachable = tuple(sorted(answered))
    totals.unreachable = tuple(sorted(set(targets) - answered))
    return totals


def _check_courtesy(targets: Sequence[str], sent_ns: np.ndarray, count: int,
                    previous_ns: np.ndarray, interval_ns: int) -> None:
    """Raise ``TransportError`` unless ``sent_ns`` holds ``count`` send
    times per target, each at least one interval after the target's
    previous send (``previous_ns`` for the first)."""
    if np.shape(sent_ns) != (len(targets), count):
        raise TransportError(f"visits of {count} probes to {len(targets)} targets came back "
                             f"with the shape {np.shape(sent_ns)}")
    # each target's shortest gap, or the interval when none is shorter
    gaps = np.minimum(sent_ns[:, 0] - previous_ns,
                      np.diff(sent_ns, axis=1).min(axis=1, initial=interval_ns))
    if (gaps < interval_ns).any():
        row = int(np.argmax(gaps < interval_ns))
        raise TransportError(f"{targets[row]}: the transport sent a probe {int(gaps[row])} ns "
                             f"after the one before, under the {interval_ns} ns interval")


def _slot_frames(targets: Sequence[str], sent_ns: np.ndarray, recv_ns: np.ndarray,
                 ip_id: np.ndarray, interval_ns: int,
                 timeout_ns: int) -> tuple[list[VisitFrame], list[int]]:
    """The visit to each ``targets[j]`` whose probe ``i`` went out at
    ``sent_ns[j, i]``, from ``end_run``'s arrays of the slot, and the
    number of probes each lost. A reply later than the timeout counts as a
    loss; a reply before its send or an ID outside 16 bits raises
    ``ValueError`` naming the first such target."""
    if np.shape(recv_ns) != sent_ns.shape or np.shape(ip_id) != sent_ns.shape:
        raise TransportError(f"the replies to visits of shape {sent_ns.shape} came back with "
                             f"the shapes {np.shape(recv_ns)} and {np.shape(ip_id)}")
    lost = recv_ns == NO_REPLY
    rtt = np.subtract(recv_ns, sent_ns, out=recv_ns)  # in place: a slot's arrays are large
    early = ((rtt < 0) & ~lost).any(axis=1)
    lost |= rtt > timeout_ns
    wide = (((ip_id < 0) | (ip_id > MAX_IPID)) & ~lost).any(axis=1)
    if (early | wide).any():
        row = int(np.argmax(early | wide))
        raise ValueError(f"{targets[row]}: " + ("a reply arrived before its probe was sent"
                                                if early[row] else
                                                "an IP ID is not a 16-bit value"))
    rtt[lost] = LOST_RTT
    ipid = ip_id.astype(np.uint16, copy=False)
    ipid[lost] = 0
    frames = [VisitFrame(target, start_ns, end_ns, sent, rtts, ids)
              for target, start_ns, end_ns, sent, rtts, ids in zip(
                  targets, sent_ns[:, 0].tolist(), (sent_ns[:, -1] + interval_ns).tolist(),
                  sent_ns, rtt.astype(np.uint32), ipid)]
    return frames, np.count_nonzero(lost, axis=1).tolist()
