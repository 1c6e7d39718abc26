"""Probe engine: paced echo visits and the round-robin campaign scheduler.

A campaign dwells on each target for a fixed time, sending one echo per
interval, then moves on; a pool of workers cycles through its share of the
target list so every target is revisited once per cycle. A per-target
courtesy cap bounds visit frequency; the scheduler inserts idle slots
rather than revisiting too fast.
"""

from __future__ import annotations

import logging
import math
import random
import threading
from dataclasses import dataclass
from typing import Protocol, Sequence

from .store import MAX_RTT_NS
from .transport import EchoTransport

logger = logging.getLogger(__name__)

MAX_IPID = 0xFFFF
MAX_PROBES_PER_VISIT = 1 << 16


class AllProbesLost(Exception):
    """Every probe of a visit went unanswered; carries the visit log."""

    def __init__(self, target: str, visit: "VisitLog"):
        self.target = target
        self.visit = visit
        super().__init__(f"no replies from {target} this visit")


class CapacityExceeded(ValueError):
    """Campaign parameters cannot be scheduled at all."""


class Aborted(Exception):
    """Campaign interrupted; completed visits were persisted."""


@dataclass(slots=True)
class ProbeSample:
    """One echo observation; ``ipid`` is None when the probe was lost."""

    target: str
    seq: int
    sent_ns: int
    recv_ns: int | None = None
    ipid: int | None = None

    def __post_init__(self) -> None:
        if self.recv_ns is not None and self.recv_ns < self.sent_ns:
            raise ValueError("recv_ns must be >= sent_ns")
        if self.ipid is not None and not 0 <= self.ipid <= MAX_IPID:
            raise ValueError("ipid must be a 16-bit value")

    @property
    def lost(self) -> bool:
        return self.ipid is None

    @property
    def rtt_ns(self) -> int | None:
        if self.recv_ns is None:
            return None
        return self.recv_ns - self.sent_ns


@dataclass(slots=True)
class VisitLog:
    """All samples of one dwell on one target, ordered by send time."""

    target: str
    start_ns: int
    end_ns: int
    samples: list[ProbeSample]

    @property
    def loss_count(self) -> int:
        return sum(1 for s in self.samples if s.lost)

    @property
    def reply_count(self) -> int:
        return len(self.samples) - self.loss_count


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
        if self.dwell_s < 2 * self.probe_interval_s:
            raise ValueError("dwell_s must cover at least two probe intervals")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.total_duration_s < 0:
            raise ValueError("total_duration_s must be >= 0")
        if self.mtu_bytes < 1:
            raise ValueError("mtu_bytes must be >= 1")
        # Echo sequence numbers are 16-bit on the wire, and replies are
        # matched by sequence number within a visit.
        if round(self.dwell_s * 1e9) // round(self.probe_interval_s * 1e9) > MAX_PROBES_PER_VISIT:
            raise ValueError(f"a visit must send at most {MAX_PROBES_PER_VISIT} probes")
        if round(self.effective_timeout_s * 1e9) > MAX_RTT_NS:
            raise ValueError(f"the reply timeout must be at most {MAX_RTT_NS / 1e9} s")

    @property
    def effective_timeout_s(self) -> float:
        """Reply timeout; late replies count as loss to avoid ID reordering."""
        if self.probe_timeout_s is not None:
            return self.probe_timeout_s
        return max(1.0, 10 * self.probe_interval_s)


@dataclass(frozen=True)
class CampaignSchedule:
    """Per-worker visit assignments plus cycle geometry.

    A worker runs ``cycle_slots`` slots of ``slot_s`` seconds per cycle:
    its assigned targets in order, then idle padding when the raw cycle
    would violate the courtesy cap.
    """

    worker_targets: tuple[tuple[str, ...], ...]
    slot_s: float
    cycle_slots: int

    @property
    def workers(self) -> int:
        return len(self.worker_targets)

    @property
    def targets_per_worker(self) -> int:
        return max(len(t) for t in self.worker_targets)

    @property
    def cycle_s(self) -> float:
        return self.cycle_slots * self.slot_s

    def target_for_slot(self, worker: int, slot: int) -> str | None:
        """Target for the given absolute slot, or None for an idle slot."""
        assigned = self.worker_targets[worker]
        index = slot % self.cycle_slots
        if index < len(assigned):
            return assigned[index]
        return None


def plan_campaign(targets: Sequence[str], params: CampaignParams) -> CampaignSchedule:
    """Deal targets to workers round-robin, deterministically per seed.

    Targets are shuffled (seeded) before dealing so load spreads across
    sites; each target lands on exactly one worker and is visited once per
    cycle. Cycles shorter than the courtesy cap allows get idle padding.
    """
    unique = sorted(set(targets))
    if not unique:
        raise ValueError("targets must be non-empty")
    cap = params.max_visits_per_hour
    if cap is not None and cap <= 0:
        raise CapacityExceeded("courtesy cap must allow at least some visits")

    order = list(unique)
    random.Random(f"{params.seed}:schedule").shuffle(order)
    worker_count = min(params.workers, len(order))
    assignment = tuple(tuple(order[i::worker_count]) for i in range(worker_count))

    per_worker = max(len(a) for a in assignment)
    cycle_slots = per_worker
    if cap is not None:
        min_spacing_s = 3600.0 / cap
        cycle_slots = max(cycle_slots, math.ceil(min_spacing_s / params.dwell_s - 1e-9))
    return CampaignSchedule(assignment, params.dwell_s, cycle_slots)


def probe_target(
    target: str,
    interval_s: float,
    dwell_s: float,
    transport: EchoTransport,
    timeout_s: float | None = None,
) -> VisitLog:
    """Send ``dwell/interval`` echoes paced at ``interval`` and collect replies.

    Raises ``AllProbesLost`` (visit attached) when nothing answered, and
    ``TransportError`` on socket or privilege failures.
    """
    interval_ns = round(interval_s * 1e9)
    dwell_ns = round(dwell_s * 1e9)
    if interval_ns <= 0:
        raise ValueError("interval must be > 0")
    if dwell_ns < 2 * interval_ns:
        raise ValueError("dwell must cover at least two intervals")
    timeout_ns = round((timeout_s if timeout_s is not None else max(1.0, 10 * interval_s)) * 1e9)

    count = dwell_ns // interval_ns
    transport.begin_visit(target)
    start_ns = transport.now_ns()
    sent: list[int] = []
    for i in range(count):
        transport.sleep_until_ns(start_ns + i * interval_ns)
        sent.append(transport.send_echo(target, i))

    replies = transport.drain(target, sent[-1] + timeout_ns)
    samples: list[ProbeSample] = []
    losses = 0
    for i, sent_ns in enumerate(sent):
        hit = replies.get(i)
        if hit is not None and hit[0] - sent_ns <= timeout_ns:
            samples.append(ProbeSample(target, i, sent_ns, hit[0], hit[1]))
        else:
            samples.append(ProbeSample(target, i, sent_ns))
            losses += 1
    visit = VisitLog(target, start_ns, sent[-1] + interval_ns, samples)
    transport.end_visit(target)
    if losses == count:
        raise AllProbesLost(target, visit)
    return visit


class SampleSink(Protocol):
    """Where completed visits go; must accept appends from many workers."""

    def add_visit(self, visit: VisitLog) -> None: ...


class ListSink:
    """In-memory sink, safe for concurrent appends."""

    def __init__(self) -> None:
        self.visits: list[VisitLog] = []
        self._lock = threading.Lock()

    def add_visit(self, visit: VisitLog) -> None:
        with self._lock:
            self.visits.append(visit)


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
    sink: SampleSink,
) -> CampaignSummary:
    """Execute the schedule until the campaign duration elapses.

    Every visit is appended to ``sink`` before the same worker starts its
    next one. With a virtual-clock transport the schedule replays
    sequentially in visit-start order; with a real transport each worker
    runs in its own thread against the wall clock.
    """
    if params.total_duration_s <= 0:
        return CampaignSummary()
    schedule = plan_campaign(targets, params)
    duration_ns = round(params.total_duration_s * 1e9)
    slot_ns = round(schedule.slot_s * 1e9)
    timeout_s = params.effective_timeout_s

    answered: set[str] = set()
    totals = CampaignSummary()
    lock = threading.Lock()

    def run_visit(target: str) -> None:
        try:
            visit = probe_target(target, params.probe_interval_s, params.dwell_s, transport, timeout_s)
        except AllProbesLost as exc:
            visit = exc.visit
        with lock:
            sink.add_visit(visit)
            totals.visits_completed += 1
            totals.probes_sent += len(visit.samples)
            totals.losses += visit.loss_count
            if visit.reply_count:
                answered.add(target)

    if getattr(transport, "is_virtual", False):
        slot = 0
        while slot * slot_ns < duration_ns:
            t_ns = slot * slot_ns
            for worker in range(schedule.workers):
                target = schedule.target_for_slot(worker, slot)
                if target is None:
                    continue
                transport.jump_to_ns(t_ns)
                run_visit(target)
            slot += 1
    else:
        stop = threading.Event()

        def worker_loop(worker: int) -> None:
            epoch_ns = transport.now_ns()
            slot = 0
            while not stop.is_set() and slot * slot_ns < duration_ns:
                target = schedule.target_for_slot(worker, slot)
                if target is not None:
                    transport.sleep_until_ns(epoch_ns + slot * slot_ns)
                    if stop.is_set():
                        break
                    run_visit(target)
                slot += 1

        threads = [
            threading.Thread(target=worker_loop, args=(w,), daemon=True)
            for w in range(schedule.workers)
        ]
        for t in threads:
            t.start()
        try:
            for t in threads:
                t.join()
        except KeyboardInterrupt:
            stop.set()
            for t in threads:
                t.join()
            raise Aborted("campaign interrupted; partial results persisted") from None

    totals.reachable = tuple(sorted(answered))
    totals.unreachable = tuple(sorted(set(targets) - answered))
    return totals
