"""Reference estimator: the per-sample loops that ``fleetscope.ipid``'s batch
kernel replaced, kept verbatim so property tests can compare the two.

The loops read one record per probe (``ProbeSample``) grouped into a visit
(``VisitLog``), the in-memory form visits had before ``store.VisitFrame``
replaced it; ``to_frame`` turns a visit into the frame the kernel reads.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from fleetscope.ipid import (
    CLUSTER_CONCENTRATION,
    COUNTER_FRACTION,
    GAP_SPLIT_FACTOR,
    ID_SPACE,
    MIN_BEHAVIOR_SAMPLES,
    RISK_BOUND_FACTOR,
    SMALL_DELTA,
    IdBehavior,
    RateEstimate,
    ambiguity_bound,
)
from fleetscope.store import LOST_RTT, VisitFrame


class InsufficientSamples(ValueError):
    """Too few usable samples to classify or estimate."""


class NotACounter(ValueError):
    """Target does not expose a global ID counter; rate estimation refused."""


def wrap_corrected_delta(prev_id: int, next_id: int) -> int:
    """Packets sent between two ID readings, assuming at most one wrap."""
    return (next_id - prev_id) % ID_SPACE


@dataclass(slots=True)
class ProbeSample:
    """One echo observation; ``ipid`` is None when the probe was lost."""

    target: str
    seq: int
    sent_ns: int
    recv_ns: int | None = None
    ipid: int | None = None


@dataclass(slots=True)
class VisitLog:
    """All samples of one dwell on one target, ordered by send time."""

    target: str
    start_ns: int
    end_ns: int
    samples: list[ProbeSample]


def to_frame(visit: VisitLog) -> VisitFrame:
    """The frame of ``visit``, whose samples are in seq order."""
    return VisitFrame(
        visit.target, visit.start_ns, visit.end_ns,
        np.array([s.sent_ns for s in visit.samples], dtype=np.int64),
        np.array([LOST_RTT if s.ipid is None else s.recv_ns - s.sent_ns for s in visit.samples],
                 dtype=np.uint32),
        np.array([s.ipid or 0 for s in visit.samples], dtype=np.uint16),
    )


def _live(samples: Iterable[ProbeSample]) -> list[ProbeSample]:
    return [s for s in samples if s.ipid is not None]


def detect_id_behavior(samples: Sequence[ProbeSample]) -> IdBehavior:
    live = _live(samples)
    if len(live) < MIN_BEHAVIOR_SAMPLES:
        raise InsufficientSamples(
            f"need >= {MIN_BEHAVIOR_SAMPLES} replies to classify, got {len(live)}"
        )
    deltas = [wrap_corrected_delta(a.ipid, b.ipid) for a, b in zip(live, live[1:])]
    gaps = [b.sent_ns - a.sent_ns for a, b in zip(live, live[1:])]

    if all(d == 0 for d in deltas):
        return IdBehavior.CONSTANT_OR_PERFLOW
    small = sum(1 for d in deltas if 0 < d < SMALL_DELTA)
    if small / len(deltas) >= COUNTER_FRACTION:
        return IdBehavior.GLOBAL_COUNTER

    base_gap = min(gaps)
    base = [d for d, g in zip(deltas, gaps) if g <= 1.5 * base_gap]
    if len(base) >= 10:
        angles = [2 * math.pi * d / ID_SPACE for d in base]
        resultant = math.hypot(
            sum(math.cos(a) for a in angles) / len(angles),
            sum(math.sin(a) for a in angles) / len(angles),
        )
        if resultant >= CLUSTER_CONCENTRATION:
            return IdBehavior.GLOBAL_COUNTER
    return IdBehavior.RANDOM


def _segments(live: list[ProbeSample], split_ns: float) -> list[list[ProbeSample]]:
    segments: list[list[ProbeSample]] = []
    current = [live[0]]
    for sample in live[1:]:
        if sample.sent_ns - current[-1].sent_ns > split_ns:
            segments.append(current)
            current = [sample]
        else:
            current.append(sample)
    segments.append(current)
    return [seg for seg in segments if len(seg) >= 2]


def estimate_rate(
    visit: VisitLog,
    interval_s: float,
    behavior: IdBehavior | None = None,
    subtract_self: bool = True,
) -> RateEstimate:
    live = _live(visit.samples)
    if len(live) < 2:
        raise InsufficientSamples(f"need >= 2 replies to estimate, got {len(live)}")
    if behavior is None:
        behavior = detect_id_behavior(visit.samples)
    if behavior is not IdBehavior.GLOBAL_COUNTER:
        raise NotACounter(f"{visit.target} ID behavior is {behavior.value}")

    interval_ns = interval_s * 1e9
    segments = _segments(live, GAP_SPLIT_FACTOR * interval_ns)
    if not segments:
        raise InsufficientSamples("no segment with two consecutive replies")

    pairs: list[tuple[int, float]] = []  # (raw delta, gap seconds)
    for seg in segments:
        for a, b in zip(seg, seg[1:]):
            pairs.append((wrap_corrected_delta(a.ipid, b.ipid), (b.sent_ns - a.sent_ns) / 1e9))

    single_rates = [d / g for d, g in pairs if g <= 1.5 * interval_s]
    rate_ref = statistics.median(single_rates) if single_rates else None

    packets = 0.0
    covered_s = 0.0
    replies_in_gaps = 0
    for d, g in pairs:
        if g > 1.5 * interval_s and rate_ref is not None:
            wraps = round((rate_ref * g - d) / ID_SPACE)
            d += max(0, wraps) * ID_SPACE
        packets += d
        covered_s += g
        replies_in_gaps += 1
    if covered_s <= 0:
        raise InsufficientSamples("zero covered time")
    if subtract_self:
        packets = max(0.0, packets - replies_in_gaps)

    pps = packets / covered_s
    typical_gap = statistics.median(g for _, g in pairs)
    risk = pps > RISK_BOUND_FACTOR * ambiguity_bound(typical_gap)
    return RateEstimate(
        target=visit.target,
        window_start_ns=visit.start_ns,
        window_end_ns=visit.end_ns,
        packets_per_second=pps,
        segments_used=len(segments),
        ambiguity_risk=risk,
    )
