"""Traffic-rate estimation from 16-bit IP identification samples.

A host with a global ID counter increments it once per packet sent, so the
wrap-corrected difference between two sampled IDs counts the packets sent
in between. The counter wraps every 65536 packets; a pacing interval short
enough to see at most one wrap per gap keeps the count unambiguous, which
caps the measurable rate at ``ambiguity_bound(interval)``. Faster targets
alias: their estimates are kept but flagged as lower bounds only.
"""

from __future__ import annotations

import enum
import logging
import math
import statistics
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .probe import ProbeSample, VisitLog

logger = logging.getLogger(__name__)

ID_SPACE = 1 << 16
MAX_ID = ID_SPACE - 1

MIN_BEHAVIOR_SAMPLES = 20
SMALL_DELTA = ID_SPACE // 4
COUNTER_FRACTION = 0.9
# Deltas of a fast counter exceed SMALL_DELTA long before the rate becomes
# ambiguous; per-gap increments that cluster tightly anywhere on the
# 16-bit circle (including straddling the wrap) still identify a counter,
# which uniform random IDs never produce.
CLUSTER_CONCENTRATION = 0.9

GAP_SPLIT_FACTOR = 3.0
RISK_BOUND_FACTOR = 0.8
ALIAS_RISK_VISIT_FRACTION = 0.02
ALIAS_AUTOCORR_THRESHOLD = 0.2
ALIAS_MEAN_BOUND_FACTOR = 0.5
DAY_S = 86400.0


class InsufficientSamples(ValueError):
    """Too few usable samples to classify or estimate."""


class NotACounter(ValueError):
    """Target does not expose a global ID counter; rate estimation refused."""


class IdBehavior(enum.Enum):
    GLOBAL_COUNTER = "global_counter"
    RANDOM = "random"
    CONSTANT_OR_PERFLOW = "constant_or_perflow"


def wrap_corrected_delta(prev_id: int, next_id: int) -> int:
    """Packets sent between two ID readings, assuming at most one wrap."""
    if not 0 <= prev_id <= MAX_ID or not 0 <= next_id <= MAX_ID:
        raise ValueError("IDs must be 16-bit values")
    return (next_id - prev_id) % ID_SPACE


def ambiguity_bound(interval_s: float) -> float:
    """Maximum unambiguously measurable packet rate for a sampling interval."""
    if interval_s <= 0:
        raise ValueError("interval must be > 0")
    return MAX_ID / interval_s


def _live(samples: Iterable[ProbeSample]) -> list[ProbeSample]:
    return [s for s in samples if s.ipid is not None]


def detect_id_behavior(samples: Sequence[ProbeSample]) -> IdBehavior:
    """Classify how a target populates the ID field.

    Counters show a high fraction of small positive modular deltas between
    consecutive readings (or, when faster, tightly clustered ones); all-zero
    deltas mean a constant or per-flow ID; everything else is random.
    """
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


@dataclass(slots=True)
class RateEstimate:
    """Traffic estimate for one visit window.

    ``bits_per_second`` converts packets to bits at the assumed MTU.
    ``ambiguity_risk`` marks estimates close to the single-wrap ceiling;
    ``lower_bound_only`` marks targets whose series shows the sampling was
    too slow, so values underestimate the real traffic.
    """

    target: str
    window_start_ns: int
    window_end_ns: int
    packets_per_second: float
    bits_per_second: float
    mtu_bytes: int
    id_behavior: IdBehavior
    segments_used: int
    ambiguity_risk: bool = False
    lower_bound_only: bool = False

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "window_start_ns": self.window_start_ns,
            "window_end_ns": self.window_end_ns,
            "pps": self.packets_per_second,
            "bps": self.bits_per_second,
            "mtu_bytes": self.mtu_bytes,
            "flags": {
                "id_behavior": self.id_behavior.value,
                "segments_used": self.segments_used,
                "ambiguity_risk": self.ambiguity_risk,
                "lower_bound_only": self.lower_bound_only,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RateEstimate":
        flags = obj["flags"]
        return cls(
            target=obj["target"],
            window_start_ns=obj["window_start_ns"],
            window_end_ns=obj["window_end_ns"],
            packets_per_second=obj["pps"],
            bits_per_second=obj["bps"],
            mtu_bytes=obj["mtu_bytes"],
            id_behavior=IdBehavior(flags["id_behavior"]),
            segments_used=flags["segments_used"],
            ambiguity_risk=flags["ambiguity_risk"],
            lower_bound_only=flags["lower_bound_only"],
        )


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
    mtu_bytes: int = 1500,
    behavior: IdBehavior | None = None,
    subtract_self: bool = True,
) -> RateEstimate:
    """Estimate the visit's mean packet and bit rate from its ID samples.

    The visit splits into segments at gaps longer than three intervals
    (beyond that, multi-wrap risk grows even for modest rates). Within a
    segment, wrap-corrected deltas between consecutive replies are summed;
    gaps spanning several intervals (probe loss) additionally resolve how
    many whole wraps they hide using the segment's single-interval rate.
    One reply packet per observed echo is our own traffic and is
    subtracted unless ``subtract_self`` is off.

    Raises ``NotACounter`` unless the target keeps a global counter and
    ``InsufficientSamples`` below two usable replies.
    """
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
        bits_per_second=pps * mtu_bytes * 8,
        mtu_bytes=mtu_bytes,
        id_behavior=behavior,
        segments_used=len(segments),
        ambiguity_risk=risk,
    )


def daily_autocorrelation(
    estimates: Sequence[RateEstimate], bin_s: float = 1800.0
) -> float | None:
    """Correlation of the binned rate series with itself one day later.

    Returns None when the series is too short (fewer than 12 aligned bin
    pairs) or has no variance, in which case no structure claim is made.
    """
    if not estimates:
        return None
    bin_ns = round(bin_s * 1e9)
    lag_bins = round(DAY_S / bin_s)
    bins: dict[int, list[float]] = {}
    for est in estimates:
        mid = (est.window_start_ns + est.window_end_ns) // 2
        bins.setdefault(mid // bin_ns, []).append(est.packets_per_second)
    means = {b: sum(v) / len(v) for b, v in bins.items()}
    now_vals = []
    later_vals = []
    for b, value in means.items():
        later = means.get(b + lag_bins)
        if later is not None:
            now_vals.append(value)
            later_vals.append(later)
    if len(now_vals) < 12:
        return None
    x = np.asarray(now_vals)
    y = np.asarray(later_vals)
    if x.std() == 0 or y.std() == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def series_estimates(
    visits: Iterable[VisitLog],
    interval_s: float,
    mtu_bytes: int = 1500,
) -> list[RateEstimate]:
    """One estimate per valid visit, with under-sampling flagged per target.

    A target is reported as lower-bound-only when ambiguity risk recurs
    across its visits, or when its series oscillates at high values with
    no daily structure (day-lag autocorrelation below threshold while the
    mean exceeds half the single-wrap ceiling); all of its estimates then
    carry the flag. Empty input yields an empty series.
    """
    ordered = sorted(visits, key=lambda v: v.start_ns)
    estimates: list[RateEstimate] = []
    for visit in ordered:
        try:
            estimates.append(estimate_rate(visit, interval_s, mtu_bytes))
        except (InsufficientSamples, NotACounter) as exc:
            logger.debug("skipping visit of %s: %s", visit.target, exc)
    if not estimates:
        return []

    risk_fraction = sum(e.ambiguity_risk for e in estimates) / len(estimates)
    mean_pps = sum(e.packets_per_second for e in estimates) / len(estimates)
    autocorr = daily_autocorrelation(estimates)
    structureless_high = (
        autocorr is not None
        and autocorr < ALIAS_AUTOCORR_THRESHOLD
        and mean_pps > ALIAS_MEAN_BOUND_FACTOR * ambiguity_bound(interval_s)
    )
    if risk_fraction >= ALIAS_RISK_VISIT_FRACTION or structureless_high:
        estimates = [replace(e, lower_bound_only=True) for e in estimates]
    return estimates
