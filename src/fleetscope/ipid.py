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
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .store import VisitFrame

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
AUTOCORR_BIN_S = 1800.0


class InsufficientSamples(ValueError):
    """Too few usable samples to classify or estimate."""


class NotACounter(ValueError):
    """Target does not expose a global ID counter; rate estimation refused."""


class IdBehavior(enum.Enum):
    GLOBAL_COUNTER = "global_counter"
    RANDOM = "random"
    CONSTANT_OR_PERFLOW = "constant_or_perflow"


def _id_deltas(ids: np.ndarray) -> np.ndarray:
    """Packets sent between consecutive ID readings (an int64 array),
    assuming at most one wrap between them."""
    return np.diff(ids) % ID_SPACE


def ambiguity_bound(interval_s: float) -> float:
    """Maximum unambiguously measurable packet rate for a sampling interval."""
    if interval_s <= 0:
        raise ValueError("interval must be > 0")
    return MAX_ID / interval_s


def classify_replies(sent_ns: np.ndarray, ids: np.ndarray) -> IdBehavior:
    """Classify how a target populates the ID field from its answered probes.

    Counters show a high fraction of small positive modular deltas between
    consecutive readings (or, when faster, tightly clustered ones); all-zero
    deltas mean a constant or per-flow ID; everything else is random.
    ``sent_ns`` and ``ids`` are int64 arrays in send order.
    """
    if ids.size < MIN_BEHAVIOR_SAMPLES:
        raise InsufficientSamples(
            f"need >= {MIN_BEHAVIOR_SAMPLES} replies to classify, got {ids.size}"
        )
    deltas = _id_deltas(ids)
    gaps = np.diff(sent_ns)

    if not deltas.any():
        return IdBehavior.CONSTANT_OR_PERFLOW
    small = np.count_nonzero((deltas > 0) & (deltas < SMALL_DELTA))
    if small / deltas.size >= COUNTER_FRACTION:
        return IdBehavior.GLOBAL_COUNTER

    base = deltas[gaps <= 1.5 * gaps.min()]
    if base.size >= 10:
        angles = 2 * math.pi * base / ID_SPACE
        # left-to-right sums (np.sum is pairwise), as in a loop over the replies
        resultant = math.hypot(
            np.cumsum(np.cos(angles))[-1] / base.size,
            np.cumsum(np.sin(angles))[-1] / base.size,
        )
        if resultant >= CLUSTER_CONCENTRATION:
            return IdBehavior.GLOBAL_COUNTER
    return IdBehavior.RANDOM


@dataclass(slots=True)
class RateEstimate:
    """Traffic estimate for one visit window.

    ``ambiguity_risk`` marks estimates close to the single-wrap ceiling;
    ``lower_bound_only`` marks targets whose series shows the sampling was
    too slow, so values underestimate the real traffic.
    """

    target: str
    window_start_ns: int
    window_end_ns: int
    packets_per_second: float
    segments_used: int
    ambiguity_risk: bool = False
    lower_bound_only: bool = False

    def to_json(self, mtu_bytes: int) -> dict:
        """The estimates row; only a global counter is ever estimated."""
        return {
            "target": self.target,
            "window_start_ns": self.window_start_ns,
            "window_end_ns": self.window_end_ns,
            "pps": self.packets_per_second,
            "bps": self.packets_per_second * mtu_bytes * 8,
            "mtu_bytes": mtu_bytes,
            "flags": {
                "id_behavior": IdBehavior.GLOBAL_COUNTER.value,
                "segments_used": self.segments_used,
                "ambiguity_risk": self.ambiguity_risk,
                "lower_bound_only": self.lower_bound_only,
            },
        }


def estimate_replies(frame: VisitFrame, behavior: IdBehavior | None = None) -> RateEstimate:
    """Estimate a visit's mean packet rate from its answered probes.

    The window is the frame's ``start_ns``..``end_ns``, and the probe
    interval is the frame's (``VisitFrame.interval_ns``). The visit splits
    into segments at gaps longer than three intervals (beyond that,
    multi-wrap risk grows even for modest rates). Within a segment,
    wrap-corrected deltas between consecutive replies are summed; gaps
    spanning several intervals (probe loss) additionally resolve how many
    whole wraps they hide using the segment's single-interval rate. One
    reply packet per observed echo is our own traffic and is subtracted.

    ``behavior``, when given, stands in for ``classify_replies``. Raises
    ``NotACounter`` unless the target keeps a global counter and
    ``InsufficientSamples`` below two usable replies.
    """
    sent_ns, ids = frame.replies()
    if ids.size < 2:
        raise InsufficientSamples(f"need >= 2 replies to estimate, got {ids.size}")
    interval_s = frame.interval_ns / 1e9
    if behavior is None:
        behavior = classify_replies(sent_ns, ids)
    if behavior is not IdBehavior.GLOBAL_COUNTER:
        raise NotACounter(f"{frame.target} ID behavior is {behavior.value}")

    gaps_ns = np.diff(sent_ns)
    in_segment = gaps_ns <= GAP_SPLIT_FACTOR * (interval_s * 1e9)
    # each run of gaps within the split is one segment of two or more replies
    segments = int(np.count_nonzero(in_segment[:1])
                   + np.count_nonzero(in_segment[1:] > in_segment[:-1]))
    if not segments:
        raise InsufficientSamples("no segment with two consecutive replies")
    deltas = _id_deltas(ids)[in_segment]
    gaps = gaps_ns[in_segment] / 1e9

    single = gaps <= 1.5 * interval_s
    if single.any():
        rate_ref = np.median(deltas[single] / gaps[single])
        multi = ~single
        wraps = np.round((rate_ref * gaps[multi] - deltas[multi]) / ID_SPACE)
        deltas[multi] += np.maximum(wraps, 0).astype(np.int64) * ID_SPACE
    # left-to-right sums (np.sum is pairwise), as in a loop over the replies
    packets = float(np.cumsum(deltas.astype(np.float64))[-1])
    covered_s = float(np.cumsum(gaps)[-1])
    if covered_s <= 0:
        raise InsufficientSamples("zero covered time")
    packets = max(0.0, packets - deltas.size)

    pps = packets / covered_s
    typical_gap = float(np.median(gaps))
    risk = pps > RISK_BOUND_FACTOR * ambiguity_bound(typical_gap)
    return RateEstimate(
        target=frame.target,
        window_start_ns=frame.start_ns,
        window_end_ns=frame.end_ns,
        packets_per_second=pps,
        segments_used=segments,
        ambiguity_risk=risk,
    )


def daily_autocorrelation(estimates: Sequence[RateEstimate]) -> float | None:
    """Correlation of the rate series, in ``AUTOCORR_BIN_S`` bins, with
    itself one day later.

    Returns None when the series is too short (fewer than 12 aligned bin
    pairs) or has no variance, in which case no structure claim is made.
    """
    if not estimates:
        return None
    bin_ns = round(AUTOCORR_BIN_S * 1e9)
    lag_bins = round(DAY_S / AUTOCORR_BIN_S)
    bins: dict[int, list[float]] = {}
    for est in estimates:
        mid = (est.window_start_ns + est.window_end_ns) // 2
        bins.setdefault(mid // bin_ns, []).append(est.packets_per_second)
    means = {b: sum(v) / len(v) for b, v in bins.items()}
    aligned = [(value, means[b + lag_bins]) for b, value in means.items() if b + lag_bins in means]
    if len(aligned) < 12:
        return None
    x, y = (np.array(column) for column in zip(*aligned))
    if x.std() == 0 or y.std() == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def _flag_series(estimates: list[RateEstimate], interval_s: float) -> list[RateEstimate]:
    """One target's estimates (at least one) in window order, with
    under-sampling flagged.

    The target is reported as lower-bound-only when ambiguity risk recurs
    across its visits, or when its series oscillates at high values with
    no daily structure (day-lag autocorrelation below threshold while the
    mean exceeds half the single-wrap ceiling); all of its estimates then
    carry the flag.
    """
    estimates = sorted(estimates, key=lambda e: e.window_start_ns)
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


def series_estimates(frames: Iterable[VisitFrame]) -> list[RateEstimate]:
    """One estimate per valid visit, each target's series flagged by
    ``_flag_series`` at the interval of its first estimated frame, ordered
    by target and then window.

    Visits that are not estimable (``InsufficientSamples``,
    ``NotACounter``) are skipped. The frames are read once, in order, and
    may cover any number of targets.
    """
    per_target: dict[str, tuple[float, list[RateEstimate]]] = {}
    for frame in frames:
        try:
            est = estimate_replies(frame)
        except (InsufficientSamples, NotACounter) as exc:
            logger.debug("skipping visit of %s: %s", frame.target, exc)
            continue
        per_target.setdefault(frame.target, (frame.interval_ns / 1e9, []))[1].append(est)
    return [est for _, (interval_s, series) in sorted(per_target.items())
            for est in _flag_series(series, interval_s)]
