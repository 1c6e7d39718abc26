"""Traffic-rate estimation from 16-bit IP identification samples.

A host with a global ID counter increments it once per packet sent, so the
wrap-corrected difference between two sampled IDs counts the packets sent
in between. The counter wraps every 65536 packets; a pacing interval short
enough to see at most one wrap per gap keeps the count unambiguous, which
caps the measurable rate at ``ambiguity_bound(interval)``. Faster targets
alias: their estimates are kept but flagged as lower bounds only.

``estimate_batch`` classifies and estimates a batch of visits in one numpy
pass: the batch's answered probes become zero-padded 2-D arrays, one row
per visit, and it returns one column per result. Every per-visit sum runs
left to right along its row, and a padded cell adds an exact 0.0, so a row
gets the bits a loop over its replies would. ``estimate_series`` cuts a
stream of frames into batches of at most ``BATCH_CELLS`` padded cells
(frames times the longest frame's probes) and returns ``SeriesEstimates``:
columns, not an object per visit, whose ``rows`` are the estimates file's.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .store import LOST_RTT, VisitFrame

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
# A batch's arrays peak near 100 bytes per padded cell (tracemalloc), so a
# batch costs ~0.4 MB: a 2,000-probe campaign's peak RSS stays where one
# visit at a time left it, while a 25-probe sweep estimates 163 visits a call.
BATCH_CELLS = 4096


class IdBehavior(enum.Enum):
    GLOBAL_COUNTER = "global_counter"
    RANDOM = "random"
    CONSTANT_OR_PERFLOW = "constant_or_perflow"


# ``BatchEstimates.behavior`` holds an index into BEHAVIORS, or UNCLASSIFIED
BEHAVIORS = tuple(IdBehavior)
UNCLASSIFIED = -1
_COUNTER = BEHAVIORS.index(IdBehavior.GLOBAL_COUNTER)
_RANDOM = BEHAVIORS.index(IdBehavior.RANDOM)
_CONSTANT = BEHAVIORS.index(IdBehavior.CONSTANT_OR_PERFLOW)


def _id_deltas(ids: np.ndarray) -> np.ndarray:
    """Packets sent between consecutive ID readings along the last axis (an
    int64 array), assuming at most one wrap between them."""
    return np.diff(ids) & MAX_ID  # ``% ID_SPACE`` in two's complement, without a division


def ambiguity_bound(interval_s: float) -> float:
    """Maximum unambiguously measurable packet rate for a sampling interval."""
    if interval_s <= 0:
        raise ValueError("interval must be > 0")
    return MAX_ID / interval_s


@dataclass(frozen=True, slots=True)
class BatchEstimates:
    """``estimate_batch``'s per-visit columns; row ``i`` is frame ``i``.

    ``behavior`` is the index in ``BEHAVIORS`` of how the visit's replies
    populate the ID field, or ``UNCLASSIFIED`` below
    ``MIN_BEHAVIOR_SAMPLES`` replies. The estimate columns read every visit
    as a global counter, whatever its ``behavior``; ``estimable`` is False
    where no segment holds two replies, and ``pps``, ``segments`` and
    ``risk`` read 0 there.
    """

    behavior: np.ndarray  # int8
    estimable: np.ndarray  # bool
    pps: np.ndarray  # float64
    segments: np.ndarray  # int64
    risk: np.ndarray  # bool


def _row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's left-to-right sum of its ``mask``ed values, as in a loop
    over the replies (np.sum is pairwise); adding the 0.0 of a masked cell
    is exact."""
    return np.cumsum(np.where(mask, values, 0.0), axis=1)[:, -1]


def _row_medians(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's ``np.median`` of its ``mask``ed values: the middle one, or
    the mean of the middle two; inf in a row with none."""
    count = np.count_nonzero(mask, axis=1)
    ordered = np.sort(np.where(mask, values, np.inf), axis=1)
    rows = np.arange(len(ordered))
    upper = ordered[rows, count // 2]
    lower = ordered[rows, (count - 1) // 2]
    return np.where(count % 2 == 1, upper, (lower + upper) / 2)


def _clustered(deltas: np.ndarray, gaps_ns: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Whether each row's per-gap increments at its shortest gaps (within
    1.5 times the shortest) cluster on the 16-bit circle: at least ten of
    them, with a mean resultant length of ``CLUSTER_CONCENTRATION`` or more."""
    base_gap = np.where(pair, gaps_ns, np.iinfo(np.int64).max).min(axis=1)
    base = pair & (gaps_ns <= 1.5 * base_gap[:, None])
    size = np.count_nonzero(base, axis=1)
    angles = 2 * math.pi * deltas / ID_SPACE
    x = _row_sums(np.cos(angles), base) / size
    y = _row_sums(np.sin(angles), base) / size
    # math.hypot per row: np.hypot need not round alike
    resultant = np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
    return (size >= 10) & (resultant >= CLUSTER_CONCENTRATION)


def estimate_batch(frames: Sequence[VisitFrame]) -> BatchEstimates:
    """Classify and estimate the visits of ``frames`` (at least one) in one
    pass over zero-padded arrays, one row of answered probes per visit.

    Classification: all-zero deltas between consecutive IDs mean a constant
    or per-flow ID. Counters show a high fraction of small positive modular
    deltas or, when faster, tightly clustered ones (``_clustered``, run only
    on the rows the first rule leaves undecided). Everything else is random.

    Estimation: the window is the frame's ``start_ns``..``end_ns``, and the
    probe interval is the frame's (``VisitFrame.interval_ns``). The visit
    splits into segments at gaps longer than three intervals (beyond that,
    multi-wrap risk grows even for modest rates). Within a segment,
    wrap-corrected deltas between consecutive replies are summed; gaps
    spanning several intervals (probe loss) additionally resolve how many
    whole wraps they hide using the visit's median single-interval rate.
    One reply packet per observed echo is our own traffic and is
    subtracted. ``risk`` marks rates above ``RISK_BOUND_FACTOR`` of the
    single-wrap ceiling at the visit's median gap.
    """
    rows = len(frames)
    ends = np.cumsum([frame.sent_ns.size for frame in frames])
    sent_ns = np.concatenate([frame.sent_ns for frame in frames])
    answered = np.concatenate([frame.rtt_ns for frame in frames]) != LOST_RTT
    answered_before = np.concatenate(([0], np.cumsum(answered)))
    replies = answered_before[ends] - answered_before[np.concatenate(([0], ends[:-1]))]
    live = np.arange(max(int(replies.max()), 2)) < replies[:, None]
    sent = np.zeros(live.shape, np.int64)
    sent[live] = sent_ns[answered]
    ids = np.zeros(live.shape, np.int64)
    ids[live] = np.concatenate([frame.ipid for frame in frames])[answered]
    # each frame's last send; a frame without probes reads its predecessor's
    last_ns = np.concatenate(([0], sent_ns))[ends]
    interval_s = (np.array([frame.end_ns for frame in frames]) - last_ns) / 1e9

    pair = live[:, 1:]
    gaps_ns = np.where(pair, np.diff(sent), 0)
    deltas = np.where(pair, _id_deltas(ids), 0)

    classified = replies >= MIN_BEHAVIOR_SAMPLES
    moving = classified & deltas.any(axis=1)
    small = np.count_nonzero((deltas > 0) & (deltas < SMALL_DELTA), axis=1)
    counter = moving & (small / np.maximum(replies - 1, 1) >= COUNTER_FRACTION)
    undecided = np.flatnonzero(moving & ~counter)
    if undecided.size:
        counter[undecided] = _clustered(deltas[undecided], gaps_ns[undecided], pair[undecided])
    behavior = np.where(classified, _RANDOM, UNCLASSIFIED).astype(np.int8)
    behavior[classified & ~moving] = _CONSTANT
    behavior[counter] = _COUNTER

    in_segment = pair & (gaps_ns <= (GAP_SPLIT_FACTOR * (interval_s * 1e9))[:, None])
    # each run of gaps within the split is one segment of two or more replies
    segments = in_segment[:, 0] + np.count_nonzero(in_segment[:, 1:] > in_segment[:, :-1], axis=1)
    gaps = gaps_ns / 1e9
    single = in_segment & (gaps <= 1.5 * interval_s[:, None])
    has_single = single.any(axis=1)
    multi = in_segment & ~single & has_single[:, None]
    if multi.any():  # a gap of several intervals: a lost probe or a late send
        rates = np.divide(deltas, gaps, out=np.zeros(gaps.shape), where=single)
        lossy = multi.any(axis=1)  # only these rows read their median single-interval rate
        rate_ref = np.zeros(rows)
        rate_ref[lossy] = _row_medians(rates[lossy], single[lossy])
        wraps = np.round((rate_ref[:, None] * gaps - deltas) / ID_SPACE)
        deltas += np.where(multi, np.maximum(wraps, 0).astype(np.int64) * ID_SPACE, 0)
    covered_s = _row_sums(gaps, in_segment)
    estimable = (segments > 0) & (covered_s > 0)
    own_replies = np.count_nonzero(in_segment, axis=1)
    packets = np.maximum(_row_sums(deltas, in_segment) - own_replies, 0.0)
    pps = np.divide(packets, covered_s, out=np.zeros(rows), where=estimable)
    ceiling = np.divide(MAX_ID, _row_medians(gaps, in_segment), out=np.zeros(rows),
                        where=estimable)
    return BatchEstimates(
        behavior=behavior,
        estimable=estimable,
        pps=pps,
        segments=np.where(estimable, segments, 0),
        risk=estimable & (pps > RISK_BOUND_FACTOR * ceiling),
    )


def _batches(frames: Iterable[VisitFrame]) -> Iterator[list[VisitFrame]]:
    """``frames`` in order, in runs of at most ``BATCH_CELLS`` padded cells:
    a run's length times its longest frame's probes, at least one. A frame
    longer than the budget is a run of its own."""
    batch: list[VisitFrame] = []
    width = 1
    for frame in frames:
        width = max(width, frame.sent_ns.size)
        if batch and (len(batch) + 1) * width > BATCH_CELLS:
            yield batch
            batch, width = [], max(1, frame.sent_ns.size)
        batch.append(frame)
    if batch:
        yield batch


@dataclass(frozen=True, slots=True)
class SeriesEstimates:
    """``estimate_series``' columns; row ``i`` is one counter visit, in
    (target name, window start) order, and ``target`` indexes ``targets``.
    ``lower_bound`` marks every row of a target whose sampling was too slow,
    so its values underestimate the real traffic."""

    targets: tuple[str, ...]  # in name order
    target: np.ndarray  # intp
    window_start_ns: np.ndarray  # int64
    window_end_ns: np.ndarray  # int64
    pps: np.ndarray  # float64
    segments: np.ndarray  # int64
    risk: np.ndarray  # bool
    lower_bound: np.ndarray  # bool

    def rows(self, mtu_bytes: int) -> Iterator[dict]:
        """The rows of ``estimates.jsonl``, in bits at ``mtu_bytes``, made
        ``BATCH_CELLS`` at a time; only a global counter is ever estimated."""
        columns = (self.target, self.window_start_ns, self.window_end_ns, self.pps,
                   self.segments, self.risk, self.lower_bound)
        for begin in range(0, len(self.pps), BATCH_CELLS):
            for target, start_ns, end_ns, pps, segments, risk, lower_bound in zip(
                    *(column[begin:begin + BATCH_CELLS].tolist() for column in columns)):
                yield {
                    "target": self.targets[target],
                    "window_start_ns": start_ns,
                    "window_end_ns": end_ns,
                    "pps": pps,
                    "bps": pps * mtu_bytes * 8,
                    "mtu_bytes": mtu_bytes,
                    "flags": {
                        "id_behavior": IdBehavior.GLOBAL_COUNTER.value,
                        "segments_used": segments,
                        "ambiguity_risk": risk,
                        "lower_bound_only": lower_bound,
                    },
                }


def daily_autocorrelation(mid_ns: np.ndarray, pps: np.ndarray) -> float | None:
    """Correlation of one target's rate series (its windows' int64 midpoints
    and their rates), in ``AUTOCORR_BIN_S`` bins, with itself one day later.

    Returns None when the series is too short (fewer than 12 aligned bin
    pairs) or has no variance, in which case no structure claim is made.
    """
    lag_bins = round(DAY_S / AUTOCORR_BIN_S)
    bins, where = np.unique(mid_ns // round(AUTOCORR_BIN_S * 1e9), return_inverse=True)
    means = np.bincount(where, pps) / np.bincount(where)
    aligned = np.isin(bins + lag_bins, bins)
    if np.count_nonzero(aligned) < 12:
        return None
    x, y = means[aligned], means[np.searchsorted(bins, bins[aligned] + lag_bins)]
    if x.std() == 0 or y.std() == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def estimate_series(frames: Iterable[VisitFrame]) -> SeriesEstimates:
    """One estimate per counter visit of ``frames``, read once and in
    ``estimate_batch`` calls of at most ``BATCH_CELLS`` padded cells; the
    visits that are not a global counter's or not estimable are skipped.
    A target's rows are all flagged ``lower_bound`` when ambiguity risk
    recurs across its visits, or when its series oscillates at high values
    with no daily structure: day-lag autocorrelation below threshold while
    the mean exceeds half the single-wrap ceiling at the interval of the
    target's first estimated frame."""
    index: dict[str, int] = {}  # each target's position in order of first estimate
    interval_ns: dict[str, int] = {}  # the interval of each target's first estimated frame
    target, start_ns, end_ns = array("q"), array("q"), array("q")
    pps, segments, risk = array("d"), array("q"), array("b")
    for batch in _batches(frames):
        columns = estimate_batch(batch)
        kept = np.flatnonzero((columns.behavior == _COUNTER) & columns.estimable)
        for i in kept.tolist():
            frame = batch[i]
            target.append(index.setdefault(frame.target, len(index)))
            interval_ns.setdefault(frame.target, frame.interval_ns)
            start_ns.append(frame.start_ns)
            end_ns.append(frame.end_ns)
        pps.frombytes(columns.pps[kept].tobytes())
        segments.frombytes(columns.segments[kept].tobytes())
        risk.frombytes(columns.risk[kept].tobytes())

    names, rank = np.unique(list(index), return_inverse=True)
    target_col = rank[np.frombuffer(target, np.int64)]
    order = np.lexsort((np.frombuffer(start_ns, np.int64), target_col))  # stable
    target_col = target_col[order]
    start_col = np.frombuffer(start_ns, np.int64)[order]
    end_col = np.frombuffer(end_ns, np.int64)[order]
    pps_col = np.frombuffer(pps, np.float64)[order]
    risk_col = np.frombuffer(risk, np.int8)[order] != 0

    # a group-by over each target's run of rows
    counts = np.bincount(target_col, minlength=len(names))
    firsts = np.cumsum(counts) - counts
    bound = np.array([ambiguity_bound(interval_ns[name] / 1e9) for name in names.tolist()])
    flagged = np.bincount(target_col, risk_col, len(names)) / counts >= ALIAS_RISK_VISIT_FRACTION
    high = np.bincount(target_col, pps_col, len(names)) / counts > ALIAS_MEAN_BOUND_FACTOR * bound
    mid_col = start_col + (end_col - start_col) // 2
    for t in np.flatnonzero(high & ~flagged).tolist():
        run = slice(firsts[t], firsts[t] + counts[t])
        autocorr = daily_autocorrelation(mid_col[run], pps_col[run])
        flagged[t] = autocorr is not None and autocorr < ALIAS_AUTOCORR_THRESHOLD
    return SeriesEstimates(tuple(names.tolist()), target_col, start_col, end_col, pps_col,
                           np.frombuffer(segments, np.int64)[order], risk_col, flagged[target_col])
