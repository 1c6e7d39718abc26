"""Campaign store: versioned streams plus a manifest.

One directory per campaign. Records, estimates and verdicts are
JSON-lines files, written through ``JsonlWriter`` and read through
``read_jsonl`` (from ``jsonrows``) like any other JSON-lines file of the
package. Samples are one binary frame per visit in ``samples.bin``,
written through ``FrameWriter`` and read through ``read_frames``;
``CampaignStore.writer`` opens a stream's writer, which publishes the
stream whole when it commits, so a stream holds one complete stage run or
nothing. The manifest tracks schema versions and stage completion markers
so a finished stage is never re-run and stages complete in pipeline order.

A sample frame is little-endian: the header ``FRAME_MAGIC``, ``start_ns``
(i64), ``end_ns`` (i64; the last send plus the probe interval), the probe
count (u32) and the target's length (u8) followed by the target in ASCII;
then one array per column, each ``count`` long: ``sent_ns`` (i64),
``rtt_ns`` (u32, ``LOST_RTT`` for a lost probe) and ``ipid`` (u16, 0 for a
lost probe). A probe's sequence number is its index in the arrays. The
frames of one stream share one interval.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .jsonrows import StoreError, read_jsonl

STREAM_VERSIONS = {
    "records": 1,
    "samples": 2,
    "estimates": 1,
    "verdicts": 1,
}

STAGE_ORDER = ("crawl", "validate", "probe", "estimate")

MANIFEST_NAME = "manifest.json"

FRAME_MAGIC = b"FSV2"
LOST_RTT = 0xFFFF_FFFF
MAX_RTT_NS = LOST_RTT - 1
_FRAME_HEADER = struct.Struct("<4sqqIB")
_BYTES_PER_PROBE = 8 + 4 + 2
_SAMPLES_V1 = "samples stream is v1 (JSON lines); re-run the probe stage"


class SchemaMismatch(StoreError):
    """The store was written by a newer schema than this reader supports."""


class StageOrderError(StoreError):
    """Stages must complete in pipeline order."""


@dataclass(frozen=True, slots=True)
class VisitFrame:
    """One visit's samples as columns; index ``i`` is the probe with seq ``i``."""

    target: str
    start_ns: int
    end_ns: int
    sent_ns: np.ndarray  # int64
    rtt_ns: np.ndarray  # uint32, LOST_RTT where the probe was lost
    ipid: np.ndarray  # uint16

    @property
    def interval_ns(self) -> int:
        """The probe interval: ``end_ns`` is the last send plus one interval.
        A frame with no probes has none, and raises ``ValueError``."""
        if not len(self.sent_ns):
            raise ValueError(f"{self.target}: the frame has no probes, so no probe interval")
        return self.end_ns - int(self.sent_ns[-1])

    def replies(self) -> tuple[np.ndarray, np.ndarray]:
        """Send times and IDs (both int64) of the answered probes, in order."""
        answered = self.rtt_ns != LOST_RTT
        return self.sent_ns[answered], self.ipid[answered].astype(np.int64)


def encode_frame(frame: VisitFrame) -> bytes:
    """The bytes of ``frame`` in the samples file."""
    target = frame.target.encode("ascii")
    return b"".join((
        _FRAME_HEADER.pack(FRAME_MAGIC, frame.start_ns, frame.end_ns, len(frame.sent_ns),
                           len(target)),
        target,
        frame.sent_ns.astype("<i8").tobytes(),
        frame.rtt_ns.astype("<u4").tobytes(),
        frame.ipid.astype("<u2").tobytes(),
    ))


def read_frames(path: str | Path) -> Iterator[VisitFrame]:
    """Yield the frames of a samples file in order, one at a time.

    A frame file is only ever published whole, so a short read, a bad magic,
    a target that is not ASCII, send times that do not increase anywhere, an
    ``end_ns`` not after the last send or an interval other than the first
    frame's (a stream is one campaign) raise ``StoreError``.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        offset = 0
        first_interval_ns = None
        while header := fh.read(_FRAME_HEADER.size):
            if offset == 0 and header.startswith(b"{"):
                raise StoreError(f"{path.name}: {_SAMPLES_V1}")
            if len(header) < _FRAME_HEADER.size:
                raise StoreError(f"{path.name}: truncated frame at byte {offset}")
            if not header.startswith(FRAME_MAGIC):
                raise StoreError(f"{path.name}: bad magic in the frame at byte {offset}")
            _, start_ns, end_ns, count, target_len = _FRAME_HEADER.unpack(header)
            size = target_len + count * _BYTES_PER_PROBE
            body = fh.read(size)
            if len(body) < size:
                raise StoreError(f"{path.name}: truncated frame at byte {offset}")
            arrays = target_len + 8 * count
            sent_ns = np.frombuffer(body, "<i8", count, target_len)
            # the estimator divides by the gaps between sends
            if (np.diff(sent_ns) <= 0).any():
                raise StoreError(f"{path.name}: send times do not increase in the frame "
                                 f"at byte {offset}")
            if count:  # the estimator reads the probe interval from each frame
                interval_ns = end_ns - int(sent_ns[-1])
                if interval_ns <= 0:
                    raise StoreError(f"{path.name}: end_ns is not after the last send in the "
                                     f"frame at byte {offset}")
                first_interval_ns = first_interval_ns or interval_ns
                if interval_ns != first_interval_ns:
                    raise StoreError(f"{path.name}: the frame at byte {offset} has an interval of "
                                     f"{interval_ns} ns, the first frame {first_interval_ns} ns")
            try:
                target = body[:target_len].decode("ascii")
            except UnicodeDecodeError:
                raise StoreError(f"{path.name}: the target of the frame at byte {offset} "
                                 f"is not ASCII") from None
            yield VisitFrame(
                target, start_ns, end_ns, sent_ns,
                np.frombuffer(body, "<u4", count, arrays),
                np.frombuffer(body, "<u2", count, arrays + 4 * count),
            )
            offset += _FRAME_HEADER.size + size


class _PartialFile:
    """A file written through ``<path>.partial``.

    Opening truncates a partial file an interrupted writer left behind;
    ``commit`` renames the partial file over ``path``.
    """

    binary = False

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.partial_path = self.path.with_name(self.path.name + ".partial")
        self._fh = open(self.partial_path, "wb" if self.binary else "w")

    def commit(self) -> None:
        self._fh.close()
        self.partial_path.replace(self.path)

    def close(self) -> None:  # without committing: ``path`` keeps its old contents
        self._fh.close()


class JsonlWriter(_PartialFile):
    """Writes a JSON-lines file, one object per line."""

    def append(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


class FrameWriter(_PartialFile):
    """Writes a samples file, one frame per ``VisitFrame``."""

    binary = True

    def append(self, frame: VisitFrame) -> None:
        self._fh.write(encode_frame(frame))


def open_writer(stream: str, path: str | Path) -> JsonlWriter | FrameWriter:
    """The writer for ``stream``'s format, writing to ``path``."""
    return FrameWriter(path) if stream == "samples" else JsonlWriter(path)


def read_stream(stream: str, path: str | Path) -> Iterator:
    """``stream``'s items in the file at ``path``: frames for samples, else dicts."""
    return read_frames(path) if stream == "samples" else read_jsonl(path)


class CampaignStore:
    """Directory-backed store for one campaign."""

    def __init__(self, directory: str | Path, create: bool = True):
        self.directory = Path(directory)
        self._manifest_path = self.directory / MANIFEST_NAME
        if not create:
            if not self._manifest_path.is_file():
                raise StoreError(f"no store at {self.directory}")
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        if not self._manifest_path.exists():
            self._write_manifest({"manifest_version": 1, "streams": {}, "stages": {}})

    # -- manifest ---------------------------------------------------------

    def _read_manifest(self) -> dict:
        return json.loads(self._manifest_path.read_text())

    def _write_manifest(self, manifest: dict) -> None:
        tmp = self._manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        tmp.replace(self._manifest_path)

    def _manifest_for(self, stream: str) -> dict:
        """The manifest; raises ``SchemaMismatch`` if a newer schema wrote ``stream``."""
        manifest = self._read_manifest()
        recorded = manifest["streams"].get(stream)
        if recorded is not None and recorded > STREAM_VERSIONS[stream]:
            raise SchemaMismatch(
                f"{stream} is v{recorded}, this build supports v{STREAM_VERSIONS[stream]}"
            )
        return manifest

    def stage_done(self, stage: str) -> bool:
        return bool(self._read_manifest()["stages"].get(stage, {}).get("done"))

    def check_stage_order(self, stage: str) -> None:
        """Raise ``StageOrderError`` unless every earlier pipeline stage is done."""
        if stage not in STAGE_ORDER:
            raise ValueError(f"unknown stage {stage!r}")
        for earlier in STAGE_ORDER[: STAGE_ORDER.index(stage)]:
            if not self.stage_done(earlier):
                raise StageOrderError(f"stage {stage!r} before {earlier!r} completed")

    def mark_stage_done(self, stage: str) -> None:
        """Record stage completion; earlier pipeline stages must be done."""
        self.check_stage_order(stage)
        manifest = self._read_manifest()
        manifest["stages"][stage] = {"done": True}
        self._write_manifest(manifest)

    # -- streams ----------------------------------------------------------

    def stream_path(self, stream: str) -> Path:
        if stream not in STREAM_VERSIONS:
            raise ValueError(f"unknown stream {stream!r}")
        return self.directory / (f"{stream}.bin" if stream == "samples" else f"{stream}.jsonl")

    def writer(self, stream: str) -> JsonlWriter | FrameWriter:
        """A writer whose ``commit`` replaces ``stream`` with the rows appended
        to it; records the stream's schema version in the manifest.

        Raises ``SchemaMismatch`` if a newer schema wrote the stream. Opening
        the samples writer deletes a v1 ``samples.jsonl``, which this build
        cannot read and the new stream replaces.
        """
        path = self.stream_path(stream)
        manifest = self._manifest_for(stream)
        if manifest["streams"].get(stream) != STREAM_VERSIONS[stream]:
            manifest["streams"][stream] = STREAM_VERSIONS[stream]
            self._write_manifest(manifest)
        if stream == "samples":
            (self.directory / "samples.jsonl").unlink(missing_ok=True)
        return open_writer(stream, path)

    def committed(self, stream: str) -> Path | None:
        """The file of ``stream``'s committed items; None when there is none.

        Raises ``SchemaMismatch`` if a newer schema wrote the stream, and
        ``StoreError`` for a samples stream in the JSON-lines format of v1.
        """
        manifest = self._manifest_for(stream)
        if stream == "samples" and (manifest["streams"].get(stream) == 1
                                    or (self.directory / "samples.jsonl").exists()):
            raise StoreError(_SAMPLES_V1)
        path = self.stream_path(stream)
        return path if path.exists() else None

    def scan(self, stream: str) -> Iterator:
        """Yield the committed items in append order (see ``read_stream``,
        and ``committed`` for the errors)."""
        path = self.committed(stream)
        if path is not None:
            yield from read_stream(stream, path)
