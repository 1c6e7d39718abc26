"""Campaign store: versioned streams plus a manifest.

One directory per campaign. Each stream has a single writer. Records,
estimates and verdicts are JSON-lines files, written through
``JsonlWriter`` and read through ``read_jsonl`` like any other JSON-lines
file of the package. Samples are one binary frame per visit in
``samples.bin``, written through ``FrameWriter`` and read through
``read_frames``. A stream holds one complete stage run or nothing. The
manifest tracks schema versions and stage completion markers so a finished
stage is never re-run.

A sample frame is little-endian: the header ``FRAME_MAGIC``, ``start_ns``
(i64), ``end_ns`` (i64), the probe count (u32) and the target's length
(u8) followed by the target in ASCII; then one array per column, each
``count`` long: ``sent_ns`` (i64), ``rtt_ns`` (u32, ``LOST_RTT`` for a
lost probe) and ``ipid`` (u16, 0 for a lost probe). A probe's sequence
number is its index in the arrays.
"""

from __future__ import annotations

import json
import logging
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

logger = logging.getLogger(__name__)

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


class StoreError(Exception):
    """Corrupt store contents (not a trailing partial line)."""


class SchemaMismatch(StoreError):
    """The store was written by a newer schema than this reader supports."""


class StageOrderError(StoreError):
    """Stages must complete in pipeline order."""


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield the objects of a JSON-lines file in order; blank lines are skipped.

    A corrupt final line (in flight when a writer crashed) is dropped and
    logged; corruption elsewhere raises ``StoreError``.
    """
    path = Path(path)
    corrupt_line = None
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            if corrupt_line is not None:
                raise StoreError(f"{path.name}: corrupt line {corrupt_line}")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                corrupt_line = number
                continue
            yield obj
    if corrupt_line is not None:
        logger.warning("%s: dropping corrupt trailing line", path.name)


@dataclass(frozen=True, slots=True)
class VisitFrame:
    """One visit's samples as columns; index ``i`` is the probe with seq ``i``."""

    target: str
    start_ns: int
    end_ns: int
    sent_ns: np.ndarray  # int64
    rtt_ns: np.ndarray  # uint32, LOST_RTT where the probe was lost
    ipid: np.ndarray  # uint16

    def replies(self) -> tuple[np.ndarray, np.ndarray]:
        """Send times and IDs (both int64) of the answered probes, in order."""
        answered = self.rtt_ns != LOST_RTT
        return self.sent_ns[answered], self.ipid[answered].astype(np.int64)


def encode_frame(visit) -> bytes:
    """The frame of a ``probe.VisitLog``; its samples must be in seq order."""
    # A lost probe's rtt is -1, which the cast to u32 turns into LOST_RTT.
    rows = [(s.sent_ns, -1 if s.ipid is None else s.recv_ns - s.sent_ns, s.ipid or 0)
            for s in visit.samples]
    columns = np.array(rows, dtype=np.int64).reshape(-1, 3)
    rtt_ns = columns[:, 1]
    if rtt_ns.size and rtt_ns.max() > MAX_RTT_NS:
        raise ValueError(f"{visit.target}: a round-trip time exceeds {MAX_RTT_NS} ns")
    target = visit.target.encode("ascii")
    return b"".join((
        _FRAME_HEADER.pack(FRAME_MAGIC, visit.start_ns, visit.end_ns, len(columns), len(target)),
        target,
        columns[:, 0].astype("<i8").tobytes(),
        rtt_ns.astype("<u4").tobytes(),
        columns[:, 2].astype("<u2").tobytes(),
    ))


def read_frames(path: str | Path) -> Iterator[VisitFrame]:
    """Yield the frames of a samples file in order, one at a time.

    A frame file is only ever published whole, so a short read, a bad magic
    or send times that do not increase anywhere raise ``StoreError``.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        offset = 0
        while header := fh.read(_FRAME_HEADER.size):
            if not header.startswith(FRAME_MAGIC):
                if offset == 0 and header.startswith(b"{"):
                    raise StoreError(f"{path.name}: {_SAMPLES_V1}")
                raise StoreError(f"{path.name}: bad magic in the frame at byte {offset}")
            if len(header) < _FRAME_HEADER.size:
                raise StoreError(f"{path.name}: truncated frame at byte {offset}")
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
            yield VisitFrame(
                body[:target_len].decode("ascii"), start_ns, end_ns, sent_ns,
                np.frombuffer(body, "<u4", count, arrays),
                np.frombuffer(body, "<u2", count, arrays + 4 * count),
            )
            offset += _FRAME_HEADER.size + size


class _PartialFile:
    """A file written through ``<path>.partial``.

    Opening truncates a partial file an interrupted writer left behind;
    ``commit`` renames the partial file over ``path``. Every append is
    flushed as it is written.
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
        self._fh.flush()


class FrameWriter(_PartialFile):
    """Writes a samples file, one frame per ``probe.VisitLog``."""

    binary = True

    def append(self, visit) -> None:
        self._fh.write(encode_frame(visit))
        self._fh.flush()


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
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise StoreError(f"no store at {self.directory}")
        self._manifest_path = self.directory / MANIFEST_NAME
        self._writers: dict[str, JsonlWriter | FrameWriter] = {}
        self._lock = threading.Lock()
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

    def mark_stage_done(self, stage: str) -> None:
        """Record stage completion; earlier pipeline stages must be done."""
        if stage not in STAGE_ORDER:
            raise ValueError(f"unknown stage {stage!r}")
        manifest = self._read_manifest()
        for earlier in STAGE_ORDER[: STAGE_ORDER.index(stage)]:
            if not manifest["stages"].get(earlier, {}).get("done"):
                raise StageOrderError(f"stage {stage!r} before {earlier!r} completed")
        manifest["stages"][stage] = {"done": True}
        self._write_manifest(manifest)

    # -- streams ----------------------------------------------------------

    def stream_path(self, stream: str) -> Path:
        if stream not in STREAM_VERSIONS:
            raise ValueError(f"unknown stream {stream!r}")
        return self.directory / (f"{stream}.bin" if stream == "samples" else f"{stream}.jsonl")

    def _open_writer(self, stream: str) -> JsonlWriter | FrameWriter:
        path = self.stream_path(stream)
        manifest = self._manifest_for(stream)
        if manifest["streams"].get(stream) != STREAM_VERSIONS[stream]:
            manifest["streams"][stream] = STREAM_VERSIONS[stream]
            self._write_manifest(manifest)
        return open_writer(stream, path)

    def append(self, stream: str, obj) -> None:
        """Append one record (a ``probe.VisitLog`` for samples) to the stream's
        pending rows; ``commit`` publishes them."""
        with self._lock:
            writer = self._writers.get(stream)
            if writer is None:
                writer = self._writers[stream] = self._open_writer(stream)
            writer.append(obj)

    def commit(self, stream: str) -> None:
        """Replace the stream with the rows appended since its last commit."""
        with self._lock:
            writer = self._writers.pop(stream, None) or self._open_writer(stream)
            writer.commit()
            if stream == "samples":
                (self.directory / "samples.jsonl").unlink(missing_ok=True)

    def scan(self, stream: str) -> Iterator:
        """Yield the committed items in append order (see ``read_stream``).

        A samples stream in the JSON-lines format of v1 raises ``StoreError``.
        """
        manifest = self._manifest_for(stream)
        if stream == "samples" and (manifest["streams"].get(stream) == 1
                                    or (self.directory / "samples.jsonl").exists()):
            raise StoreError(_SAMPLES_V1)
        path = self.stream_path(stream)
        if path.exists():
            yield from read_stream(stream, path)

    def close(self) -> None:
        """Close open writers without committing them."""
        with self._lock:
            for writer in self._writers.values():
                writer.close()
            self._writers.clear()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
