"""Campaign store: versioned JSON-lines streams plus a manifest.

One directory per campaign. Each stream (records, samples, estimates,
verdicts) is a JSON-lines file with a single writer, written through
``JsonlWriter`` and read through ``read_jsonl`` like any other JSON-lines
file of the package. A stream holds one complete stage run or nothing. The
manifest tracks schema versions and stage completion markers so a finished
stage is never re-run.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path
from typing import Iterator

logger = logging.getLogger(__name__)

STREAM_VERSIONS = {
    "records": 1,
    "samples": 1,
    "estimates": 1,
    "verdicts": 1,
}

STAGE_ORDER = ("crawl", "validate", "probe", "estimate")

MANIFEST_NAME = "manifest.json"


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


class JsonlWriter:
    """Writes a JSON-lines file through ``<path>.partial``.

    Opening truncates a partial file an interrupted writer left behind;
    ``commit`` renames the partial file over ``path``. Every line is
    flushed as it is written.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.partial_path = self.path.with_name(self.path.name + ".partial")
        self._fh = open(self.partial_path, "w")

    def append(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()

    def commit(self) -> None:
        self._fh.close()
        self.partial_path.replace(self.path)

    def close(self) -> None:  # without committing: ``path`` keeps its old contents
        self._fh.close()


class CampaignStore:
    """Directory-backed store for one campaign."""

    def __init__(self, directory: str | Path, create: bool = True):
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise StoreError(f"no store at {self.directory}")
        self._manifest_path = self.directory / MANIFEST_NAME
        self._writers: dict[str, JsonlWriter] = {}
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
        return self.directory / f"{stream}.jsonl"

    def _open_writer(self, stream: str) -> JsonlWriter:
        path = self.stream_path(stream)
        manifest = self._manifest_for(stream)
        if stream not in manifest["streams"]:
            manifest["streams"][stream] = STREAM_VERSIONS[stream]
            self._write_manifest(manifest)
        return JsonlWriter(path)

    def append(self, stream: str, obj: dict) -> None:
        """Append one record to the stream's pending rows; ``commit`` publishes them."""
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

    def scan(self, stream: str) -> Iterator[dict]:
        """Yield the committed records in append order (see ``read_jsonl``)."""
        self._manifest_for(stream)
        path = self.stream_path(stream)
        if path.exists():
            yield from read_jsonl(path)

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
