"""JSON-lines files: ``read_jsonl``, and the estimates file read in parts.

``read_jsonl`` yields the objects of any JSON-lines file of the package.
``read_estimate_parts`` parses an estimates file into columns, in parts
that run at once: part 0 in the calling process, and each other part in a
worker, a bare interpreter running this file (``python -I -S jsonrows.py
PATH START STOP``) that writes the part's columns to standard output with
``marshal``. A bare interpreter rather than ``os.fork``: the caller has
imported numpy, whose BLAS starts threads, and forking a process that has
threads can deadlock the child. So this file imports the standard library
only.

A part reads plain lines only (``parse_part``): being ASCII, they decode
alike in every locale, and no part counts lines or rows. A file with any
other line, or a row the report cannot use, is read again in one pass,
``estimate_columns(read_jsonl(path))``, which reads it as ``open()`` does
or raises the error that names the line or row.
"""

from __future__ import annotations

import json
import locale
import marshal
import os
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping
from itertools import repeat

# The smallest part. On 2 vCPUs with Python 3.11.7 a worker takes ~30 ms to
# start and a part parses at ~53 MB/s, so an 8 MiB part (~33,000 estimates)
# takes ~0.16 s, of which the start is under a fifth. A file under 16 MiB,
# such as a one-hour sweep's 2 MB, is one part and starts no process.
PART_BYTES = 8 << 20
# a part is read in blocks, never whole; lines split ~1.4x as fast from
# 64 KiB blocks as from 1 MiB ones, which overflow the CPU's cache
_BLOCK_BYTES = 1 << 16

_scan_once = json.JSONDecoder().scan_once


class StoreError(Exception):
    """Corrupt store contents."""


class BadEstimate(ValueError):
    """An estimate row the report cannot use; ``row`` counts the rows from 1."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"estimate {row}: {reason}")
        self.row = row
        self.reason = reason


def _chunks(path: str | os.PathLike, start: int, stop: int | None) -> Iterator[bytes]:
    """Bytes ``start`` to ``stop`` (the end of the file if None) of ``path``,
    which start at the start of a line, in chunks of whole lines; the last
    chunk may lack its line end.

    A chunk ends after a ``\\n`` byte, which ends a line in the
    ASCII-compatible encodings ``open`` uses, so no line end is split.
    """
    left = float("inf") if stop is None else stop - start
    rest = b""
    with open(path, "rb") as fh:
        fh.seek(start)
        while left > 0 and (block := fh.read(min(_BLOCK_BYTES, left))):
            left -= len(block)
            cut = block.rfind(b"\n") + 1
            if cut:
                yield rest + block[:cut]
                rest = block[cut:]
            else:
                rest += block
    if rest:
        yield rest


def read_jsonl(path: str | os.PathLike) -> Iterator[dict]:
    """Yield the objects of a JSON-lines file in order; blank lines are skipped.

    Lines are read as ``open(path)`` reads them (the locale's encoding,
    universal newlines) and decoded as ``json.loads`` decodes them. A file
    is only ever published whole, so a line that is not JSON or not valid
    text, the last one included, raises ``StoreError`` naming the file and
    line.
    """
    encoding = locale.getpreferredencoding(False)  # what open() decodes with
    number = 0
    for chunk in _chunks(path, 0, None):
        for line in chunk.splitlines():  # at \n, \r\n and \r, as open() splits
            number += 1
            try:
                line = line.decode(encoding)
            except UnicodeDecodeError:
                raise StoreError(f"{path}: line {number}: not valid {encoding} text") from None
            # json.loads(line), less its checks for a line that is one JSON
            # value with nothing around it
            try:
                value, end = _scan_once(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                if not line.strip():
                    continue
                try:
                    value = json.loads(line)
                except json.JSONDecodeError:
                    raise StoreError(f"{path}: line {number}: not valid JSON") from None
            yield value


def estimate_columns(rows: Iterable[Mapping]) -> tuple:
    """Estimate rows in the ``estimates.jsonl`` format as columns.

    Returns ``(targets, target, mid_ns, pps, bps, lower_bound)``: the
    target names in order of first appearance, then one ``array`` per
    field, entry ``i`` of each from row ``i``: the index of the row's
    target in ``targets``, its window midpoint, rates, and
    ``flags.lower_bound_only``. Raises ``BadEstimate`` for a row without
    one of these fields or with a value of the wrong type.
    """
    index: dict[str, int] = {}
    target, mid_ns, pps, bps = array("i"), array("q"), array("d"), array("d")
    lower_bound = array("b")
    for number, row in enumerate(rows, 1):
        try:
            mid_ns.append((row["window_start_ns"] + row["window_end_ns"]) // 2)
            pps.append(row["pps"])
            bps.append(row["bps"])
            lower_bound.append(row["flags"]["lower_bound_only"])
            target.append(index.setdefault(row["target"], len(index)))
        except KeyError as exc:
            raise BadEstimate(number, f"no field {exc.args[0]!r}") from None
        except (TypeError, OverflowError) as exc:
            raise BadEstimate(number, f"bad value ({exc})") from None
    return list(index), target, mid_ns, pps, bps, lower_bound


def _plain_values(path: str | os.PathLike, start: int, stop: int) -> Iterator:
    """The JSON value of each line in bytes ``start`` to ``stop`` of
    ``path``; ``ValueError`` for a line that is not plain."""
    for chunk in _chunks(path, start, stop):
        lines = chunk.decode("ascii").split("\n")
        if not lines[-1]:  # after the last line end
            lines.pop()
        # a line with no JSON value stops the map short, which zip raises for
        for line, (value, end) in zip(lines, map(_scan_once, lines, repeat(0)), strict=True):
            if end != len(line):
                raise ValueError("a line holds more than its JSON value")
            yield value


def parse_part(path: str | os.PathLike, start: int, stop: int) -> tuple | None:
    """The ``estimate_columns`` of bytes ``start`` to ``stop`` of ``path``,
    or None unless each of their lines is plain (ASCII, one JSON value with
    nothing around it, a ``\\n`` at its end except at the end of the file)
    and each row one ``estimate_columns`` takes."""
    try:
        return estimate_columns(_plain_values(path, start, stop))
    except (ValueError, RecursionError):  # a one-pass read names what it is
        return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _part_bounds(path: str | os.PathLike) -> list[tuple[int, int]]:
    """One byte range per part: as many as there are usable CPUs, each at
    least ``PART_BYTES`` long, each starting at the start of a line."""
    size = os.path.getsize(path)
    parts = max(1, min(_usable_cpus(), size // PART_BYTES))
    cuts = [0]
    with open(path, "rb") as fh:
        for part in range(1, parts):
            fh.seek(part * size // parts - 1)
            fh.readline()
            cuts.append(fh.tell())
    cuts.append(size)
    return [(start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop or not start]


def read_estimate_parts(path: str | os.PathLike) -> list[tuple]:
    """The ``estimate_columns`` of each part of the estimates file at
    ``path``, in file order (target indices count within a part), or of
    one pass if a part is not plain. A worker that fails raises
    ``StoreError``; workers are killed and waited for on every path."""
    bounds = _part_bounds(path)
    workers = []
    try:
        if len(bounds) > 1:
            import subprocess  # here, not above: a worker runs this file and needs none of it

            for start, stop in bounds[1:]:
                workers.append(subprocess.Popen(
                    [sys.executable, "-I", "-S", __file__, str(path), str(start), str(stop)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE))
        parts = []
        for (start, stop), worker in zip(bounds, [None, *workers]):
            columns = (parse_part(path, start, stop) if worker is None
                       else _result(worker, path, start, stop))
            if columns is None:
                break
            parts.append(columns)
        else:
            return parts
    finally:
        for worker in workers:
            worker.kill()
            worker.stdout.close()
            worker.wait()
    return [estimate_columns(read_jsonl(path))]


def _result(worker, path: str | os.PathLike, start: int, stop: int) -> tuple | None:
    """What ``worker`` printed: the ``parse_part`` of bytes ``start`` to ``stop``."""
    try:
        columns = marshal.load(worker.stdout)
        if not worker.wait():
            return columns
    except (EOFError, ValueError, TypeError):
        worker.wait()
    raise StoreError(f"{path}: the worker that parses bytes {start}..{stop} failed "
                     f"(exit status {worker.returncode})")


if __name__ == "__main__":
    _path, _start, _stop = sys.argv[1:]
    marshal.dump(parse_part(_path, int(_start), int(_stop)), sys.stdout.buffer)
