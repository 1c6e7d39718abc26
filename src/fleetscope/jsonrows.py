"""JSON-lines files: ``read_jsonl``, and the estimates file read in parts.

``read_jsonl`` yields the objects of any JSON-lines file of the package.
``read_estimate_parts`` parses an estimates file into columns, in parts
that run at once: part 0 in the calling process, and each other part in a
worker, a bare interpreter running this file (``python -I -S jsonrows.py
PATH START STOP ENCODING``) that writes the part's columns to standard
output with ``marshal``. A bare interpreter rather than ``os.fork``: the
caller has imported numpy, whose BLAS starts threads, and forking a
process that has threads can deadlock the child. So this file imports the
standard library only.

``read_jsonl`` and every part read a file's lines as ``open(path)`` does
(the locale's encoding, universal newlines) and decode each line as
``json.loads`` does, in blocks, so a part accepts, rejects and returns
what ``read_jsonl`` would. Errors name the line or row counted from the
start of the file, whichever part holds it.
"""

from __future__ import annotations

import json
import locale
import marshal
import os
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping

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


class _BadLine(Exception):
    """``(number, reason)``: line ``number`` of a part (from 1) is not valid
    JSON or text."""


def _line_error(path: str | os.PathLike, number: int, reason: str) -> StoreError:
    return StoreError(f"{path}: line {number}: {reason}")


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


class _Values:
    """The JSON values of bytes ``start`` to ``stop`` of ``path``, one per
    line that is not blank; ``lines`` counts the lines read.

    Raises ``_BadLine`` for a line that is not valid JSON or not valid text.
    """

    def __init__(self, path: str | os.PathLike, start: int = 0, stop: int | None = None,
                 encoding: str | None = None):
        self.path, self.start, self.stop = path, start, stop
        # what open() decodes with; a worker is told the caller's
        self.encoding = encoding or locale.getpreferredencoding(False)
        self.lines = 0

    def __iter__(self) -> Iterator:
        number = 0
        for chunk in _chunks(self.path, self.start, self.stop):
            for line in chunk.splitlines():  # at \n, \r\n and \r, as open() splits
                number += 1
                try:
                    line = line.decode(self.encoding)
                except UnicodeDecodeError:
                    raise _BadLine(number, f"not valid {self.encoding} text") from None
                # json.loads(line), less its checks for a line that is one
                # JSON value with nothing around it
                try:
                    value, end = _scan_once(line, 0)
                except StopIteration:
                    end = -1
                except json.JSONDecodeError:
                    raise _BadLine(number, "not valid JSON") from None
                if end != len(line):
                    if not line.strip():
                        continue
                    try:
                        value = json.loads(line)
                    except json.JSONDecodeError:
                        raise _BadLine(number, "not valid JSON") from None
                yield value
        self.lines = number


def read_jsonl(path: str | os.PathLike) -> Iterator[dict]:
    """Yield the objects of a JSON-lines file in order; blank lines are skipped.

    A file is only ever published whole, so a line that is not JSON, the
    last one included, raises ``StoreError`` naming the file and line.
    """
    try:
        yield from _Values(path)
    except _BadLine as exc:
        raise _line_error(path, *exc.args) from None


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


def parse_part(path: str | os.PathLike, start: int, stop: int, encoding: str) -> tuple:
    """The estimates in bytes ``start`` to ``stop`` of ``path``.

    Returns ``(lines, error, columns)``: the number of lines, and either
    ``None`` and the part's ``estimate_columns``, or the part's first error
    as ``("line" or "row", number counted from the part's start, reason)``
    and ``None``.
    """
    values = _Values(path, start, stop, encoding)
    try:
        columns = estimate_columns(values)
    except _BadLine as exc:
        return 0, ("line", *exc.args), None
    except BadEstimate as exc:
        return 0, ("row", exc.row, exc.reason), None
    return values.lines, None, columns


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
    ``path``, in file order; target indices count within a part.

    Raises ``StoreError`` for the first line that is not valid JSON or
    text, and ``BadEstimate`` for the first row ``estimate_columns``
    refuses, whichever comes first in the file; line and row numbers count
    from the start of the file. A worker that fails raises ``StoreError``.
    Workers are killed and waited for on every path.
    """
    bounds = _part_bounds(path)
    encoding = locale.getpreferredencoding(False)
    workers = []
    try:
        if len(bounds) > 1:
            import subprocess  # here, not above: a worker runs this file and needs none of it

            for start, stop in bounds[1:]:
                workers.append(subprocess.Popen(
                    [sys.executable, "-I", "-S", __file__, str(path), str(start), str(stop),
                     encoding],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE))
        parts = []
        lines_before = rows_before = 0
        for (start, stop), worker in zip(bounds, [None, *workers]):
            lines, error, columns = (parse_part(path, start, stop, encoding) if worker is None
                                     else _result(worker, path, start, stop))
            if error is not None:
                kind, number, reason = error
                if kind == "line":
                    raise _line_error(path, lines_before + number, reason)
                raise BadEstimate(rows_before + number, reason)
            parts.append(columns)
            lines_before += lines
            rows_before += len(columns[-1])
        return parts
    finally:
        for worker in workers:
            worker.kill()
            worker.stdout.close()
            worker.wait()


def _result(worker, path: str | os.PathLike, start: int, stop: int) -> tuple:
    """What ``worker`` printed: the ``parse_part`` of bytes ``start`` to ``stop``."""
    try:
        lines, error, columns = marshal.load(worker.stdout)
    except (EOFError, ValueError, TypeError):
        lines = None
    if worker.wait() or lines is None:
        raise StoreError(f"{path}: the worker that parses bytes {start}..{stop} failed "
                         f"(exit status {worker.returncode})")
    return lines, error, columns


if __name__ == "__main__":
    _path, _start, _stop, _encoding = sys.argv[1:]
    marshal.dump(parse_part(_path, int(_start), int(_stop), _encoding), sys.stdout.buffer)
