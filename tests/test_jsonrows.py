"""JSON-lines reading: ``read_jsonl`` against ``open()``, and the estimates
file read in parts against one ``from_rows`` pass."""

from __future__ import annotations

import json
import itertools
import locale
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetscope import jsonrows
from fleetscope.analytics import EstimateTable
from fleetscope.store import StoreError, read_jsonl

ENDS = ["\n", "\r\n", "\r"]
# a raw U+2028 is a line break to str.splitlines, but not to open()
TARGETS = ["10.0.0.1", "10.0.0.2", "10.0.0.3\u2028x", "10.0.0.4"]


def _reference_jsonl(path):
    """What ``read_jsonl`` yields: the JSON value of each line ``open()``
    yields that is not blank."""
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                raise StoreError(f"{path}: line {number}: not valid JSON") from None


def _outcome(read, path):
    try:
        return "ok", read(path)
    except Exception as exc:  # the outcomes must match, whatever they are
        return type(exc), str(exc)


@st.composite
def _jsonl_text(draw):
    """Lines of JSON values, blanks and damage, with mixed line ends."""
    line = st.one_of(
        st.builds(json.dumps, st.dictionaries(st.sampled_from(["a", "b ", "c"]),
                                              st.integers() | st.text(max_size=5)),
                  ensure_ascii=st.booleans()),
        st.sampled_from(["", "  ", "\t", "\x0c", " [1, 2]", "{} ", "\ufeff{}", "{\"a\": ",
                         "1 2", "garbage", " "]),
    )
    lines = draw(st.lists(st.tuples(line, st.sampled_from(ENDS)), max_size=12))
    text = "".join(body + end for body, end in lines)
    return text + draw(st.sampled_from(["", "{\"torn", "{}", "  "]))


@settings(max_examples=150, deadline=None)
@given(_jsonl_text(), st.sampled_from([1, 2, 7, 1 << 20]))
def test_read_jsonl_reads_the_lines_open_reads(text, block_bytes):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(jsonrows, "_BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(text.encode())
        assert _outcome(lambda p: list(read_jsonl(p)), path) == _outcome(
            lambda p: list(_reference_jsonl(p)), path)


def test_a_line_that_is_not_valid_text_is_named(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"a": "\xff"}\n{"a": 2}\n')
    encoding = locale.getpreferredencoding(False)  # what open() decodes with
    with pytest.raises(StoreError, match=re.escape(f"{path}: line 3: not valid {encoding} text")):
        list(read_jsonl(path))


def _row(draw) -> dict:
    rate = st.sampled_from([float("nan"), float("inf")]) if draw(st.integers(0, 20)) == 0 else (
        st.floats(0, 1e9) | st.integers(0, 10**6))
    start_ns = draw(st.integers(0, 2**40)) * 1000
    return {
        "bps": draw(rate),
        "flags": {"ambiguity_risk": False, "id_behavior": "global_counter",
                  "lower_bound_only": draw(st.booleans()), "segments_used": 1},
        "mtu_bytes": 1500,
        "pps": draw(rate),
        "target": draw(st.sampled_from(TARGETS)),
        "window_end_ns": start_ns + 60 * 10**9,
        "window_start_ns": start_ns,
    }


def _after_the_row(fill: str):
    """Damage that writes ``lower_bound_only`` as 1 or 0, and ``fill`` in
    the bytes this frees, after the row's closing brace."""
    return lambda line: re.sub(
        r'"lower_bound_only":(true|false)(.*\})',
        lambda m: f'"lower_bound_only":{int(m[1] == "true")}{m[2]}{fill * (len(m[1]) - 1)}',
        line, count=1)


# damage that keeps a line's length and, but for a split row, its line end,
# so part bounds stay put
DAMAGE = {
    "invalid_json": lambda line: "[" + line[1:],
    "missing_field": lambda line: line.replace('"target"', '"targex"', 1),
    "wrong_type": lambda line: re.sub(r'"lower_bound_only":(true|false)',
                                      lambda m: f'"lower_bound_only":"{"x" * (len(m[1]) - 2)}"',
                                      line, count=1),
    "not_text": lambda line: "\udcff" + line[1:],  # written as the byte 0xff
    # two lines that join with a comma into the row
    "split_row": lambda line: line.replace(",", "\n", 1),
    "two_rows": lambda line: re.sub(r'^(\s*)\{"bps":([^,]*),', r'\1{"b":\2},{', line),
    "text_after_the_row": _after_the_row("x"),
}
# lines other than compact ASCII ones ending in "\n", which parts read as
# the one pass does; a row makes room by losing a digit of mtu_bytes, which
# the report does not read, or by writing lower_bound_only as a number
NOT_PLAIN = {
    "crlf": lambda line: (line.replace('"mtu_bytes":1500', '"mtu_bytes":150', 1)[:-1] + "\r\n"
                          if '"mtu_bytes":1500' in line and line.endswith("\n") else line),
    "indented": lambda line: (" " + line.replace('"mtu_bytes":1500', '"mtu_bytes":150', 1)
                              if '"mtu_bytes":1500' in line else line),
    "non_ascii_target": lambda line: line.replace('"target":"10.', '"target":"\u00e9.', 1),
    "space_after_the_row": _after_the_row(" "),
}


@st.composite
def _estimate_files(draw):
    """(lines with their ends, parts, damage): estimate rows, either all
    plain or among blank and indented lines, non-ASCII targets and mixed
    line ends, and a last line that may be torn; damage is (bound, -1, 0 or
    1 lines from it, kind)."""
    lines = []
    plain = draw(st.booleans())
    for _ in range(draw(st.integers(0, 40))):
        body = json.dumps(_row(draw), ensure_ascii=plain, separators=(",", ":"))
        kind = "row" if plain else draw(st.sampled_from(["row", "row", "row", "indented",
                                                          "blank"]))
        if kind == "indented":
            body = "  " + body
        elif kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(body + ("\n" if plain else draw(st.sampled_from(["\n", "\n", "\r\n"]))))
    if lines and not draw(st.integers(0, 3)):  # the last line without its end, maybe torn
        last = lines[-1].rstrip("\r\n")
        lines[-1] = last[:len(last) if draw(st.booleans()) else draw(st.integers(0, len(last)))]
    damage = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1, 0, 1]),
                                     st.sampled_from(sorted({**DAMAGE, **NOT_PLAIN}))),
                           max_size=3))
    return lines, draw(st.integers(1, 4)), damage


def _columns(table: EstimateTable):
    return (table.targets, table.target.tolist(), table.mid_ns.tolist(), table.pps.tobytes(),
            table.bps.tobytes(), table.lower_bound.tolist())


@settings(max_examples=150, deadline=None)
@given(_estimate_files())
def test_a_file_read_in_parts_equals_one_pass_over_its_rows(case):
    lines, parts, damage = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "estimates.jsonl"
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        size = path.stat().st_size
        patch.setattr(jsonrows, "PART_BYTES", max(1, size // parts))
        patch.setattr(jsonrows, "_usable_cpus", lambda: 4)
        starts = list(itertools.accumulate((len(line.encode()) for line in lines), initial=0))
        bounds = jsonrows._part_bounds(path)
        for bound, offset, kind in damage:
            first = starts.index(bounds[bound % len(bounds)][0])  # the line at the bound
            at = min(max(first + offset, 0), len(lines) - 1)
            if lines and lines[at].strip():
                lines[at] = {**DAMAGE, **NOT_PLAIN}[kind](lines[at])
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        assert path.stat().st_size == size
        # a split row adds a line end, which may move a bound that is found by
        # reading on to the next one; every old bound is still a line start
        patch.setattr(jsonrows, "_part_bounds", lambda _: bounds)
        ours = _outcome(EstimateTable.read, path)
        reference = _outcome(lambda p: EstimateTable.from_rows(read_jsonl(p)), path)
        if ours[0] == "ok" and reference[0] == "ok":
            assert _columns(ours[1]) == _columns(reference[1])
        else:
            assert ours == reference


def _rows_in_three_parts(tmp_path, patch) -> tuple[Path, list[str], list[int]]:
    """A file of 30 rows in three parts, each naming the targets in another
    order; returns it, its lines and the index of each part's first line."""
    lines = []
    for i in range(30):
        start_ns = i * 1800 * 10**9
        lines.append(json.dumps({
            "bps": 12.0 * i, "flags": {"lower_bound_only": i % 4 == 0}, "pps": float(i),
            "target": TARGETS[i % 4 if i < 15 else -1 - i % 4],
            "window_end_ns": start_ns + 60 * 10**9, "window_start_ns": start_ns,
        }, separators=(",", ":")) + "\n")
    path = tmp_path / "estimates.jsonl"
    path.write_text("".join(lines))
    patch.setattr(jsonrows, "PART_BYTES", path.stat().st_size // 3)
    patch.setattr(jsonrows, "_usable_cpus", lambda: 3)
    starts = list(itertools.accumulate((len(line.encode()) for line in lines), initial=0))
    firsts = [starts.index(start) for start, _ in jsonrows._part_bounds(path)]
    assert len(firsts) == 3 and firsts[0] == 0 < firsts[1] < firsts[2]
    return path, lines, firsts


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_damage_next_to_a_part_bound_is_named_as_in_one_pass(tmp_path, monkeypatch, kind):
    path, lines, firsts = _rows_in_three_parts(tmp_path, monkeypatch)
    damaged_lines = [[first + offset] for first in firsts[1:] for offset in (-1, 0, 1)]
    # with an earlier line damaged another way, in part 0 or in the part before
    other = sorted(DAMAGE)[sorted(DAMAGE).index(kind) - 1]
    damaged_lines += [[firsts[0] // 2, firsts[1] + 1], [firsts[1] - 1, firsts[2]]]
    for damaged in damaged_lines:
        text = lines.copy()
        for number, at in enumerate(damaged):
            text[at] = DAMAGE[kind if number == len(damaged) - 1 else other](text[at])
        path.write_bytes("".join(text).encode("utf-8", "surrogateescape"))
        ours = _outcome(EstimateTable.read, path)
        assert ours[0] is not None and ours[0] != "ok", damaged
        assert ours == _outcome(lambda p: EstimateTable.from_rows(read_jsonl(p)), path), damaged
    path.write_text("".join(lines))
    assert _columns(EstimateTable.read(path)) == _columns(
        EstimateTable.from_rows(read_jsonl(path)))


def _two_part_file(tmp_path, patch, first_line="") -> Path:
    row = json.dumps({"bps": 12.0, "flags": {"lower_bound_only": False}, "pps": 1.0,
                      "target": "10.0.0.1", "window_end_ns": 2, "window_start_ns": 0})
    path = tmp_path / "estimates.jsonl"
    path.write_text(first_line + "".join(row + "\n" for _ in range(200)))
    patch.setattr(jsonrows, "PART_BYTES", path.stat().st_size // 2)
    patch.setattr(jsonrows, "_usable_cpus", lambda: 2)
    assert len(jsonrows._part_bounds(path)) == 2
    return path


def _whole_file_reads(patch) -> list:
    """Records each ``jsonrows.read_jsonl`` call of this process that reads
    a whole file: a call without a byte range."""
    reads, read = [], jsonrows.read_jsonl

    def recording(path, *span, **encoding):
        if not span:
            reads.append(path)
        return read(path, *span, **encoding)

    patch.setattr(jsonrows, "read_jsonl", recording)
    return reads


# a clean line in each part (or every line end) rewritten: parts read these
# as the one pass does
CLEAN = {
    "blank": lambda lines, at: lines[:at] + ["\n", " \t\n"] + lines[at:],
    "crlf": lambda lines, at: [line.rstrip("\r\n") + "\r\n" for line in lines],
    "indented": lambda lines, at: [*lines[:at], "  " + lines[at], *lines[at + 1:]],
    "non_ascii_target": lambda lines, at: [
        *lines[:at], lines[at].replace("10.0.0.1", "10.0.0.\u00e9"), *lines[at + 1:]],
}


@pytest.mark.parametrize("kind", ["unchanged", *sorted(CLEAN), "invalid_json", "missing_field",
                                  "not_text"])
def test_a_two_part_file_is_read_again_whole_only_if_damaged(tmp_path, monkeypatch, kind):
    path = _two_part_file(tmp_path, monkeypatch)
    lines = path.read_text().splitlines(keepends=True)
    if kind in CLEAN:
        for at in (150, 50):  # in the second part, then in the first
            lines = CLEAN[kind](lines, at)
    elif kind != "unchanged":
        lines[150] = DAMAGE[kind](lines[150])
    encoding = locale.getpreferredencoding(False)
    path.write_bytes("".join(lines).encode(encoding, "surrogateescape"))
    (_, stop), (start, _) = jsonrows._part_bounds(path)
    assert stop == start < len("".join(lines[:150]).encode(encoding))  # line 150 is in part 2
    reference = _outcome(lambda p: EstimateTable.from_rows(read_jsonl(p)), path)
    reads = _whole_file_reads(monkeypatch)
    ours = _outcome(EstimateTable.read, path)
    if kind in DAMAGE:
        assert reads == [path] and ours[0] != "ok" and ours == reference
    else:
        assert reads == [] and ours[0] == "ok" and _columns(ours[1]) == _columns(reference[1])
        assert len(ours[1]) == 200
    _assert_no_child_remains()


def test_a_worker_decodes_with_the_callers_encoding(tmp_path, monkeypatch):
    path = _two_part_file(tmp_path, monkeypatch)
    lines = path.read_text().splitlines(keepends=True)
    lines[150] = lines[150].replace("10.0.0.1", "10.0.0.\u00e9")  # the byte 0xe9, not UTF-8
    path.write_bytes("".join(lines).encode("latin-1"))
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "latin-1")
    reference = EstimateTable.from_rows(read_jsonl(path))
    reads = _whole_file_reads(monkeypatch)
    table = EstimateTable.read(path)
    assert reads == [] and table.targets == ("10.0.0.1", "10.0.0.\u00e9")
    assert _columns(table) == _columns(reference)
    _assert_no_child_remains()


def test_a_line_nested_too_deep_for_a_worker_fails_as_in_one_pass(tmp_path, monkeypatch):
    path = _two_part_file(tmp_path, monkeypatch)
    rows = path.read_text() * 40  # over half the file, so the deep line is all in part 2
    path.write_text(rows + "[" * 10**5 + "]" * 10**5 + "\n")
    monkeypatch.setattr(jsonrows, "PART_BYTES", path.stat().st_size // 2)
    (_, stop), (start, _) = jsonrows._part_bounds(path)
    assert stop == start < len(rows)
    with pytest.raises(RecursionError):
        list(read_jsonl(path))
    with pytest.raises(RecursionError):
        EstimateTable.read(path)
    _assert_no_child_remains()


def _assert_no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("interpreter", ["/bin/false", "/bin/echo"],
                         ids=["exits_non_zero", "prints_no_result"])
def test_a_worker_that_fails_is_a_store_error_naming_the_file(tmp_path, monkeypatch,
                                                               interpreter):
    path = _two_part_file(tmp_path, monkeypatch)
    monkeypatch.setattr(sys, "executable", interpreter)
    with pytest.raises(StoreError, match=re.escape(f"{path}: the worker that parses bytes")):
        EstimateTable.read(path)
    _assert_no_child_remains()


def test_a_read_in_parts_leaves_no_child_and_warns_nothing(tmp_path, monkeypatch):
    path = _two_part_file(tmp_path, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = EstimateTable.read(path)
    assert len(table) == 200 and table.targets == ("10.0.0.1",)
    _assert_no_child_remains()
    bad = _two_part_file(tmp_path, monkeypatch, first_line="not json\n")
    with pytest.raises(StoreError, match=re.escape(f"{bad}: line 1: not valid JSON")):
        EstimateTable.read(bad)  # part 0 fails while the worker still runs
    _assert_no_child_remains()
