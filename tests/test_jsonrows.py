"""JSON-lines reading: ``read_jsonl`` against ``open()``, and the estimates
file read in parts against one ``from_rows`` pass."""

from __future__ import annotations

import json
import itertools
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
    encoding = jsonrows._Values(path).encoding
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


# damage that keeps a line's length and its line end, so part bounds stay put
DAMAGE = {
    "invalid_json": lambda line: "[" + line[1:],
    "missing_field": lambda line: line.replace('"target"', '"targex"', 1),
    "wrong_type": lambda line: re.sub(r'"lower_bound_only":(true|false)',
                                      lambda m: f'"lower_bound_only":"{"x" * (len(m[1]) - 2)}"',
                                      line, count=1),
    "not_text": lambda line: "\udcff" + line[1:],  # written as the byte 0xff
}


@st.composite
def _estimate_files(draw):
    """(lines with their ends, parts, damage): estimate rows, blank and
    indented lines, mixed line ends and a last line that may be torn;
    damage is (bound, -1, 0 or 1 lines from it, kind)."""
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        body = json.dumps(_row(draw), ensure_ascii=False, separators=(",", ":"))
        kind = draw(st.sampled_from(["row", "row", "row", "indented", "blank"]))
        if kind == "indented":
            body = "  " + body
        elif kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(body + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    if lines and not draw(st.integers(0, 3)):  # the last line without its end, maybe torn
        last = lines[-1].rstrip("\r\n")
        lines[-1] = last[:len(last) if draw(st.booleans()) else draw(st.integers(0, len(last)))]
    damage = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1, 0, 1]),
                                     st.sampled_from(sorted(DAMAGE))), max_size=3)
                  if draw(st.booleans()) else st.just([]))
    return lines, draw(st.integers(1, 4)), damage


def _columns(table: EstimateTable):
    return (table.targets, table.target.tolist(), table.mid_ns.tolist(), table.pps.tobytes(),
            table.bps.tobytes(), table.lower_bound.tolist())


@settings(max_examples=50, deadline=None)
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
                lines[at] = DAMAGE[kind](lines[at])
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        assert path.stat().st_size == size and jsonrows._part_bounds(path) == bounds
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
        }, separators=(",", ":"), ensure_ascii=False) + "\n")
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
