from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from mdqa.files import (
    AppendLog,
    FileFormatError,
    atomic_open,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)


def test_write_jsonl_round_trip_sorted_keys(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", ({"b": i, "a": "x"} for i in range(3)))
    assert path.read_text() == "".join(f'{{"a": "x", "b": {i}}}\n' for i in range(3))
    assert read_jsonl(path, lambda raw: raw["b"]) == [0, 1, 2]


def test_write_json_layouts(tmp_path):
    assert write_json(tmp_path / "a.json", {"b": 1, "a": 2}).read_text() == (
        '{\n  "a": 2,\n  "b": 1\n}\n'
    )
    compact = write_json(tmp_path / "b.json", {"b": 1, "a": 2}, indent=None, end="")
    assert compact.read_text() == '{"a": 2, "b": 1}'
    assert read_json(compact) == {"a": 2, "b": 1}


def test_atomic_open_keeps_old_file_on_error(tmp_path):
    path = tmp_path / "keep.json"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("crash")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]


@pytest.mark.parametrize(
    "lines,message",
    [
        (['{"v": 1}', "{not json"], ":2: not JSON"),
        (['{"v": 1}', "", '{"w": 2}'], ":3: missing field 'v'"),
        (['{"v": "x"}'], ":1: bad record"),
        (["[1, 2]"], ":1: bad record"),
        ([b'{"v": "\xff"}'], ":1: not JSON"),
    ],
    ids=["not_json", "missing_field", "bad_value", "not_object", "not_utf8"],
)
def test_read_jsonl_names_path_and_line(tmp_path, lines, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(l if isinstance(l, bytes) else l.encode() for l in lines) + b"\n")
    with pytest.raises(FileFormatError) as exc_info:
        read_jsonl(path, lambda raw: int(raw["v"]))
    assert str(exc_info.value).startswith(f"{path}{message}")


def test_read_json_rejects_bad_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"dim": ')
    with pytest.raises(FileFormatError, match="m.json: not JSON"):
        read_json(path)
    path.write_text('{"dim": 4}')
    with pytest.raises(FileFormatError, match="missing field 'fingerprint'"):
        read_json(path, lambda raw: raw["fingerprint"])


@pytest.mark.parametrize(
    "data,kept",
    [
        (b"", b""),
        (b"1\n2\n", b"1\n2\n"),
        (b"1\n2", b"1\n"),
        (b"12", b""),
        (b"1\n" + b" " * 200_000 + b"2", b"1\n"),
    ],
    ids=["empty", "whole", "torn", "only_torn", "long_torn"],
)
def test_read_jsonl_cuts_torn_tail(tmp_path, data, kept):
    """The journal's read: opening its log cuts off a torn last line, then
    ``read_jsonl`` sees whole lines only."""
    path = tmp_path / "journal.jsonl"
    path.write_bytes(data)
    with AppendLog(path) as log:
        assert read_jsonl(path, int) == [int(l) for l in kept.split()]
        assert path.read_bytes() == kept
        log.append(b"3\n")
    assert read_jsonl(path, int)[-1] == 3


@pytest.mark.parametrize(
    "data,kept",
    [(b"", b""), (b"a123b456", b"a123b456"), (b"a123b4", b"a123"), (b"a1", b"")],
    ids=["empty", "whole", "torn", "only_torn"],
)
def test_fixed_size_log_cuts_torn_record(tmp_path, data, kept):
    path = tmp_path / "rows"
    path.write_bytes(data)
    with AppendLog(path, key=lambda record: record[:1], record_size=4) as log:
        assert path.read_bytes() == kept
        assert [log.read(k) for k in (b"a", b"b")] == [
            kept[i:i + 4] or None for i in (0, 4)
        ]
        log.append(b"c789", b"c")
        assert log.read(b"c") == b"c789"
    assert path.read_bytes() == kept + b"c789"


def test_keyed_log_reads_by_key_and_keeps_the_first_record(tmp_path):
    path = tmp_path / "chat.jsonl"
    key = lambda line: json.loads(line)["key"]  # noqa: E731
    with AppendLog(path, key=key) as log:
        log.append(b'{"key": "a", "v": 1}\n', "a")
        log.append(b'{"key": "b", "v": 22}\n', "b")
        log.append(b'{"key": "a", "v": 333}\n', "a")  # held already: skipped
        assert log.read("a") == b'{"key": "a", "v": 1}\n'
        assert log.read("missing") is None
    with path.open("ab") as fh:
        fh.write(b'{"key": "c", "v"')  # an append a crash cut short
    with AppendLog(path, key=key) as log:
        assert [log.read(k) for k in "abc"] == [
            b'{"key": "a", "v": 1}\n', b'{"key": "b", "v": 22}\n', None
        ]
    assert path.read_bytes().count(b"\n") == 2 and path.read_bytes().endswith(b"\n")


def test_keyed_log_names_a_bad_line(tmp_path):
    path = tmp_path / "chat.jsonl"
    path.write_bytes(b'{"key": "a"}\n{"body": "no key"}\n')
    with pytest.raises(FileFormatError, match=r"chat.jsonl:2: missing field 'key'"):
        AppendLog(path, key=lambda line: json.loads(line)["key"])


def test_append_log_same_key_from_many_threads(tmp_path):
    path = tmp_path / "rows"
    size = 16
    with AppendLog(path, key=lambda record: record[:4], record_size=size) as log:

        def append_many(thread: int) -> None:
            for i in range(100):
                log.append(b"same" + f"{thread:06d}{i:06d}".encode(), b"same")
                log.append(f"t{thread:03d}".encode() + f"{i:012d}".encode(), f"t{thread:03d}".encode())
                assert log.read(b"same")[:4] == b"same"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(append_many, t) for t in range(8)]
                for future in futures:
                    future.result(timeout=60)  # re-raises the thread's error
        finally:
            sys.setswitchinterval(interval)
    data = path.read_bytes()
    records = [data[i:i + size] for i in range(0, len(data), size)]
    # One record per key, each whole: the first append of each key won.
    assert len(data) == 9 * size
    assert sorted(r[:4] for r in records) == [b"same"] + [f"t{t:03d}".encode() for t in range(8)]
    with AppendLog(path, key=lambda record: record[:4], record_size=size) as log:
        assert all(log.read(r[:4]) == r for r in records)
