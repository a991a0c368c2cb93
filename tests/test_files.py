from __future__ import annotations

import pytest

from mdqa.files import (
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
    path = tmp_path / "journal.jsonl"
    path.write_bytes(data)
    assert read_jsonl(path, int, torn_tail=True) == [int(l) for l in kept.split()]
    assert path.read_bytes() == kept
    with path.open("a") as fh:
        fh.write("3\n")
    assert read_jsonl(path, int, torn_tail=True)[-1] == 3
