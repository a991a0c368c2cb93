"""JSON and JSON-lines files: the one place corpora, question sets and
sessions are read and written.

Writers replace a file whole (a temporary file beside it, then a rename), so
a crash leaves the old file or the new one, never part of one. Readers raise
FileFormatError naming ``path:line`` for a line that is not JSON or a record
its parser rejects.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TypeVar

T = TypeVar("T")

# What a parser raises for a record it cannot read.
_REJECTED = (AttributeError, KeyError, TypeError, ValueError)


class FileFormatError(ValueError):
    """A JSON or JSON-lines file holds something that cannot be read."""


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", newline: Optional[str] = None):
    """Write to a temporary file beside ``path``, renamed over it on success.
    The temporary name is unique per process and thread."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def jsonl_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def write_json(path: str | Path, obj: Any, indent: Optional[int] = 2, end: str = "\n") -> Path:
    """``obj`` with sorted keys, then ``end``."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=indent) + end)
    return Path(path)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> Path:
    """One record per line, streamed into the file."""
    with atomic_open(path) as fh:
        fh.writelines(map(jsonl_line, records))
    return Path(path)


def _located(where: str, exc: Exception) -> FileFormatError:
    if isinstance(exc, KeyError):
        return FileFormatError(f"{where}: missing field {exc}")
    kind = "not JSON" if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)) else "bad record"
    return FileFormatError(f"{where}: {kind}: {exc}")


def read_json(path: str | Path, parse: Optional[Callable[[Any], T]] = None) -> T:
    """The file's JSON value, passed through ``parse`` if given."""
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
        return raw if parse is None else parse(raw)
    except _REJECTED as exc:
        raise _located(str(path), exc) from None


def read_jsonl(path: str | Path, parse: Callable[[Any], T], torn_tail: bool = False) -> list[T]:
    """``parse`` of each non-blank line. With ``torn_tail``, a last line that
    has no newline (an append cut short by a crash) is cut off the file."""
    out, offset = [], 0
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if torn_tail and not line.endswith(b"\n"):
                os.truncate(path, offset)
                break
            offset += len(line)
            if line.strip():
                try:
                    out.append(parse(json.loads(line)))
                except _REJECTED as exc:
                    raise _located(f"{path}:{line_no}", exc) from None
    return out
