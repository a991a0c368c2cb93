"""JSON and JSON-lines files and append-only logs: the one place corpora,
question sets and sessions are read and written.

Writers replace a file whole (a temporary file beside it, then a rename), so
a crash leaves the old file or the new one, never part of one. An
``AppendLog`` grows instead, and opening it cuts off a record a crash cut
short. Readers raise FileFormatError naming ``path:line`` for a line that is
not JSON or a record its parser rejects.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Optional, TypeVar

T = TypeVar("T")

# What a parser raises for a record it cannot read.
_REJECTED = (AttributeError, KeyError, TypeError, ValueError)


class FileFormatError(ValueError):
    """A JSON or JSON-lines file holds something that cannot be read."""


@contextlib.contextmanager
def atomic_open(path: str | Path, newline: Optional[str] = None):
    """Write text to a temporary file beside ``path``, renamed over it on
    success. The temporary name is unique per process and thread."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
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


def read_jsonl(path: str | Path, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` of each non-blank line."""
    out = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(parse(json.loads(line)))
                except _REJECTED as exc:
                    raise _located(f"{path}:{line_no}", exc) from None
    return out


class Closable:
    """A context manager that calls ``close()`` on exit."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AppendLog(Closable):
    """A file that only grows by whole records: lines, or with
    ``record_size`` records of that many bytes. Opening cuts off a torn tail
    (a record a crash cut short). With ``key``, opening maps each record's
    ``key(record)`` to its offset: ``read`` is one ``os.pread`` and
    ``append`` skips a key already held. Appends are written and flushed
    under a lock, so threads may share a log."""

    def __init__(
        self,
        path: str | Path,
        key: Optional[Callable[[bytes], Hashable]] = None,
        record_size: Optional[int] = None,
    ):
        self.path = Path(path)
        self._index: dict[Hashable, tuple[int, int]] = {}
        self._end = 0
        with open(self.path, "a+b") as fh:
            fh.seek(0)
            records = iter(functools.partial(fh.read, record_size), b"") if record_size else fh
            for number, record in enumerate(records, start=1):
                if len(record) != record_size if record_size else not record.endswith(b"\n"):
                    break
                if key:
                    try:
                        self._index.setdefault(key(record), (self._end, len(record)))
                    except _REJECTED as exc:
                        raise _located(f"{self.path}:{number}", exc) from None
                self._end += len(record)
            fh.truncate(self._end)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a+b")

    def read(self, key: Hashable) -> Optional[bytes]:
        """The record appended under ``key``, or None."""
        where = self._index.get(key)
        return None if where is None else os.pread(self._fh.fileno(), where[1], where[0])

    def append(self, record: bytes, key: Optional[Hashable] = None) -> None:
        with self._lock:
            if key is not None and key in self._index:
                return
            self._fh.write(record)
            self._fh.flush()
            if key is not None:
                self._index[key] = (self._end, len(record))
            self._end += len(record)

    def close(self) -> None:
        self._fh.close()
