"""Chat and embedding backends: HTTP access with caching and retries, and
the deterministic hashed bag-of-words embedder used by tests and oracle
sessions.

An HTTP backend always caches, in one append-only log under
``config.cache_dir`` (``chat.jsonl`` by request hash, or a ``VectorStore`` by
text); a hit reads one record back, and each record is one reply or vector
that went over the network. Both backends may share one wire log, a line per
request. A ``VectorStore`` is a manifest pinning the backend fingerprint and
dimension, and one append-only file of fixed-size records keyed by the sha256
of the embedded text.

The backends count nothing. Each run's meter counts its chat and embed calls
into its run record, and ``mdqa run`` folds ``ledger.json`` from the records,
the index build and the chat log. Between the meters and either embedder,
``mdqa run`` puts a ``retrieval.QueryMemo``: a one-text call whose text was
embedded before is answered from the memo, so it reaches no backend, yet its
meter still counts it.

numpy is imported inside the functions that compute a vector, so a command
that embeds nothing (``synth`` needs only ``tokenize`` and ``token_slot``)
starts without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .files import AppendLog, Closable, jsonl_line, read_json, write_json


class BackendError(Exception):
    """A backend call failed after exhausting retries."""


class BackendConfigError(BackendError):
    """The backend configuration is unusable (e.g. missing auth)."""


class CacheMismatchError(Exception):
    """Cache manifest disagrees with the embedding backend in use."""


@dataclass
class BackendConfig:
    cache_dir: Path
    endpoint: str = ""
    model: str = ""
    auth_env: str = "MDQA_API_KEY"


def _hash_request(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# HTTP backends (OpenAI-compatible REST shape)
# ---------------------------------------------------------------------------

# A transport is (url, json_body, headers, timeout) -> (status_code, json_body).
Transport = Callable[[str, dict, dict, float], tuple[int, dict]]

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
# Attempts per request, the first backoff (doubled per retry), requests of
# one backend in flight at once, and texts per embeddings request.
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5
IN_FLIGHT_LIMIT = 8
EMBED_BATCH = 64


def _requests_transport(url: str, body: dict, headers: dict, timeout: float):
    """POST ``body`` as JSON with the standard library. An HTTP error status
    is returned like any other; a connection failure or timeout raises an
    ``OSError``. (The benchmark launcher and tracer patch this name.)"""
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, json.dumps(body).encode(), headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            status, raw = exc.code, exc.read()
    except http.client.HTTPException as exc:  # a malformed or cut-off response
        raise OSError(f"bad HTTP response: {exc!r}") from exc
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = {"error": raw.decode("utf-8", "replace")}
    return status, payload


class _HttpBackendBase(Closable):
    def __init__(
        self,
        config: BackendConfig,
        transport: Optional[Transport] = None,
        sleeper: Callable[[float], None] = time.sleep,
        wire_log: Optional[AppendLog] = None,
    ):
        if not config.endpoint or not config.model:
            raise BackendConfigError("http backend requires endpoint and model")
        self.config = config
        self._transport = transport or _requests_transport
        self._sleep = sleeper
        self._semaphore = threading.Semaphore(IN_FLIGHT_LIMIT)
        self._wire = wire_log
        self.cache = self._open_cache(Path(config.cache_dir))

    def close(self) -> None:
        """Close the cache; the wire log is the caller's to close."""
        self.cache.close()

    def _auth_header(self) -> dict:
        key = os.environ.get(self.config.auth_env)
        if not key:
            raise BackendConfigError(
                f"auth environment variable {self.config.auth_env!r} is not set"
            )
        return {"Authorization": f"Bearer {key}"}

    def _log_wire(self, url: str, body: dict, status: int, payload: dict) -> None:
        if self._wire:
            record = {"url": url, "request": body, "status": status, "response": payload}
            self._wire.append(jsonl_line(record).encode("utf-8"))

    def _post(self, path: str, body: dict) -> dict:
        headers = {"Content-Type": "application/json", **self._auth_header()}
        url = self.config.endpoint.rstrip("/") + path
        last_error = None
        attempts = 0
        while attempts < MAX_ATTEMPTS:
            if attempts:
                self._sleep(BACKOFF_BASE_S * (2 ** (attempts - 1)))
            attempts += 1
            with self._semaphore:
                try:
                    status, payload = self._transport(url, body, headers, 60.0)
                except OSError as exc:
                    last_error = f"transport failure: {exc}"
                    continue
            self._log_wire(url, body, status, payload)
            if status == 200:
                return payload
            last_error = f"HTTP {status}: {payload}"
            if status not in _RETRYABLE_STATUS:
                break
        raise BackendError(
            f"request to {url} failed after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: {last_error}"
        )


class HttpChatBackend(_HttpBackendBase):
    """Chat completions over an OpenAI-compatible endpoint.

    Responses are cached by (messages, params, model); a rerun of an identical
    session issues zero new network requests.
    """

    def _open_cache(self, root: Path) -> AppendLog:
        root.mkdir(parents=True, exist_ok=True)
        return AppendLog(root / "chat.jsonl", key=lambda line: json.loads(line)["key"])

    def chat(self, messages: list[dict], **params) -> str:
        body = {
            "model": self.config.model,
            "messages": messages,
            "temperature": params.pop("temperature", 0),
            **params,
        }
        key = _hash_request(body)
        cached = self.cache.read(key)
        if cached is not None:
            return json.loads(cached)["body"]
        payload = self._post("/chat/completions", body)
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendError(f"malformed chat response: {payload}") from None
        self.cache.append(jsonl_line({"body": text, "key": key}).encode("utf-8"), key)
        return text


def _embedding_rows(payload: dict, n: int) -> np.ndarray:
    """The vectors of an embeddings response as float32 rows. Raises
    ``BackendError`` unless it holds ``n`` vectors of finite numbers, of one dim."""
    import numpy as np

    try:
        rows = [np.asarray(item["embedding"]) for item in payload["data"]]
    except (KeyError, TypeError):
        raise BackendError(f"malformed embeddings response: {payload}") from None
    if len(rows) != n:
        raise BackendError(f"embeddings response holds {len(rows)} vectors for {n} texts")
    if any(r.ndim != 1 or not r.size or r.dtype.kind not in "iuf" or not np.isfinite(r).all()
           for r in rows):
        raise BackendError("embeddings response holds a vector that is not finite numbers")
    dims = sorted({row.shape[0] for row in rows})
    if len(dims) != 1:
        raise BackendError(f"embedding dimension drift: {dims}")
    return np.stack(rows).astype(np.float32)


def text_key(text: str) -> bytes:
    """The key of a text's vector: the 32-byte sha256 of its UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).digest()


class VectorStore(Closable):
    """Vectors by ``text_key`` for one embedding backend, in a directory:
    ``manifest.json`` (backend fingerprint and dim, written before the first
    vector) and ``vectors.f4``, an ``AppendLog`` of ``32 + 4 * dim``-byte
    records, each the key and then the vector as little-endian float32.
    Another backend's store, or a vector of another dim, raises
    ``CacheMismatchError``."""

    def __init__(self, root: str | Path, fingerprint: str):
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.dim: Optional[int] = None
        self._log: Optional[AppendLog] = None
        self._lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = self.root / "manifest.json"
        if manifest.exists():
            found, dim = read_json(manifest, lambda m: (m["backend_fingerprint"], int(m["dim"])))
            if found != fingerprint:
                raise CacheMismatchError(
                    f"{manifest}: cache built with {found!r}, backend is {fingerprint!r}"
                )
            self._open(dim)

    def _open(self, dim: int) -> None:
        self._log = AppendLog(
            self.root / "vectors.f4", key=lambda record: record[:32], record_size=32 + 4 * dim
        )
        self.dim = dim

    def get(self, key: bytes) -> Optional[np.ndarray]:
        import numpy as np

        record = self._log.read(key) if self._log else None
        return None if record is None else np.frombuffer(record, dtype="<f4", offset=32)

    def put(self, key: bytes, vector: np.ndarray) -> None:
        """Append ``vector`` under ``key`` unless the key is already held."""
        import numpy as np

        row = np.asarray(vector, dtype="<f4")
        with self._lock:
            if self._log is None:
                manifest = {"backend_fingerprint": self.fingerprint, "dim": row.shape[0]}
                write_json(self.root / "manifest.json", manifest, indent=None, end="")
                self._open(row.shape[0])
        if row.shape != (self.dim,):
            raise CacheMismatchError(f"backend dim {row.shape[0]} != cached dim {self.dim}")
        self._log.append(key + row.tobytes(), key)

    def close(self) -> None:
        if self._log:
            self._log.close()


class HttpEmbedBackend(_HttpBackendBase):
    """Embeddings over an OpenAI-compatible endpoint, cached per text in a
    ``VectorStore``. The texts not cached go out in order, ``EMBED_BATCH``
    to a request, one request at a time; each response is checked whole and
    cached before the next request, so only one batch's reply is held at once
    and an interrupted call keeps the batches it cached."""

    _dim: Optional[int] = None  # of the first response

    @property
    def fingerprint(self) -> str:
        return f"http:{self.config.model}"

    def _open_cache(self, root: Path) -> VectorStore:
        return VectorStore(root, self.fingerprint)

    def embed(self, texts: list[str]) -> np.ndarray:
        import numpy as np

        if not texts:
            raise BackendError("embed requires at least one text")
        keys = [text_key(text) for text in texts]
        vectors = [self.cache.get(key) for key in keys]
        missing = [i for i, vec in enumerate(vectors) if vec is None]
        for start in range(0, len(missing), EMBED_BATCH):
            batch = missing[start : start + EMBED_BATCH]
            body = {"model": self.config.model, "input": [texts[i] for i in batch]}
            rows = _embedding_rows(self._post("/embeddings", body), len(batch))
            self._dim = self._dim or rows.shape[1]
            if rows.shape[1] != self._dim:
                raise BackendError(f"embedding dimension changed: {self._dim} -> {rows.shape[1]}")
            for i, row in zip(batch, rows):
                vectors[i] = row
                self.cache.put(keys[i], row)
        return np.stack(vectors)


# ---------------------------------------------------------------------------
# Deterministic hashed bag-of-words embedder
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Salt for token hashing. Chosen so that no two tokens from the benchmark's
# working vocabulary (years, company names, tickers, metric words, template
# words) share a slot at dim 512; see the collision test in the suite.
BOW_HASH_SALT = "bow17723:"


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def token_slot(token: str, dim: int = 512) -> int:
    digest = hashlib.sha256((BOW_HASH_SALT + token).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % dim


class HashedBowEmbedder:
    """Token-hashed bag-of-words vectors, L2-normalized, fully deterministic.

    Token positions come from salted sha256, not Python's randomized hash, so
    vectors are identical across processes and platforms. Retrieval ranks
    computed from these vectors are hand-checkable.
    """

    def __init__(self, dim: int = 512):
        self.dim = dim
        self._slot_cache: dict[str, int] = {}

    def _slot(self, token: str) -> int:
        slot = self._slot_cache.get(token)
        if slot is None:
            slot = token_slot(token, self.dim)
            self._slot_cache[token] = slot
        return slot

    def embed(self, texts: list[str]) -> np.ndarray:
        import numpy as np

        if not texts:
            raise BackendError("embed requires at least one text")
        # Each row is counted and normalized in float64, then quantized to
        # float32, as the HTTP embedder's cache holds its vectors.
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        counts = np.empty(self.dim, dtype=np.float64)
        for row, text in enumerate(texts):
            counts.fill(0.0)
            for token in tokenize(text):
                counts[self._slot(token)] += 1.0
            norm = np.linalg.norm(counts)
            if norm > 0:
                counts /= norm
            out[row] = counts
        return out
