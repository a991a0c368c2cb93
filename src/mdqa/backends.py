"""Chat and embedding backends: HTTP access with caching and retries, call
accounting, and the deterministic hashed bag-of-words embedder used by tests
and oracle sessions.

Cost accounting counts chat completions as "LLM calls"; embedding work is
reported separately and counted per text embedded, not per HTTP request.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .files import read_json, write_json


class BackendError(Exception):
    """A backend call failed after exhausting retries."""


class BackendConfigError(BackendError):
    """The backend configuration is unusable (e.g. missing auth)."""


@dataclass
class BackendConfig:
    kind: str  # "http_openai_compatible" | "oracle_mock"
    endpoint: str = ""
    model: str = ""
    auth_env: str = "MDQA_API_KEY"
    max_retries: int = 3
    backoff_base: float = 0.5
    in_flight_limit: int = 8
    cache_dir: Optional[Path] = None
    chat_path: str = "/chat/completions"
    embed_path: str = "/embeddings"


# ---------------------------------------------------------------------------
# Call ledger
# ---------------------------------------------------------------------------

_current_scope: contextvars.ContextVar[Optional[tuple[str, str]]] = contextvars.ContextVar(
    "mdqa_ledger_scope", default=None
)


class CallLedger:
    """Append-only chat/embed call counters, grouped by (system, question).

    Calls made outside a scope land in the ("-", "-") bucket. Thread safe;
    counters never decrease.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._chat: dict[tuple[str, str], int] = {}
        self._embed: dict[tuple[str, str], int] = {}
        self._network_chat = 0

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "CallLedger":
        """A ledger that goes on counting from an earlier ``snapshot()``."""
        ledger = cls()
        for name, counts in (("chat_by_scope", ledger._chat), ("embed_by_scope", ledger._embed)):
            for key, n in snapshot[name].items():
                system_id, _, question_id = key.partition("/")
                counts[(system_id, question_id)] = int(n)
        ledger._network_chat = int(snapshot["network_chat_total"])
        return ledger

    @contextlib.contextmanager
    def scope(self, system_id: str, question_id: str):
        token = _current_scope.set((system_id, question_id))
        try:
            yield
        finally:
            _current_scope.reset(token)

    def _bucket(self) -> tuple[str, str]:
        return _current_scope.get() or ("-", "-")

    def record_chat(self, n: int = 1) -> None:
        with self._lock:
            key = self._bucket()
            self._chat[key] = self._chat.get(key, 0) + n

    def record_embed(self, n: int) -> None:
        with self._lock:
            key = self._bucket()
            self._embed[key] = self._embed.get(key, 0) + n

    def record_network_chat(self) -> None:
        with self._lock:
            self._network_chat += 1

    @property
    def chat_total(self) -> int:
        with self._lock:
            return sum(self._chat.values())

    @property
    def embed_total(self) -> int:
        with self._lock:
            return sum(self._embed.values())

    @property
    def network_chat_total(self) -> int:
        with self._lock:
            return self._network_chat

    def chat_by_scope(self) -> dict[tuple[str, str], int]:
        with self._lock:
            return dict(self._chat)

    def embed_by_scope(self) -> dict[tuple[str, str], int]:
        with self._lock:
            return dict(self._embed)

    def snapshot(self) -> dict:
        return {
            "chat_total": self.chat_total,
            "embed_total": self.embed_total,
            "network_chat_total": self.network_chat_total,
            "chat_by_scope": {
                f"{s}/{q}": n for (s, q), n in sorted(self.chat_by_scope().items())
            },
            "embed_by_scope": {
                f"{s}/{q}": n for (s, q), n in sorted(self.embed_by_scope().items())
            },
        }


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------


class _DiskCache:
    """One JSON file per key, read through a small in-memory LRU of bodies.

    Every ``put`` still writes its file; the memo only spares re-reading
    the files of recent keys.
    """

    MEMO_ENTRIES = 64

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._memo: OrderedDict[str, str] = OrderedDict()
        self._memo_lock = threading.Lock()

    def _remember(self, key: str, body: str) -> None:
        with self._memo_lock:
            self._memo[key] = body
            self._memo.move_to_end(key)
            if len(self._memo) > self.MEMO_ENTRIES:
                self._memo.popitem(last=False)

    def get(self, key: str) -> Optional[str]:
        with self._memo_lock:
            body = self._memo.get(key)
            if body is not None:
                self._memo.move_to_end(key)
                return body
        path = self.root / f"{key}.json"
        if not path.exists():
            return None
        body = read_json(path, lambda raw: raw["body"])
        self._remember(key, body)
        return body

    def put(self, key: str, body: str) -> None:
        write_json(self.root / f"{key}.json", {"body": body}, indent=None, end="")
        self._remember(key, body)


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


def _requests_transport(url: str, body: dict, headers: dict, timeout: float):
    import requests

    resp = requests.post(url, json=body, headers=headers, timeout=timeout)
    try:
        payload = resp.json()
    except ValueError:
        payload = {"error": resp.text}
    return resp.status_code, payload


class _HttpBackendBase:
    def __init__(
        self,
        config: BackendConfig,
        ledger: Optional[CallLedger] = None,
        transport: Optional[Transport] = None,
        sleeper: Callable[[float], None] = time.sleep,
        wire_log_dir: Optional[Path] = None,
    ):
        if not config.endpoint or not config.model:
            raise BackendConfigError("http backend requires endpoint and model")
        self.config = config
        self.ledger = ledger
        self._transport = transport or _requests_transport
        self._sleep = sleeper
        self._semaphore = threading.Semaphore(config.in_flight_limit)
        self._cache = _DiskCache(config.cache_dir) if config.cache_dir else None
        self._wire_dir = Path(wire_log_dir) if wire_log_dir else None
        if self._wire_dir:
            self._wire_dir.mkdir(parents=True, exist_ok=True)
        self._wire_seq = 0
        self._wire_lock = threading.Lock()

    def _auth_header(self) -> dict:
        key = os.environ.get(self.config.auth_env)
        if not key:
            raise BackendConfigError(
                f"auth environment variable {self.config.auth_env!r} is not set"
            )
        return {"Authorization": f"Bearer {key}"}

    def _log_wire(self, url: str, body: dict, status: int, payload: dict) -> None:
        if not self._wire_dir:
            return
        with self._wire_lock:
            self._wire_seq += 1
            seq = self._wire_seq
        record = {
            "url": url,
            "request": body,
            "status": status,
            "response": payload,
        }
        write_json(self._wire_dir / f"{seq:05d}.json", record, end="")

    def _post(self, path: str, body: dict) -> dict:
        headers = {"Content-Type": "application/json", **self._auth_header()}
        url = self.config.endpoint.rstrip("/") + path
        last_error = None
        for attempt in range(self.config.max_retries):
            if attempt:
                self._sleep(self.config.backoff_base * (2 ** (attempt - 1)))
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
            f"request to {url} failed after {self.config.max_retries} attempts: {last_error}"
        )


class HttpChatBackend(_HttpBackendBase):
    """Chat completions over an OpenAI-compatible endpoint.

    Responses are cached by (messages, params, model); a rerun of an identical
    session issues zero new network requests but still increments the logical
    call count.
    """

    def chat(self, messages: list[dict], **params) -> str:
        if self.ledger:
            self.ledger.record_chat()
        body = {
            "model": self.config.model,
            "messages": messages,
            "temperature": params.pop("temperature", 0),
            **params,
        }
        key = _hash_request(body)
        if self._cache:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        payload = self._post(self.config.chat_path, body)
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendError(f"malformed chat response: {payload}") from None
        if self.ledger:
            self.ledger.record_network_chat()
        if self._cache:
            self._cache.put(key, text)
        return text


class HttpEmbedBackend(_HttpBackendBase):
    """Embeddings over an OpenAI-compatible endpoint, cached per text."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._dim: Optional[int] = None

    @property
    def fingerprint(self) -> str:
        return f"http:{self.config.model}"

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise BackendError("embed requires at least one text")
        vectors: list[Optional[np.ndarray]] = [None] * len(texts)
        missing: list[int] = []
        for i, text in enumerate(texts):
            key = None
            if self._cache:
                key = "emb-" + hashlib.sha256(
                    f"{self.config.model}\x00{text}".encode("utf-8")
                ).hexdigest()
                cached = self._cache.get(key)
                if cached is not None:
                    vectors[i] = np.asarray(json.loads(cached), dtype=np.float32)
                    continue
            missing.append(i)
        if missing:
            body = {
                "model": self.config.model,
                "input": [texts[i] for i in missing],
            }
            payload = self._post(self.config.embed_path, body)
            try:
                data = payload["data"]
                for slot, item in zip(missing, data):
                    vec = np.asarray(item["embedding"], dtype=np.float32)
                    vectors[slot] = vec
            except (KeyError, TypeError):
                raise BackendError(f"malformed embeddings response: {payload}") from None
            if self.ledger:
                self.ledger.record_embed(len(missing))
            if self._cache:
                for slot in missing:
                    key = "emb-" + hashlib.sha256(
                        f"{self.config.model}\x00{texts[slot]}".encode("utf-8")
                    ).hexdigest()
                    self._cache.put(key, json.dumps(vectors[slot].tolist()))
        if any(v is None for v in vectors):
            raise BackendError("embeddings response shorter than request batch")
        dims = {v.shape[0] for v in vectors}
        if len(dims) != 1:
            raise BackendError(f"embedding dimension drift: {sorted(dims)}")
        dim = dims.pop()
        if self._dim is None:
            self._dim = dim
        elif self._dim != dim:
            raise BackendError(f"embedding dimension changed: {self._dim} -> {dim}")
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

    def __init__(self, dim: int = 512, ledger: Optional[CallLedger] = None):
        self.dim = dim
        self.ledger = ledger
        self.compute_count = 0  # texts actually embedded, for cache tests
        self._slot_cache: dict[str, int] = {}

    @property
    def fingerprint(self) -> str:
        return f"hashed-bow-{self.dim}/1"

    def _slot(self, token: str) -> int:
        slot = self._slot_cache.get(token)
        if slot is None:
            slot = token_slot(token, self.dim)
            self._slot_cache[token] = slot
        return slot

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise BackendError("embed requires at least one text")
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in enumerate(texts):
            for token in tokenize(text):
                out[row, self._slot(token)] += 1.0
            norm = np.linalg.norm(out[row])
            if norm > 0:
                out[row] /= norm
        self.compute_count += len(texts)
        if self.ledger:
            self.ledger.record_embed(len(texts))
        # Quantize to float32 so cache round-trips are exact.
        return out.astype(np.float32)
