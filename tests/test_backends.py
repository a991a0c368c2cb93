from __future__ import annotations

import http.server
import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqa import backends
from mdqa.backends import (
    EMBED_BATCH,
    BackendConfig,
    BackendConfigError,
    BackendError,
    HashedBowEmbedder,
    HttpChatBackend,
    HttpEmbedBackend,
    _requests_transport,
    tokenize,
    token_slot,
)
from mdqa.files import AppendLog
from mdqa.synth import SIGNAL_TOKENS


# ---------------------------------------------------------------------------
# Hashed bag-of-words embedder
# ---------------------------------------------------------------------------


def test_embed_deterministic():
    a = HashedBowEmbedder().embed(["total revenue 2021", "net income"])
    b = HashedBowEmbedder().embed(["total revenue 2021", "net income"])
    assert np.array_equal(a, b)


def test_embed_unit_norm():
    vecs = HashedBowEmbedder().embed(["some words here", "x"])
    norms = np.linalg.norm(vecs.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)


def test_embed_empty_text_gives_zero_vector():
    vec = HashedBowEmbedder().embed([""])[0]
    assert np.all(vec == 0)


def test_embed_returns_one_row_per_text():
    embedder = HashedBowEmbedder()
    assert embedder.embed(["a b", "c"]).shape == (2, embedder.dim)
    assert embedder.embed(["d"]).shape == (1, embedder.dim)


def test_embed_requires_input():
    with pytest.raises(BackendError):
        HashedBowEmbedder().embed([])


def _bow_rows_in_one_matrix(texts, dim=512):
    """``HashedBowEmbedder.embed`` as it was written before it filled a
    float32 output row by row: one float64 matrix, then ``astype``."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        for token in tokenize(text):
            out[row, token_slot(token, dim)] += 1.0
        norm = np.linalg.norm(out[row])
        if norm > 0:
            out[row] /= norm
    return out.astype(np.float32)


_BOW_WORDS = st.sampled_from(["revenue", "2023", "acme", "dividends", "total", "10-k", "q4", ""])


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.one_of(st.text(max_size=80), st.lists(_BOW_WORDS, max_size=40).map(" ".join)),
        min_size=1, max_size=8,
    ),
    dim=st.sampled_from([8, 512]),
)
def test_embed_rows_are_the_one_matrix_bytes(texts, dim):
    got = HashedBowEmbedder(dim).embed(texts)
    assert got.dtype == np.float32
    assert got.tobytes() == _bow_rows_in_one_matrix(texts, dim).tobytes()


def test_rank_critical_tokens_have_distinct_slots():
    # Tokens that carry ranking signal (years, names, tickers, metric words,
    # and the words that appear on synthetic pages) must not collide with one
    # another at dim 512, otherwise the constructed retrieval separations are
    # meaningless. Tokens that only ever appear in queries may share slots
    # with these; that shifts query norms uniformly without reordering pages.
    hard = (
        "2015 2016 2017 2018 2019 2020 2021 2022 2023 "
        "total revenue revenues employees employee dividends dividend paid "
        "net income short long term debt return returned investors capital "
        "argonix boltara cindrel dovetra eldrin fornax gravix holmere irydia "
        "jantara kelvor lumantis mirvane nortella ovestra pyrellia quandor "
        "ravonix argx blta cndr dvtr eldn frnx grvx hlmr iryd jntr klvr lmnt "
        "mrvn nrtl ovst pyrl qndr rvnx coca cola abbott netflix honeywell "
        "caterpillar pfizer pepsico boeing ko abt nflx hon cat pfe pep ba "
        "s pay report business fiscal statements millions overview annual "
        "operations quarterly interim period us dollars what is the of in"
    ).split()
    slots = {}
    for token in hard:
        slots.setdefault(token_slot(token), []).append(token)
    collisions = [tokens for tokens in slots.values() if len(tokens) > 1]
    assert collisions == [], f"rank-critical token collisions: {collisions}"
    assert set(hard) <= set(SIGNAL_TOKENS)


# ---------------------------------------------------------------------------
# HTTP chat backend
# ---------------------------------------------------------------------------


def _chat_payload(text):
    return {"choices": [{"message": {"content": text}}]}


class _Transport:
    def __init__(self, script):
        # script: list of (status, payload) consumed per request
        self.script = list(script)
        self.requests = []

    def __call__(self, url, body, headers, timeout):
        self.requests.append((url, body, headers))
        status, payload = self.script.pop(0)
        return status, payload


def _http_config(tmp_path, **overrides):
    base = dict(
        endpoint="https://llm.example/v1",
        model="test-model",
        auth_env="MDQA_TEST_KEY",
        cache_dir=tmp_path / "cache",
    )
    base.update(overrides)
    return BackendConfig(**base)


def test_chat_cache_avoids_second_network_call(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport([(200, _chat_payload("hello"))])
    messages = [{"role": "user", "content": "hi"}]
    with HttpChatBackend(_http_config(tmp_path), transport=transport) as backend:
        assert backend.chat(messages) == "hello"
        assert backend.chat(messages) == "hello"
    assert len(transport.requests) == 1
    # One record per reply that went over the network.
    assert (tmp_path / "cache" / "chat.jsonl").read_bytes().count(b"\n") == 1
    # The log outlives the backend: a new one answers from it.
    with HttpChatBackend(_http_config(tmp_path), transport=transport) as again:
        assert again.chat(messages) == "hello"
    assert len(transport.requests) == 1
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["chat.jsonl"]


def test_chat_retries_on_rate_limit(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport([(429, {"error": "slow down"}), (200, _chat_payload("ok"))])
    sleeps = []
    with HttpChatBackend(
        _http_config(tmp_path), transport=transport, sleeper=sleeps.append
    ) as backend:
        assert backend.chat([{"role": "user", "content": "x"}]) == "ok"
    assert len(transport.requests) == 2
    assert sleeps == [0.5]


def test_chat_exhausted_retries(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport([(503, {}), (503, {}), (503, {})])
    sleeps = []
    with HttpChatBackend(
        _http_config(tmp_path), transport=transport, sleeper=sleeps.append
    ) as backend, pytest.raises(BackendError, match="failed after 3 attempts"):
        backend.chat([{"role": "user", "content": "x"}])
    assert sleeps == [0.5, 1.0]


def test_chat_non_retryable_stops_immediately(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport([(401, {"error": "bad key"})])
    with HttpChatBackend(
        _http_config(tmp_path), transport=transport, sleeper=lambda s: None
    ) as backend, pytest.raises(BackendError, match="failed after 1 attempt: HTTP 401"):
        backend.chat([{"role": "user", "content": "x"}])
    assert len(transport.requests) == 1


def test_chat_reports_the_attempts_it_made(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport([(503, {}), (400, {"error": "bad request"})])
    with HttpChatBackend(
        _http_config(tmp_path), transport=transport, sleeper=lambda s: None
    ) as backend, pytest.raises(BackendError, match="failed after 2 attempts: HTTP 400"):
        backend.chat([{"role": "user", "content": "x"}])
    assert len(transport.requests) == 2


# The standard-library transport itself, against a server on the loopback.


class _Handler(http.server.BaseHTTPRequestHandler):
    replies: list = []  # (status, body bytes[, declared length]), one per request
    received: list = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.received.append((self.path, self.headers["Authorization"], json.loads(body)))
        status, reply, *declared = self.replies.pop(0)
        self.send_response(status)
        self.send_header("Content-Length", str(declared[0] if declared else len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setattr(_Handler, "replies", [])
    monkeypatch.setattr(_Handler, "received", [])
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.mark.parametrize(
    "status,reply,payload",
    [
        (200, b'{"ok": [1]}', {"ok": [1]}),
        (429, b'{"error": "slow down"}', {"error": "slow down"}),
        (500, b'{"error": "boom"}', {"error": "boom"}),
        (200, b"<html>not json</html>", {"error": "<html>not json</html>"}),
    ],
    ids=["ok", "rate-limited", "server-error", "not-json"],
)
def test_transport_returns_every_status_with_its_payload(loopback, status, reply, payload):
    _Handler.replies.append((status, reply))
    headers = {"Content-Type": "application/json", "Authorization": "Bearer k"}
    body = {"input": ["caf\u00e9", 1]}
    assert _requests_transport(loopback + "/chat", body, headers, 5.0) == (status, payload)
    assert _Handler.received == [("/v1/chat", "Bearer k", body)]


def test_transport_keeps_the_retry_rules(loopback, tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    _Handler.replies.extend(
        [(429, b'{"error": "slow down"}'), (200, json.dumps(_chat_payload("ok")).encode())]
    )
    sleeps = []
    config = _http_config(tmp_path, endpoint=loopback)
    with HttpChatBackend(config, sleeper=sleeps.append) as backend:
        assert backend.chat([{"role": "user", "content": "hi"}]) == "ok"
    assert len(_Handler.received) == 2 and len(sleeps) == 1
    _Handler.replies.append((401, b"denied"))
    with HttpChatBackend(_http_config(tmp_path / "2", endpoint=loopback)) as backend:
        with pytest.raises(BackendError, match="after 1 attempt: HTTP 401: {'error': 'denied'}"):
            backend.chat([{"role": "user", "content": "hi"}])


def test_transport_cut_off_reply_is_an_os_error(loopback):
    _Handler.replies.append((200, b'{"ok"', 100))
    with pytest.raises(OSError, match="bad HTTP response: IncompleteRead"):
        _requests_transport(loopback, {}, {}, 5.0)


def test_transport_connection_failure_is_an_os_error(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
    with pytest.raises(OSError):
        _requests_transport(f"http://127.0.0.1:{port}/v1", {}, {}, 5.0)


def test_missing_auth_fails_before_any_network(tmp_path, monkeypatch):
    monkeypatch.delenv("MDQA_NO_SUCH_KEY", raising=False)
    transport = _Transport([])
    with HttpChatBackend(
        _http_config(tmp_path, auth_env="MDQA_NO_SUCH_KEY"), transport=transport
    ) as backend, pytest.raises(BackendConfigError, match="MDQA_NO_SUCH_KEY"):
        backend.chat([{"role": "user", "content": "x"}])
    assert transport.requests == []


def test_http_config_requires_endpoint_and_model(tmp_path):
    with pytest.raises(BackendConfigError):
        HttpChatBackend(BackendConfig(cache_dir=tmp_path / "cache"))
    assert not (tmp_path / "cache").exists()


def test_wire_log_written_and_auth_not_logged(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "super-secret")
    transport = _Transport([(200, _chat_payload("hello"))])
    wire_path = tmp_path / "wire.jsonl"
    with AppendLog(wire_path) as wire, HttpChatBackend(
        _http_config(tmp_path), transport=transport, wire_log=wire
    ) as backend:
        backend.chat([{"role": "user", "content": "hi"}])
    body = wire_path.read_text()
    assert body.endswith("\n") and body.count("\n") == 1
    record = json.loads(body)
    assert sorted(record) == ["request", "response", "status", "url"]
    assert record["response"] == _chat_payload("hello") and record["status"] == 200
    assert "super-secret" not in body


# ---------------------------------------------------------------------------
# HTTP embeddings
# ---------------------------------------------------------------------------


def _embed_payload(vectors):
    return {"data": [{"embedding": v} for v in vectors]}


def test_embed_batch_uses_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport(
        [
            (200, _embed_payload([[1.0, 0.0]])),
            (200, _embed_payload([[0.0, 1.0], [0.5, 0.5]])),
        ]
    )
    with HttpEmbedBackend(_http_config(tmp_path), transport=transport) as backend:
        first = backend.embed(["a"])
        assert first.shape == (1, 2)
        # Batch of three with one already cached: exactly two uncached
        # computations go out.
        second = backend.embed(["a", "b", "c"])
    assert second.shape == (3, 2)
    sent = transport.requests[1][1]["input"]
    assert sent == ["b", "c"]
    # Three computations in two requests, each cached once.
    assert sum(len(body["input"]) for _, body, _ in transport.requests) == 3
    assert (tmp_path / "cache" / "vectors.f4").stat().st_size == 3 * (32 + 4 * 2)


def test_embed_dimension_drift_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport(
        [
            (200, _embed_payload([[1.0, 0.0]])),
            (200, _embed_payload([[1.0, 0.0, 0.0]])),
        ]
    )
    with HttpEmbedBackend(_http_config(tmp_path), transport=transport) as backend:
        backend.embed(["a"])
        with pytest.raises(BackendError, match="dimension"):
            backend.embed(["b"])


def test_embed_hit_is_read_back_from_the_store(tmp_path, monkeypatch):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport([(200, _embed_payload([[0.25, -1.5, 3.0]]))])
    with HttpEmbedBackend(_http_config(tmp_path), transport=transport) as backend:
        first = backend.embed(["a"])
    with HttpEmbedBackend(_http_config(tmp_path), transport=transport) as backend:
        assert np.array_equal(backend.embed(["a"]), first)
    assert len(transport.requests) == 1
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        "manifest.json", "vectors.f4",
    ]


@pytest.mark.parametrize(
    "data,message",
    [
        ([[1.0, 0.0]], "holds 1 vectors for 2 texts"),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "holds 3 vectors for 2 texts"),
        ([[1.0, 0.0], ["x", 1.0]], "not finite numbers"),
        ([[1.0, 0.0], None], "not finite numbers"),
        ([[1.0, 0.0], [[1.0], [0.0]]], "not finite numbers"),
        ([[], []], "not finite numbers"),
        ([[1.0, 0.0], [1.0, 0.0, 0.0]], "dimension drift"),
        ([[1.0, 0.0], [float("nan"), 0.0]], "not finite numbers"),
    ],
    ids=["short", "long", "string", "null", "nested", "empty", "drift", "nan"],
)
def test_bad_embeddings_response_raises_and_caches_nothing(tmp_path, monkeypatch, data, message):
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    transport = _Transport([(200, _embed_payload(data)), (200, _embed_payload([[1.0, 0.0]] * 2))])
    with HttpEmbedBackend(_http_config(tmp_path), transport=transport) as backend:
        with pytest.raises(BackendError, match=message):
            backend.embed(["a", "b"])
        assert not (tmp_path / "cache" / "manifest.json").exists()
        # Nothing was cached: the same texts go out again.
        assert backend.embed(["a", "b"]).shape == (2, 2)
    assert [r[1]["input"] for r in transport.requests] == [["a", "b"], ["a", "b"]]


def _bow_embeddings(requests: list):
    """A ``Transport`` that embeds with ``HashedBowEmbedder`` and records the
    texts of each request."""
    embedder = HashedBowEmbedder()

    def transport(url, body, headers, timeout):
        requests.append(body["input"])
        return 200, _embed_payload([v.tolist() for v in embedder.embed(body["input"])])

    return transport


def test_embed_sends_at_most_a_batch_per_request(tmp_path, monkeypatch):
    """The texts not cached go out in order, ``EMBED_BATCH`` to a request;
    the rows and the store equal those of one request for them all."""
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    texts = [f"page {i} revenue {i * 7 % 13}" for i in range(3 * EMBED_BATCH + 5)]
    cached = texts[10:20] + texts[100:101]
    rows, stores, sent = {}, {}, {}
    for batch in (EMBED_BATCH, len(texts)):
        monkeypatch.setattr(backends, "EMBED_BATCH", batch)
        config = _http_config(tmp_path / str(batch))
        sent[batch] = []
        with HttpEmbedBackend(config, transport=_bow_embeddings(sent[batch])) as backend:
            backend.embed(cached)
            rows[batch] = backend.embed(texts)
        stores[batch] = (config.cache_dir / "vectors.f4").read_bytes()
    missing = [text for text in texts if text not in cached]
    assert [len(request) for request in sent[EMBED_BATCH]] == [11, 64, 64, 58]
    assert sent[EMBED_BATCH][1:] == [
        missing[i : i + EMBED_BATCH] for i in range(0, len(missing), EMBED_BATCH)
    ]
    assert sent[len(texts)] == [cached, missing]
    assert rows[EMBED_BATCH].tobytes() == rows[len(texts)].tobytes()
    assert stores[EMBED_BATCH] == stores[len(texts)]


def test_failed_batch_keeps_the_batches_before_it(tmp_path, monkeypatch):
    """Each batch is cached once its response is checked, so a request that
    fails leaves the batches before it cached and sends none after it."""
    monkeypatch.setenv("MDQA_TEST_KEY", "k")
    texts = [f"text {i}" for i in range(2 * EMBED_BATCH + 1)]
    sent, failures = [], [400]
    good = _bow_embeddings(sent)

    def fails_second(url, body, headers, timeout):
        if len(sent) == 1 and failures:
            return failures.pop(), {"error": "bad request"}
        return good(url, body, headers, timeout)

    with HttpEmbedBackend(_http_config(tmp_path), transport=fails_second) as backend:
        with pytest.raises(BackendError, match="HTTP 400"):
            backend.embed(texts)
        assert sent == [texts[:EMBED_BATCH]]
        sent.clear()
        assert backend.embed(texts).shape == (len(texts), 512)
    assert sent == [texts[EMBED_BATCH : 2 * EMBED_BATCH], texts[-1:]]
