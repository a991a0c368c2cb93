from __future__ import annotations

import math
import random
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdqa.backends import (
    BackendConfig,
    BackendError,
    HashedBowEmbedder,
    HttpEmbedBackend,
    tokenize,
    token_slot,
)
from mdqa.corpus import DocumentCollection, DocumentFilter, Page, select_documents
from mdqa.retrieval import (
    EMBED_INPUT_MAX_CHARS,
    RANKING_MEMO_SIZE,
    text_key,
    CacheMismatchError,
    PageIndex,
    RetrievalError,
    ScoredPage,
    UnindexedPageError,
    build_index,
    expand_queries,
    merge_multiquery,
    retrieve_relevant_pages,
)

from conftest import make_doc


def _collection(page_texts: dict[str, list[str]]):
    docs = []
    for i, (doc_id, texts) in enumerate(sorted(page_texts.items())):
        pages = tuple(Page(n + 1, "", text) for n, text in enumerate(texts))
        docs.append(
            make_doc(doc_id, symbol=f"S{i:02d}", name=f"Company {i}", pages=pages)
        )
    return DocumentCollection(docs)


def _brute_force_cosine(query: str, text: str, dim: int = 512) -> float:
    """Independent cosine: sparse token-count dicts, no numpy index path."""
    def counts(s):
        c: Counter = Counter()
        for token in tokenize(s):
            c[token_slot(token, dim)] += 1
        return c

    q, p = counts(query), counts(text)
    dot = sum(q[slot] * p.get(slot, 0) for slot in q)
    nq = math.sqrt(sum(v * v for v in q.values()))
    np_ = math.sqrt(sum(v * v for v in p.values()))
    if nq == 0 or np_ == 0:
        return 0.0
    return dot / (nq * np_)


def _unit_rows(pages, embed_backend):
    """Float64 unit vectors of the embedder's rows for ``pages``, computed as
    ``build_index`` embeds a page and ``PageIndex`` normalizes its row."""
    texts = [f"{page.title}\n{page.content}"[:EMBED_INPUT_MAX_CHARS] for page in pages]
    rows = embed_backend.embed(texts).astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms > 0, norms, 1.0)[:, None]


def _reference_retrieve(query, docs, k, embed_backend):
    """The per-page Python loop that retrieval used before span scoring."""
    refs = [(doc.doc_id, page.page_number) for doc in docs for page in doc.pages]
    matrix = _unit_rows([page for doc in docs for page in doc.pages], embed_backend)
    q = np.asarray(embed_backend.embed([query])[0]).astype(np.float64)
    norm = np.linalg.norm(q)
    if norm > 0:
        q = q / norm
    # Each row reduced on its own, as the index scores it.
    scores = np.clip(np.einsum("ij,j->i", matrix, q), -1.0, 1.0)
    order = sorted(range(len(refs)), key=lambda i: (-scores[i], refs[i][0], refs[i][1]))
    return [ScoredPage(page_ref=refs[i], score=float(scores[i])) for i in order[:k]]


# ---------------------------------------------------------------------------
# Index building and caching
# ---------------------------------------------------------------------------


def test_index_has_one_entry_per_page():
    collection = _collection({"d1": ["alpha", "beta"], "d2": ["gamma"] * 8})
    index = build_index(collection, HashedBowEmbedder())
    assert len(index) == 10


def _embed_transport(requests: list):
    """A ``Transport`` that embeds with ``HashedBowEmbedder``, in process, and
    records each request's texts."""
    embedder = HashedBowEmbedder()

    def transport(url, body, headers, timeout):
        requests.append(body["input"])
        vectors = embedder.embed(body["input"])
        return 200, {"data": [{"embedding": v.tolist()} for v in vectors]}

    return transport


def _build_cached(collection, root, model="m", requests=None):
    """``build_index`` over an HTTP embedder whose vector cache is ``root``:
    the one place a page vector is cached."""
    config = BackendConfig(cache_dir=root, endpoint="http://localhost:9/v1", model=model)
    transport = _embed_transport([] if requests is None else requests)
    with HttpEmbedBackend(config, transport=transport) as backend:
        return build_index(collection, backend)


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("MDQA_API_KEY", "k")


def test_rebuild_with_cache_costs_nothing(tmp_path, api_key):
    collection = _collection({"d1": ["alpha one", "beta two"], "d2": ["gamma three"]})
    first, second = [], []
    _build_cached(collection, tmp_path, requests=first)
    assert sum(map(len, first)) == 3
    index = _build_cached(collection, tmp_path, requests=second)
    assert second == []
    assert len(index) == 3 and index.texts_embedded == 3


def test_one_edited_page_costs_one_computation(tmp_path, api_key):
    texts = {"d1": ["alpha one", "beta two"], "d2": ["gamma three"]}
    _build_cached(_collection(texts), tmp_path)
    texts["d1"][1] = "beta two EDITED"
    requests = []
    _build_cached(_collection(texts), tmp_path, requests=requests)
    assert requests == [["\nbeta two EDITED"]]


def test_cache_fingerprint_mismatch(tmp_path, api_key):
    collection = _collection({"d1": ["alpha"]})
    _build_cached(collection, tmp_path, model="m")
    with pytest.raises(CacheMismatchError):
        _build_cached(collection, tmp_path, model="other")


def test_cache_files_are_float32_records(tmp_path, api_key):
    collection = _collection({"d1": ["alpha", "beta two"], "d2": ["alpha"]})
    index = _build_cached(collection, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "vectors.f4"]
    # One record per distinct page text (title, newline, content), in the
    # order they were embedded: by key.
    texts = sorted({"\nalpha", "\nbeta two"}, key=text_key)
    record = 32 + 4 * index.embedding_dim
    data = (tmp_path / "vectors.f4").read_bytes()
    assert len(data) == len(texts) * record
    expected = HashedBowEmbedder().embed(texts)
    for i, text in enumerate(texts):
        key, row = data[i * record:i * record + 32], data[i * record + 32:(i + 1) * record]
        assert key == text_key(text)
        assert np.array_equal(np.frombuffer(row, dtype="<f4"), expected[i])


@st.composite
def _matrices(draw):
    """Float32 matrices of finite values, some rows all zero."""
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    matrix = draw(arrays(np.float32, (n, dim), elements=finite))
    matrix[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    return matrix


@settings(max_examples=300, deadline=None)
@given(vectors=_matrices())
def test_unit_rows_are_the_two_copy_quotient(vectors):
    """The index normalizes one float64 copy in place; its bytes are those
    of the quotient of two copies that it computed before."""
    norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
    want = vectors.astype(np.float64) / np.where(norms > 0, norms, 1.0)[:, None]
    before = vectors.tobytes()
    index = PageIndex([("d", i + 1) for i in range(len(vectors))], vectors)
    assert index._unit.dtype == np.float64
    assert index._unit.tobytes() == want.tobytes()
    assert vectors.tobytes() == before


@pytest.mark.parametrize("backend", ["hashed_bow", "http"])
def test_index_build_memory_does_not_grow_with_the_collection(
    clean_bundle, tmp_path, api_key, backend
):
    """On the 900-page default corpus, an index build holds at most 3 times
    the index's own vectors at its peak: the HTTP embedder holds one batch's
    reply at a time, and the rows are not copied more than the index needs."""
    collection, _ = clean_bundle
    assert collection.page_count == 900
    build_index(_collection({"d": ["warm up"]}), HashedBowEmbedder())
    if backend == "http":
        config = BackendConfig(cache_dir=tmp_path, endpoint="http://localhost:9/v1", model="m")
        embedder = HttpEmbedBackend(config, transport=_embed_transport([]))
    else:
        embedder = HashedBowEmbedder()
    tracemalloc.start()
    try:
        index = build_index(collection, embedder)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if backend == "http":
            embedder.close()
    assert peak < 3 * index._unit.nbytes, (peak, index._unit.nbytes)


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def test_retrieval_matches_brute_force_cosine():
    texts = {
        "d1": ["total employees 12,345 for the year", "revenue and expenses"],
        "d2": ["total employees of the company", "board of directors report"],
        "d3": ["unrelated content entirely", "more filler text"],
    }
    collection = _collection(texts)
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    query = "Total Employees"
    got = retrieve_relevant_pages(query, collection.documents, 6, index, embedder)
    expected = []
    for doc in collection.documents:
        for page in doc.pages:
            expected.append(
                ((doc.doc_id, page.page_number), _brute_force_cosine(query, "\n" + page.content))
            )
    expected.sort(key=lambda item: (-item[1], item[0][0], item[0][1]))
    assert [s.page_ref for s in got] == [ref for ref, _ in expected]
    for scored, (_, score) in zip(got, expected):
        assert scored.score == pytest.approx(score, abs=1e-9)


def test_unique_phrase_page_ranks_first():
    texts = {
        "d1": ["general discussion of operations"] * 14 + ["Total Employees 25,400"],
        "d2": ["irrelevant boilerplate"] * 10,
    }
    collection = _collection(texts)
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    result = retrieve_relevant_pages("Total Employees", collection.documents, 4, index, embedder)
    assert result[0].page_ref == ("d1", 15)


def test_k_larger_than_pool_returns_all():
    collection = _collection({"d1": ["a b c"] * 10})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    assert len(retrieve_relevant_pages("a", collection.documents, 100, index, embedder)) == 10


def test_identical_pages_tie_break_by_page_number():
    collection = _collection({"d1": ["same text", "same text", "other"]})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    result = retrieve_relevant_pages("same text", collection.documents, 2, index, embedder)
    assert [s.page_ref for s in result] == [("d1", 1), ("d1", 2)]


def test_empty_docs_empty_result():
    collection = _collection({"d1": ["x"]})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    assert retrieve_relevant_pages("q", [], 4, index, embedder) == []


def test_k_zero_rejected():
    collection = _collection({"d1": ["x"]})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    with pytest.raises(RetrievalError):
        retrieve_relevant_pages("q", collection.documents, 0, index, embedder)


def test_unindexed_page_rejected():
    small = _collection({"d1": ["x"]})
    embedder = HashedBowEmbedder()
    index = build_index(small, embedder)
    other = _collection({"d9": ["y"]})
    with pytest.raises(UnindexedPageError):
        retrieve_relevant_pages("q", other.documents, 1, index, embedder)


@pytest.mark.parametrize("page_numbers", [(1, 2, 3, 4), (1, 2), (1, 2, 4)])
def test_indexed_doc_id_with_other_pages_rejected(page_numbers):
    collection = _collection({"d1": ["alpha", "beta", "gamma"]})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    pages = tuple(Page(n, "", "alpha") for n in page_numbers)
    changed = replace(collection.documents[0], pages=pages)
    with pytest.raises(UnindexedPageError):
        retrieve_relevant_pages("alpha", [changed], 4, index, embedder)


def test_equal_document_outside_the_index_ranks_the_same():
    collection = _collection({"d1": ["alpha", "beta"], "d2": ["alpha beta", "gamma"]})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    copies = [replace(doc, pages=tuple(list(doc.pages))) for doc in collection.documents]
    assert copies[0].pages is not collection.documents[0].pages
    assert retrieve_relevant_pages("alpha", copies, 3, index, embedder) == retrieve_relevant_pages(
        "alpha", collection.documents, 3, index, embedder
    )


@pytest.mark.parametrize(
    "refs, documents, message",
    [
        ([("d1", 1), ("d2", 1), ("d1", 2)], (), "not contiguous"),
        ([("d1", 1), ("d1", 1), ("d2", 1)], (), "more than once"),
        (
            [("d1", 1), ("d1", 2), ("d2", 1)],
            (make_doc("d1", pages=(Page(1, "", "a"),)),),
            "does not match",
        ),
    ],
    ids=["interleaved", "duplicate", "documents-mismatch"],
)
def test_index_rejects_rows_it_cannot_span(refs, documents, message):
    vectors = np.eye(3, dtype=np.float32)
    with pytest.raises(RetrievalError, match=message):
        PageIndex(refs, vectors, documents=documents)


def test_scores_in_range_and_self_similarity():
    collection = _collection({"d1": ["alpha beta gamma delta"]})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    (vec,) = _unit_rows(collection.documents[0].pages, embedder)
    assert abs(float(vec @ vec) - 1.0) < 1e-9
    result = retrieve_relevant_pages("alpha beta gamma delta", collection.documents, 1, index, embedder)
    assert -1.0 <= result[0].score <= 1.0
    assert result[0].score == pytest.approx(1.0, abs=1e-9)


def test_restricting_docs_never_adds_pages():
    texts = {f"d{i}": [f"text number {i} alpha", "other words"] for i in range(6)}
    collection = _collection(texts)
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    subset = collection.documents[:2]
    ranked = retrieve_relevant_pages("alpha text", subset, 10, index, embedder)
    member_refs = {(d.doc_id, p.page_number) for d in subset for p in d.pages}
    assert all(s.page_ref in member_refs for s in ranked)
    # filter-then-rank equals rank-then-filter
    full = retrieve_relevant_pages("alpha text", collection.documents, 100, index, embedder)
    filtered = [s.page_ref for s in full if s.page_ref in member_refs]
    assert [s.page_ref for s in ranked] == filtered


def test_topk_prefix_property_random_queries():
    rng = random.Random(99)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    texts = {
        f"d{i}": [" ".join(rng.choices(words, k=6)) for _ in range(4)] for i in range(5)
    }
    collection = _collection(texts)
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    for _ in range(100):
        query = " ".join(rng.choices(words, k=3))
        full = retrieve_relevant_pages(query, collection.documents, 20, index, embedder)
        for k in (1, 3, 7, 15):
            prefix = retrieve_relevant_pages(query, collection.documents, k, index, embedder)
            assert [s.page_ref for s in prefix] == [s.page_ref for s in full[:k]]


_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)


@st.composite
def _collections(draw):
    # Pages draw their text from a small palette, so duplicate pages (and
    # with them exact score ties) are common. Documents come in any order,
    # so index rows need not follow (doc_id, page_number) order.
    palette = draw(st.lists(_texts, min_size=1, max_size=5))
    n_docs = draw(st.integers(1, 6))
    sorted_docs = _collection(
        {f"d{i}": draw(st.lists(st.sampled_from(palette), min_size=1, max_size=9))
         for i in range(n_docs)}
    ).documents
    return DocumentCollection(draw(st.permutations(sorted_docs)))


@settings(max_examples=300, deadline=None)
@given(collection=_collections(), query=_texts, data=st.data())
def test_matches_python_loop_reference(collection, query, data):
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    docs = list(collection.documents)
    symbols = data.draw(st.sets(st.sampled_from([d.stock_symbol for d in docs]), min_size=1))
    pool = select_documents(collection, DocumentFilter(stock_symbols=tuple(symbols)))
    if data.draw(st.booleans(), label="reversed"):
        pool = pool[::-1]
    n = sum(len(doc.pages) for doc in pool)
    k = data.draw(st.sampled_from([max(n - 1, 1), n, n + 3]), label="k")

    got = retrieve_relevant_pages(query, pool, k, index, embedder)
    want = _reference_retrieve(query, pool, k, embedder)
    assert [(s.page_ref, s.score) for s in got] == [(s.page_ref, s.score) for s in want]


class _FixedEmbedder:
    """Embeds every text as one fixed vector."""

    def __init__(self, vector):
        self.vector = vector

    def embed(self, texts):
        return np.stack([self.vector] * len(texts))


@st.composite
def _dense_indexes(draw):
    """A ``PageIndex`` of dense random rows, some of them repeated so that
    exact ties occur, with documents laid out in any order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = rng.standard_normal((draw(st.integers(1, 12)), 512)).astype(np.float32)
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    docs = [
        make_doc(f"d{i}", pages=tuple(Page(n + 1, "", "") for n in range(size)))
        for i, size in enumerate(sizes)
    ]
    docs = draw(st.permutations(docs))
    refs = [(doc.doc_id, page.page_number) for doc in docs for page in doc.pages]
    vectors = palette[rng.integers(0, len(palette), len(refs))]
    index = PageIndex(refs, vectors, documents=tuple(docs))
    return index, docs, rng.standard_normal(512).astype(np.float32)


@settings(max_examples=200, deadline=None)
@given(world=_dense_indexes(), data=st.data())
def test_scores_do_not_depend_on_pool_order_or_split(world, data):
    """A page's score is a function of (query, page): permuting the pool, so
    that its rows fall into other runs, or ranking a sub-pool gives the same
    (page_ref, score) list as filtering the whole collection's ranking."""
    index, docs, query_vec = world
    embedder = _FixedEmbedder(query_vec)
    whole = retrieve_relevant_pages("q", tuple(docs), len(index), index, embedder)
    pool = data.draw(st.lists(st.sampled_from(docs), min_size=1, unique_by=lambda d: d.doc_id))
    members = {doc.doc_id for doc in pool}
    want = [(s.page_ref, s.score) for s in whole if s.page_ref[0] in members]
    for shuffled in (pool, data.draw(st.permutations(pool)), pool[::-1]):
        got = retrieve_relevant_pages("q", shuffled, len(index), index, embedder)
        assert [(s.page_ref, s.score) for s in got] == want
    keys = [(-score, ref) for ref, score in want]
    assert keys == sorted(keys)


def _counting_rank_all(index, monkeypatch):
    ranked = []
    real = index._rank_all

    def rank_all(q, runs):
        ranked.append(runs)
        return real(q, runs)

    monkeypatch.setattr(index, "_rank_all", rank_all)
    return ranked


def test_smaller_k_is_the_prefix_served_from_the_memo(monkeypatch):
    rng = random.Random(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    collection = _collection(
        {f"d{i}": [" ".join(rng.choices(words, k=5)) for _ in range(6)] for i in range(4)}
    )
    queries = []

    class QueryLog(HashedBowEmbedder):
        def embed(self, texts):
            queries.extend(texts)
            return super().embed(texts)

    index = build_index(collection, HashedBowEmbedder())
    embedder = QueryLog()
    ranked = _counting_rank_all(index, monkeypatch)
    pool = collection.documents[2:0:-1]  # two runs
    for docs in (collection.documents, pool):
        full = retrieve_relevant_pages("alpha beta", docs, 100, index, embedder)
        for k in (1, 4, 7, 16):
            got = retrieve_relevant_pages("alpha beta", docs, k, index, embedder)
            assert got == full[:k]
    assert ranked == [((0, 24),), ((12, 18), (6, 12))]
    # Each call embedded its query.
    assert queries == ["alpha beta"] * 10


def test_memo_holds_at_most_its_bound(monkeypatch):
    collection = _collection({"d1": ["alpha beta", "gamma"], "d2": ["delta alpha"]})
    index = build_index(collection, HashedBowEmbedder())
    ranked = _counting_rank_all(index, monkeypatch)
    queries = [_FixedEmbedder(np.eye(512)[i]) for i in range(RANKING_MEMO_SIZE + 5)]
    for query in queries:
        retrieve_relevant_pages("q", collection.documents, 2, index, query)
    assert len(index._rankings) == RANKING_MEMO_SIZE
    assert len(ranked) == len(queries)
    retrieve_relevant_pages("q", collection.documents, 3, index, queries[-1])
    assert len(ranked) == len(queries)  # the newest is still held
    retrieve_relevant_pages("q", collection.documents, 3, index, queries[0])
    assert len(ranked) == len(queries) + 1  # the oldest was evicted
    assert len(index._rankings) == RANKING_MEMO_SIZE


def test_memo_from_many_threads():
    """Eight threads share one index's memo: every ranking equals the
    reference loop and the memo stays within its bound."""
    rng = random.Random(8)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    collection = _collection(
        {f"d{i}": [" ".join(rng.choices(words, k=4)) for _ in range(5)] for i in range(6)}
    )
    queries = [" ".join(rng.choices(words, k=2)) for _ in range(3 * RANKING_MEMO_SIZE)]
    pools = [collection.documents, collection.documents[::-2], collection.documents[1:4]]
    work = [(q, pool, k) for q in queries for pool in pools for k in (1, 5, 30)]
    index = build_index(collection, HashedBowEmbedder())
    embedder = HashedBowEmbedder()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(
                lambda item: retrieve_relevant_pages(*item, index, embedder), work, timeout=120
            ))
    finally:
        sys.setswitchinterval(switch)
    assert got == [_reference_retrieve(*item, embedder) for item in work]
    assert len(index._rankings) <= RANKING_MEMO_SIZE


# ---------------------------------------------------------------------------
# Multi-query expansion and merging
# ---------------------------------------------------------------------------


class _ScriptedChat:
    def __init__(self, reply):
        self.reply = reply
        self.calls = 0

    def chat(self, messages, **params):
        self.calls += 1
        return self.reply


def test_expand_returns_original_first():
    chat = _ScriptedChat("second query\nthird query")
    queries = expand_queries("first question", chat, 3)
    assert queries == ["first question", "second query", "third query"]
    assert chat.calls == 1


def test_expand_n1_is_just_the_question():
    chat = _ScriptedChat("ignored alt")
    assert expand_queries("the question", chat, 1) == ["the question"]


def test_expand_dedupes_and_caps():
    chat = _ScriptedChat("dup\ndup\ndup")
    queries = expand_queries("q", chat, 3)
    assert queries == ["q", "dup"]
    assert len(queries) <= 3


def test_expand_rejects_bad_n():
    with pytest.raises(RetrievalError):
        expand_queries("q", _ScriptedChat(""), 0)


def test_merge_disjoint():
    a = [ScoredPage(("d1", 1), 0.9), ScoredPage(("d1", 2), 0.8)]
    b = [ScoredPage(("d2", 1), 0.85), ScoredPage(("d2", 2), 0.7)]
    merged = merge_multiquery([a, b], 4)
    assert [s.page_ref for s in merged] == [("d1", 1), ("d2", 1), ("d1", 2), ("d2", 2)]


def test_merge_keeps_max_score():
    a = [ScoredPage(("d1", 1), 0.9)]
    b = [ScoredPage(("d1", 1), 0.7)]
    merged = merge_multiquery([a, b], 4)
    assert len(merged) == 1
    assert merged[0].score == 0.9


def test_merge_matches_brute_force_union_max():
    rng = random.Random(5)
    lists = []
    for _ in range(3):
        refs = [(f"d{rng.randint(1, 3)}", rng.randint(1, 4)) for _ in range(5)]
        scored = sorted(
            {ref: round(rng.random(), 3) for ref in refs}.items(),
            key=lambda item: (-item[1], item[0][0], item[0][1]),
        )
        lists.append([ScoredPage(r, s) for r, s in scored])
    merged = merge_multiquery(lists, 6)
    brute: dict = {}
    for ranking in lists:
        for s in ranking:
            brute[s.page_ref] = max(brute.get(s.page_ref, -2.0), s.score)
    expected = sorted(brute.items(), key=lambda item: (-item[1], item[0][0], item[0][1]))[:6]
    assert [(s.page_ref, s.score) for s in merged] == expected
    if merged:
        top = merged[0]
        assert all(top.score >= s.score for s in merged)
