from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqa.backends import BackendError, HashedBowEmbedder, tokenize, token_slot
from mdqa.corpus import DocumentCollection, DocumentFilter, Page, select_documents
from mdqa.retrieval import (
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


def _reference_retrieve(query, docs, k, index, embed_backend):
    """The per-page Python loop that retrieval used before span scoring."""
    refs = [(doc.doc_id, page.page_number) for doc in docs for page in doc.pages]
    matrix = np.stack([index.unit_vector(ref) for ref in refs])
    q = np.asarray(embed_backend.embed([query])[0]).astype(np.float64)
    norm = np.linalg.norm(q)
    if norm > 0:
        q = q / norm
    scores = np.clip(matrix @ q, -1.0, 1.0)
    order = sorted(range(len(refs)), key=lambda i: (-scores[i], refs[i][0], refs[i][1]))
    return [ScoredPage(page_ref=refs[i], score=float(scores[i])) for i in order[:k]]


# ---------------------------------------------------------------------------
# Index building and caching
# ---------------------------------------------------------------------------


def test_index_has_one_entry_per_page():
    collection = _collection({"d1": ["alpha", "beta"], "d2": ["gamma"] * 8})
    index = build_index(collection, HashedBowEmbedder())
    assert len(index) == 10


def test_rebuild_with_cache_costs_nothing(tmp_path):
    collection = _collection({"d1": ["alpha one", "beta two"], "d2": ["gamma three"]})
    first = HashedBowEmbedder()
    build_index(collection, first, cache_dir=tmp_path)
    assert first.compute_count == 3
    second = HashedBowEmbedder()
    index = build_index(collection, second, cache_dir=tmp_path)
    assert second.compute_count == 0
    assert len(index) == 3


def test_one_edited_page_costs_one_computation(tmp_path):
    texts = {"d1": ["alpha one", "beta two"], "d2": ["gamma three"]}
    build_index(_collection(texts), HashedBowEmbedder(), cache_dir=tmp_path)
    texts["d1"][1] = "beta two EDITED"
    embedder = HashedBowEmbedder()
    build_index(_collection(texts), embedder, cache_dir=tmp_path)
    assert embedder.compute_count == 1


def test_cache_fingerprint_mismatch(tmp_path):
    collection = _collection({"d1": ["alpha"]})
    build_index(collection, HashedBowEmbedder(dim=512), cache_dir=tmp_path)
    with pytest.raises(CacheMismatchError):
        build_index(collection, HashedBowEmbedder(dim=64), cache_dir=tmp_path)


def test_cache_files_are_float32_records(tmp_path):
    collection = _collection({"d1": ["alpha"]})
    index = build_index(collection, HashedBowEmbedder(), cache_dir=tmp_path)
    vec_files = list(tmp_path.glob("*.vec"))
    assert len(vec_files) == 1
    raw = np.frombuffer(vec_files[0].read_bytes(), dtype="<f4")
    assert raw.shape[0] == index.embedding_dim


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
        PageIndex(refs, vectors, ["a", "b", "c"], "test", documents=documents)


def test_scores_in_range_and_self_similarity():
    collection = _collection({"d1": ["alpha beta gamma delta"]})
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    vec = index.unit_vector(("d1", 1))
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


# Scores are sums of 512 products of unit-vector entries; a changed summation
# order moves them by at most a few float64 ulps.
_SCORE_TOL = 1e-12
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
    want = _reference_retrieve(query, pool, k, index, embedder)
    positions = [docs.index(doc) for doc in pool]
    if positions == list(range(positions[0], positions[0] + len(pool))):
        # One run of rows in index order: the same mat-vec, so exact.
        assert [(s.page_ref, s.score) for s in got] == [(s.page_ref, s.score) for s in want]
        return
    # Otherwise BLAS groups the rows differently, and a score can move in
    # its last bits; ranks may then differ only among near-ties.
    assert len(got) == len(want) == min(k, n)
    reference = {s.page_ref: s.score for s in _reference_retrieve(query, pool, n, index, embedder)}
    for scored in got:
        assert scored.score == pytest.approx(reference[scored.page_ref], abs=_SCORE_TOL)
    assert sorted((reference[s.page_ref] for s in got), reverse=True) == pytest.approx(
        [s.score for s in want], abs=_SCORE_TOL
    )
    keys = [(-s.score, s.page_ref) for s in got]
    assert keys == sorted(keys)


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
