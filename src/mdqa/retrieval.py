"""Page-level vector index and top-k cosine retrieval.

Scoring is an exact cosine full scan; at benchmark scale (a few thousand
pages) approximate search buys nothing and costs determinism. The index lives
in memory and is built by each process.

An index is built from one ``DocumentCollection`` and ranks pools of that
collection's own documents. Its rows are the collection's pages in collection
order, float64 unit vectors, so each document is one contiguous span of rows
and the whole collection is the one run ``(0, len(index))``. Any other pool
becomes runs of rows: spans of documents adjacent in both the pool and the
collection merge into one run. Each run is scored with
``np.einsum("ij,j->i")`` over a view of the matrix, which reduces every row
on its own, so a page's score depends only on the query vector and its row:
not on the pool, its order or how it splits into runs, and no BLAS thread is
involved. One ``np.lexsort`` on (-score, position in (doc_id, page_number)
order) then ranks the pool; the positions are computed once when the index
is built.

A ranking is a function of (query vector, runs), so the index keeps the
whole sorted ranking of its last ``RANKING_MEMO_SIZE`` (query vector, runs)
pairs and serves any k as a prefix of it: a question's k sweep ranks its
query once. The ``ScoredPage``s of a kept ranking are built once too, as far
as the largest k asked of it, and each call returns a slice of them.

A query text is embedded once while it stays in a ``QueryMemo``: ``mdqa run``
puts one between its embedder and every run's meter, so a run still counts
each embed call it makes, but the question text that two systems and every
k of a sweep retrieve with reaches the embedder once.

numpy is imported inside the functions that compute on vectors, so a command
that only reads a session (``eval``, ``cost``, ``trace``) starts without it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .backends import text_key
from .corpus import Document, DocumentCollection
from .records import PageHandle

EMBED_INPUT_MAX_CHARS = 6000
# Whole rankings a PageIndex keeps, least recently used out first. `mdqa run`
# runs each question's k sweep back to back, so a ranking is reused within a
# few calls of being computed.
RANKING_MEMO_SIZE = 32
# One-text embeddings a QueryMemo keeps, least recently used out first. Most
# repeats of a query text come within a few calls, but a query about one
# (company, metric, year) comes back with a later question on the same fact:
# at most 293 other texts apart on the ROADMAP baseline session (338 distinct
# texts, --jobs 1 or 4), 241 on docs_pager_http and 134 on clean_sweep.
QUERY_MEMO_SIZE = 512
# Rows a PageIndex casts and normalizes at a time while it is built: the
# build's temporaries are one block's (256 KB at 512 dimensions), not the
# whole matrix's.
NORMALIZE_BLOCK_ROWS = 64


class RetrievalError(Exception):
    pass


class UnindexedPageError(RetrievalError):
    pass


@dataclass(frozen=True)
class ScoredPage:
    page_ref: tuple[str, int]
    score: float


class PageIndex:
    """One embedding per page of a collection, row i for its i-th page in
    collection order. The vectors are immutable after build and scoring only
    reads them; the one thing that changes is a memo of the last
    ``RANKING_MEMO_SIZE`` whole rankings and their ``ScoredPage`` prefixes,
    keyed by (query vector, runs) and guarded by a lock, so threads may share
    an index.

    A pool ranks only documents of ``collection``, the objects themselves:
    anything else raises ``UnindexedPageError``, an equal copy too.
    ``texts_embedded`` is how many texts the build sent to its embedder.
    """

    def __init__(self, collection: DocumentCollection, vectors: np.ndarray, texts_embedded: int):
        import numpy as np

        # doc_id -> (the indexed document, first row, end row)
        self._spans: dict[str, tuple[Document, int, int]] = {}
        refs: list[tuple[str, int]] = []
        for doc in collection.documents:
            self._spans[doc.doc_id] = (doc, len(refs), len(refs) + len(doc.pages))
            refs += [(doc.doc_id, page.page_number) for page in doc.pages]
        if len(refs) != vectors.shape[0]:
            raise RetrievalError("index arrays disagree in length")
        self.texts_embedded = texts_embedded
        self.embedding_dim = int(vectors.shape[1])
        # One float64 matrix, filled from the input, checked and normalized
        # in place a block of rows at a time, so no temporary spans the whole
        # matrix; cosine becomes a dot product. The norm reduces each row on
        # its own, so the bytes are those of the whole-matrix quotient.
        unit = np.empty(vectors.shape, dtype=np.float64)
        for start in range(0, len(unit), NORMALIZE_BLOCK_ROWS):
            block = unit[start:start + NORMALIZE_BLOCK_ROWS]
            block[...] = vectors[start:start + NORMALIZE_BLOCK_ROWS]
            if not np.all(np.isfinite(block)):
                raise RetrievalError("index contains non-finite vectors")
            norms = np.linalg.norm(block, axis=1)
            block /= np.where(norms > 0, norms, 1.0)[:, None]
        self._unit = unit
        # A plan's view of each page, built once.
        self._handles = {
            (d.doc_id, p.page_number): PageHandle(d.doc_id, p.page_number, p.title, p.content)
            for d in collection.documents for p in d.pages
        }
        # Row -> position in (doc_id, page_number) order, the tie-break key.
        standard = sorted(range(len(refs)), key=refs.__getitem__)
        self._standard_refs = [refs[i] for i in standard]
        self._standard_pos = np.empty(len(refs), dtype=np.int64)
        self._standard_pos[standard] = np.arange(len(refs))
        self._documents = collection.documents  # the pool that is one run
        # (query vector bytes, runs) -> (positions, scores, ScoredPage
        # prefix), best first.
        self._rankings: OrderedDict[tuple, tuple[np.ndarray, np.ndarray, list]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._standard_refs)

    def page_handles(self, refs: Iterable[tuple[str, int]]) -> list[PageHandle]:
        """The handles of pages of the documents the index was built from."""
        return [self._handles[ref] for ref in refs]

    def row_runs(self, docs: Sequence[Document]) -> tuple[tuple[int, int], ...]:
        """The pool's rows as ``(start, stop)`` runs in pool order; spans of
        documents adjacent in both the pool and the collection share one run,
        and a document the pool holds twice is counted once.

        Raises ``UnindexedPageError`` unless each pool document is one of the
        indexed collection's own documents.
        """
        if docs is self._documents:
            return ((0, len(self)),)
        runs: list[tuple[int, int]] = []
        seen: set[str] = set()
        for doc in docs:
            indexed, start, stop = self._spans.get(doc.doc_id, (None, 0, 0))
            if indexed is not doc:
                raise UnindexedPageError(
                    f"document {doc.doc_id!r} is not one of the indexed collection's documents"
                )
            if start == stop or doc.doc_id in seen:
                continue
            seen.add(doc.doc_id)
            if runs and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], stop)
            else:
                runs.append((start, stop))
        return tuple(runs)

    def rank(
        self, query_vec: np.ndarray, runs: tuple[tuple[int, int], ...], k: int
    ) -> list[ScoredPage]:
        """Top-k of the rows in ``runs`` by cosine to ``query_vec``: the first
        k of the pool's whole ranking, which is computed once per (query
        vector, runs) while it stays in the memo."""
        import numpy as np

        q = np.asarray(query_vec, dtype=np.float64)
        key = (q.tobytes(), runs)
        with self._lock:
            ranked = self._rankings.get(key)
            if ranked is not None:
                self._rankings.move_to_end(key)
                return self._prefix(ranked, k)
        positions, scores = self._rank_all(q, runs)
        with self._lock:
            ranked = self._rankings.setdefault(key, (positions, scores, []))
            if len(self._rankings) > RANKING_MEMO_SIZE:
                self._rankings.popitem(last=False)
            return self._prefix(ranked, k)

    def _prefix(self, ranked: tuple, k: int) -> list[ScoredPage]:
        """The first k of a kept ranking, extending its ``ScoredPage``
        prefix as far as k first. The caller holds the lock."""
        positions, scores, prefix = ranked
        n = len(prefix)
        if n < k and n < len(positions):
            refs = self._standard_refs
            prefix += [
                ScoredPage(page_ref=refs[p], score=s)
                for p, s in zip(positions[n:k].tolist(), scores[n:k].tolist())
            ]
        return prefix[:k]

    def _rank_all(
        self, q: np.ndarray, runs: tuple[tuple[int, int], ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions and scores of every row in ``runs``, best first."""
        import numpy as np

        norm = math.sqrt(q.dot(q))  # np.linalg.norm(q), without its overhead
        if norm > 0:
            q = q / norm
        scores = np.concatenate([np.einsum("ij,j->i", self._unit[a:b], q) for a, b in runs])
        positions = np.concatenate([self._standard_pos[a:b] for a, b in runs])
        np.minimum(scores, 1.0, out=scores)  # clip to [-1, 1] in place
        np.maximum(scores, -1.0, out=scores)
        order = np.lexsort((positions, -scores))
        return positions[order], scores[order]


class QueryMemo:
    """An embedder that keeps the rows of its one-text calls, by ``text_key``
    (not the text, which a plan may make long): the last ``QUERY_MEMO_SIZE``
    texts, least recently used out first, behind a lock so threads may share
    it. A multi-text call (an index build) and a call that raises pass
    through and keep nothing. A kept row is returned to every caller of its
    text, so it is read-only."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self._rows: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def embed(self, texts: list[str]) -> np.ndarray:
        if len(texts) != 1:
            return self.backend.embed(texts)
        key = text_key(texts[0])
        with self._lock:
            rows = self._rows.get(key)
            if rows is not None:
                self._rows.move_to_end(key)
                return rows
        rows = self.backend.embed(texts)
        rows.setflags(write=False)
        with self._lock:
            self._rows[key] = rows
            if len(self._rows) > QUERY_MEMO_SIZE:
                self._rows.popitem(last=False)
        return rows


def build_index(collection: DocumentCollection, embed_backend) -> PageIndex:
    """Embed every page (title + newline + content, truncated) into an index.

    Each distinct page text is embedded once, and the texts go to the backend
    in ``text_key`` order in one call, so a caching backend sees the same
    requests whatever the collection's order. The backend's rows are freed
    once the pages' rows are gathered from them, before the index is built.
    """
    texts = [
        f"{page.title}\n{page.content}"[:EMBED_INPUT_MAX_CHARS]
        for doc in collection.documents for page in doc.pages
    ]
    keys = [text_key(text) for text in texts]
    by_key = dict(zip(keys, texts))
    ordered = sorted(by_key)
    embedded = embed_backend.embed([by_key[key] for key in ordered])
    row_of = {key: i for i, key in enumerate(ordered)}
    vectors = embedded[[row_of[key] for key in keys]]
    del embedded
    return PageIndex(collection, vectors, len(ordered))


def retrieve_relevant_pages(
    query: str,
    docs: Sequence[Document],
    k: int,
    index: PageIndex,
    embed_backend,
) -> list[ScoredPage]:
    """Top-k pages among ``docs`` by cosine to the query embedding.

    Sorted by (score desc, doc_id asc, page_number asc); returns the whole
    pool when it holds fewer than k pages. An empty docs list yields an empty
    result. Raises ``UnindexedPageError`` when a document is not one of the
    indexed collection's own.
    """
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    runs = index.row_runs(docs)
    if not runs:
        return []
    return index.rank(embed_backend.embed([query])[0], runs, k)


def expand_queries(question: str, chat_backend, n: int) -> list[str]:
    """Reformulate a question into up to ``n`` retrieval queries.

    The original question always comes first. The backend is asked once for
    alternatives; duplicates are dropped and the reply is read only until
    ``n`` queries are held (never padded with invented queries).
    """
    if n < 1:
        raise RetrievalError(f"n must be >= 1, got {n}")
    from .prompts import load_pack

    pack = load_pack("multi_query_rag")
    messages = [
        {"role": "system", "content": pack.render("expand_system")},
        {"role": "user", "content": pack.render("expand_user", question=question, n=max(n - 1, 1))},
    ]
    reply = chat_backend.chat(messages)
    queries = {question: None}
    for line in reply.splitlines():
        if len(queries) >= n:
            break
        line = line.strip().lstrip("-*0123456789. ").strip()
        if line:
            queries[line] = None
    return list(queries)


def merge_multiquery(results: list[list[ScoredPage]], k: int) -> list[ScoredPage]:
    """Union per-query rankings, keeping each page's maximum score, re-sorted
    by the standard order and truncated to k."""
    best: dict[tuple[str, int], float] = {}
    for ranking in results:
        for scored in ranking:
            prev = best.get(scored.page_ref)
            if prev is None or scored.score > prev:
                best[scored.page_ref] = scored.score
    merged = sorted(best.items(), key=lambda item: (-item[1], item[0][0], item[0][1]))
    return [ScoredPage(page_ref=ref, score=score) for ref, score in merged[:k]]
