"""Page-level vector index and top-k cosine retrieval.

Scoring is an exact cosine full scan; at benchmark scale (a few thousand
pages) approximate search buys nothing and costs determinism. The index lives
in memory and is built by each process. The HTTP embedder, whose vectors cost
a request, caches them in a ``VectorStore``: a manifest pinning the backend
fingerprint and dimension, and one append-only file of fixed-size records
keyed by the sha256 of the embedded text.

In memory the index holds float64 unit vectors, and each document's pages
are one contiguous span of rows. A pool of documents becomes runs of rows:
spans of documents adjacent in both the pool and the index merge into one
run, and the whole collection the index was built from is one run computed
at build time. Each run is scored with ``np.einsum("ij,j->i")`` over a view
of the matrix, which reduces every row on its own, so a page's score depends
only on the query vector and its row: not on the pool, its order or how it
splits into runs, and no BLAS thread is involved. One ``np.lexsort`` on
(-score, position in (doc_id, page_number) order) then ranks the pool; the
positions are computed once when the index is built.

A ranking is a function of (query vector, runs), so the index keeps the
whole sorted ranking of its last ``RANKING_MEMO_SIZE`` (query vector, runs)
pairs and serves any k as a prefix of it: a question's k sweep embeds its
query once per run but ranks it once.

numpy is imported inside the functions that compute on vectors, so a command
that only reads a session (``eval``, ``cost``, ``trace``) starts without it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .corpus import Document, DocumentCollection
from .files import AppendLog, Closable, read_json, write_json
from .planlang import PageHandle

EMBED_INPUT_MAX_CHARS = 6000
# Whole rankings a PageIndex keeps, least recently used out first. `mdqa run`
# runs each question's k sweep back to back, so a ranking is reused within a
# few calls of being computed.
RANKING_MEMO_SIZE = 32


class RetrievalError(Exception):
    pass


class UnindexedPageError(RetrievalError):
    pass


class CacheMismatchError(RetrievalError):
    """Cache manifest disagrees with the embedding backend in use."""


@dataclass(frozen=True)
class ScoredPage:
    page_ref: tuple[str, int]
    score: float


class PageIndex:
    """One embedding per page of a collection. The vectors are immutable
    after build and scoring only reads them; the one thing that changes is a
    memo of the last ``RANKING_MEMO_SIZE`` whole rankings, keyed by (query
    vector, runs) and guarded by a lock, so threads may share an index.

    Each document's pages must be one contiguous span of rows, as
    ``build_index`` lays them out. A pool document that is one of
    ``documents`` (the objects the index was built from) is matched to its
    span by identity of its ``pages`` tuple; any other document by comparing
    page numbers. A pool that is ``documents`` itself reuses its runs.

    ``texts_embedded`` is how many texts the build sent to its embedder.
    """

    def __init__(
        self,
        refs: list[tuple[str, int]],
        vectors: np.ndarray,
        documents: Sequence[Document] = (),
        texts_embedded: int = 0,
    ):
        import numpy as np

        if len(refs) != vectors.shape[0]:
            raise RetrievalError("index arrays disagree in length")
        if not np.all(np.isfinite(vectors)):
            raise RetrievalError("index contains non-finite vectors")
        self.refs = list(refs)
        self.texts_embedded = texts_embedded
        self.embedding_dim = int(vectors.shape[1])
        # One float64 copy, normalized in place; cosine becomes a dot product.
        unit = vectors.astype(np.float64)
        norms = np.linalg.norm(unit, axis=1)
        unit /= np.where(norms > 0, norms, 1.0)[:, None]
        self._unit = unit
        self._row: dict[tuple[str, int], int] = {ref: i for i, ref in enumerate(refs)}
        if len(self._row) != len(self.refs):
            raise RetrievalError("index holds a page ref more than once")
        # doc_id -> (first row, end row, page numbers in row order)
        self._spans: dict[str, tuple[int, int, list[int]]] = {}
        start = 0
        for doc_id, group in itertools.groupby(self.refs, key=lambda ref: ref[0]):
            if doc_id in self._spans:
                raise RetrievalError(f"pages of document {doc_id!r} are not contiguous rows")
            numbers = [page_number for _, page_number in group]
            self._spans[doc_id] = (start, start + len(numbers), numbers)
            start += len(numbers)
        self._indexed_pages: dict[str, tuple] = {}
        for doc in documents:
            span = self._spans.get(doc.doc_id)
            if span is None or [p.page_number for p in doc.pages] != span[2]:
                raise RetrievalError(f"document {doc.doc_id!r} does not match the index")
            self._indexed_pages[doc.doc_id] = doc.pages
        # A plan's view of each page of ``documents``, built once.
        self._handles = {
            (d.doc_id, p.page_number): PageHandle(d.doc_id, p.page_number, p.title, p.content)
            for d in documents for p in d.pages
        }
        # Row -> position in (doc_id, page_number) order, the tie-break key.
        standard = sorted(range(len(self.refs)), key=self.refs.__getitem__)
        self._standard_refs = [self.refs[i] for i in standard]
        self._standard_pos = np.empty(len(self.refs), dtype=np.int64)
        self._standard_pos[standard] = np.arange(len(self.refs))
        # The pool of all the documents the index was built from, and its runs.
        pool = tuple(documents)
        self._documents = None  # no shortcut while its runs are computed
        self._documents_runs = self.row_runs(pool)
        self._documents = pool
        # (query vector bytes, runs) -> (positions, scores), best first.
        self._rankings: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.refs)

    def row(self, page_ref: tuple[str, int]) -> int:
        try:
            return self._row[page_ref]
        except KeyError:
            raise UnindexedPageError(f"page {page_ref!r} is not in the index") from None

    def page_handles(self, refs: Iterable[tuple[str, int]]) -> list[PageHandle]:
        """The handles of pages of the documents the index was built from."""
        return [self._handles[ref] for ref in refs]

    def row_runs(self, docs: Sequence[Document]) -> tuple[tuple[int, int], ...]:
        """The pool's rows as ``(start, stop)`` runs in pool order; spans of
        documents adjacent in both the pool and the index share one run.

        Raises ``UnindexedPageError`` unless each pool document holds exactly
        the pages indexed under its doc_id.
        """
        if docs is self._documents:
            return self._documents_runs
        runs: list[tuple[int, int]] = []
        for doc in docs:
            if not doc.pages:
                continue
            span = self._spans.get(doc.doc_id)
            if doc.pages is not self._indexed_pages.get(doc.doc_id):
                numbers = [p.page_number for p in doc.pages]
                if span is None or numbers != span[2]:
                    for number in numbers:
                        self.row((doc.doc_id, number))
                    raise UnindexedPageError(
                        f"document {doc.doc_id!r} has pages {numbers}, "
                        f"the index holds {span[2]}"
                    )
            start, stop, _ = span
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
        if ranked is None:
            ranked = self._rank_all(q, runs)
            with self._lock:
                self._rankings[key] = ranked
                if len(self._rankings) > RANKING_MEMO_SIZE:
                    self._rankings.popitem(last=False)
        positions, scores = ranked
        refs = self._standard_refs
        return [
            ScoredPage(page_ref=refs[p], score=s)
            for p, s in zip(positions[:k].tolist(), scores[:k].tolist())
        ]

    def _rank_all(
        self, q: np.ndarray, runs: tuple[tuple[int, int], ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions and scores of every row in ``runs``, best first."""
        import numpy as np

        norm = math.sqrt(q.dot(q))  # np.linalg.norm(q), without its overhead
        if norm > 0:
            q = q / norm
        if len(runs) == 1:
            (start, stop), = runs
            scores = np.einsum("ij,j->i", self._unit[start:stop], q)
            positions = self._standard_pos[start:stop]
        else:
            scores = np.concatenate([np.einsum("ij,j->i", self._unit[a:b], q) for a, b in runs])
            positions = np.concatenate([self._standard_pos[a:b] for a, b in runs])
        np.minimum(scores, 1.0, out=scores)  # clip to [-1, 1] in place
        np.maximum(scores, -1.0, out=scores)
        order = np.lexsort((positions, -scores))
        return positions[order], scores[order]


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


def build_index(collection: DocumentCollection, embed_backend) -> PageIndex:
    """Embed every page (title + newline + content, truncated) into an index.

    Each distinct page text is embedded once, and the texts go to the backend
    in ``text_key`` order in one call, so a caching backend sees the same
    requests whatever the collection's order. The backend's rows are freed
    once the pages' rows are gathered from them, before the index is built.
    """
    texts: list[str] = []
    refs: list[tuple[str, int]] = []
    for doc in collection.documents:
        for page in doc.pages:
            refs.append((doc.doc_id, page.page_number))
            texts.append(f"{page.title}\n{page.content}"[:EMBED_INPUT_MAX_CHARS])
    keys = [text_key(text) for text in texts]
    by_key = dict(zip(keys, texts))
    ordered = sorted(by_key)
    embedded = embed_backend.embed([by_key[key] for key in ordered])
    row_of = {key: i for i, key in enumerate(ordered)}
    vectors = embedded[[row_of[key] for key in keys]]
    del embedded
    return PageIndex(refs, vectors, documents=collection.documents, texts_embedded=len(ordered))


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
    result. Raises ``UnindexedPageError`` when a document's pages are not
    exactly those indexed under its doc_id.
    """
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    runs = index.row_runs(docs)
    if not runs:
        return []
    return index.rank(embed_backend.embed([query])[0], runs, k)


def expand_queries(question: str, chat_backend, n: int, prompt_pack=None) -> list[str]:
    """Reformulate a question into up to ``n`` retrieval queries.

    The original question always comes first. The backend is asked once for
    alternatives; duplicates are dropped and the list is truncated to ``n``
    (never padded with invented queries).
    """
    if n < 1:
        raise RetrievalError(f"n must be >= 1, got {n}")
    from .prompts import load_pack

    pack = prompt_pack or load_pack("multi_query_rag")
    messages = [
        {"role": "system", "content": pack.render("expand_system")},
        {"role": "user", "content": pack.render("expand_user", question=question, n=max(n - 1, 1))},
    ]
    reply = chat_backend.chat(messages)
    queries = [question]
    for line in reply.splitlines():
        line = line.strip().lstrip("-*0123456789. ").strip()
        if line and line not in queries:
            queries.append(line)
    return queries[:n]


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
