"""Page-level vector index and top-k cosine retrieval.

Scoring is an exact cosine full scan; at benchmark scale (a few thousand
pages) approximate search buys nothing and costs determinism. Page vectors
are stored as little-endian float32 records in the cache directory keyed by
the sha256 of the embedded text, alongside a manifest pinning the backend
fingerprint and dimension.

In memory the index holds float64 unit vectors, and each document's pages
are one contiguous span of rows. A query scores a pool of documents span by
span: spans of documents adjacent in both the pool and the index merge into
one run, and each run is one mat-vec over a view of the matrix, so the whole
collection is a single mat-vec and nothing is copied. One ``np.lexsort`` on
(-score, position in (doc_id, page_number) order) then ranks the pool; the
positions are computed once when the index is built.

BLAS may round a row's dot product differently depending on where the row
falls in a mat-vec, so a score can differ in its last bits between pools
whose runs differ; pools scored as the same runs get identical scores.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import Document, DocumentCollection

EMBED_INPUT_MAX_CHARS = 6000


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
    """One embedding per page of a collection, plus the text digests that key
    the cache. Immutable after build; scoring shares it read-only.

    Each document's pages must be one contiguous span of rows, as
    ``build_index`` lays them out. A pool document that is one of
    ``documents`` (the objects the index was built from) is matched to its
    span by identity of its ``pages`` tuple; any other document by comparing
    page numbers.
    """

    def __init__(
        self,
        refs: list[tuple[str, int]],
        vectors: np.ndarray,
        digests: list[str],
        backend_fingerprint: str,
        documents: Sequence[Document] = (),
    ):
        if len(refs) != vectors.shape[0] or len(refs) != len(digests):
            raise RetrievalError("index arrays disagree in length")
        if not np.all(np.isfinite(vectors)):
            raise RetrievalError("index contains non-finite vectors")
        self.refs = list(refs)
        self.digests = list(digests)
        self.backend_fingerprint = backend_fingerprint
        self.embedding_dim = int(vectors.shape[1])
        # Normalized float64 copies; cosine becomes a dot product.
        norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        self._unit = vectors.astype(np.float64) / safe[:, None]
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
        # Row -> position in (doc_id, page_number) order, the tie-break key.
        standard = sorted(range(len(self.refs)), key=self.refs.__getitem__)
        self._standard_refs = [self.refs[i] for i in standard]
        self._standard_pos = np.empty(len(self.refs), dtype=np.int64)
        self._standard_pos[standard] = np.arange(len(self.refs))

    def __len__(self) -> int:
        return len(self.refs)

    def row(self, page_ref: tuple[str, int]) -> int:
        try:
            return self._row[page_ref]
        except KeyError:
            raise UnindexedPageError(f"page {page_ref!r} is not in the index") from None

    def unit_vector(self, page_ref: tuple[str, int]) -> np.ndarray:
        return self._unit[self.row(page_ref)]

    def row_runs(self, docs: Sequence[Document]) -> list[list[int]]:
        """The pool's rows as ``[start, stop)`` runs in pool order; spans of
        documents adjacent in both the pool and the index share one run.

        Raises ``UnindexedPageError`` unless each pool document holds exactly
        the pages indexed under its doc_id.
        """
        runs: list[list[int]] = []
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
                runs[-1][1] = stop
            else:
                runs.append([start, stop])
        return runs

    def rank(self, query_vec: np.ndarray, runs: list[list[int]], k: int) -> list[ScoredPage]:
        """Top-k of the rows in ``runs`` by cosine to ``query_vec``."""
        q = query_vec.astype(np.float64)
        norm = math.sqrt(q.dot(q))  # np.linalg.norm(q), without its overhead
        if norm > 0:
            q = q / norm
        if len(runs) == 1:
            (start, stop), = runs
            scores = self._unit[start:stop] @ q
            positions = self._standard_pos[start:stop]
        else:
            scores = np.concatenate([self._unit[a:b] @ q for a, b in runs])
            positions = np.concatenate([self._standard_pos[a:b] for a, b in runs])
        np.minimum(scores, 1.0, out=scores)  # clip to [-1, 1] in place
        np.maximum(scores, -1.0, out=scores)
        top = np.lexsort((positions, -scores))[:k]
        refs = self._standard_refs
        return [
            ScoredPage(page_ref=refs[p], score=s)
            for p, s in zip(positions[top].tolist(), scores[top].tolist())
        ]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_cached_vector(cache_dir: Path, digest: str, dim: int) -> Optional[np.ndarray]:
    path = cache_dir / f"{digest}.vec"
    if not path.exists():
        return None
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    if raw.shape[0] != dim:
        raise CacheMismatchError(
            f"cached vector {digest} has dim {raw.shape[0]}, expected {dim}"
        )
    return raw.astype(np.float32)


def _write_cached_vector(cache_dir: Path, digest: str, vec: np.ndarray) -> None:
    path = cache_dir / f"{digest}.vec"
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(vec.astype("<f4").tobytes())
    tmp.rename(path)


def build_index(
    collection: DocumentCollection,
    embed_backend,
    cache_dir: Optional[str | Path] = None,
    max_chars: int = EMBED_INPUT_MAX_CHARS,
) -> PageIndex:
    """Embed every page (title + newline + content, truncated) into an index.

    With a cache directory, vectors are persisted per text digest and rebuilds
    only embed pages whose text changed. The manifest pins the backend
    fingerprint; reusing a cache with a different backend is an error rather
    than a silent mix of vector spaces.
    """
    texts: list[str] = []
    refs: list[tuple[str, int]] = []
    for doc in collection.documents:
        for page in doc.pages:
            refs.append((doc.doc_id, page.page_number))
            texts.append(f"{page.title}\n{page.content}"[:max_chars])
    digests = [_digest(t) for t in texts]

    cache = Path(cache_dir) if cache_dir else None
    manifest_dim: Optional[int] = None
    if cache:
        cache.mkdir(parents=True, exist_ok=True)
        manifest_path = cache / "manifest.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if manifest.get("backend_fingerprint") != embed_backend.fingerprint:
                raise CacheMismatchError(
                    f"cache built with {manifest.get('backend_fingerprint')!r}, "
                    f"backend is {embed_backend.fingerprint!r}"
                )
            manifest_dim = int(manifest["dim"])

    vectors: list[Optional[np.ndarray]] = [None] * len(texts)
    if cache and manifest_dim is not None:
        for i, digest in enumerate(digests):
            vectors[i] = _read_cached_vector(cache, digest, manifest_dim)

    # Distinct uncached texts, embedded once each.
    pending: dict[str, list[int]] = {}
    for i, digest in enumerate(digests):
        if vectors[i] is None:
            pending.setdefault(digest, []).append(i)
    if pending:
        ordered_digests = sorted(pending)
        by_digest = {d: texts[pending[d][0]] for d in ordered_digests}
        embedded = embed_backend.embed([by_digest[d] for d in ordered_digests])
        for d, vec in zip(ordered_digests, embedded):
            for slot in pending[d]:
                vectors[slot] = np.asarray(vec, dtype=np.float32)

    matrix = np.stack([v for v in vectors])
    dim = int(matrix.shape[1])
    if manifest_dim is not None and manifest_dim != dim:
        raise CacheMismatchError(f"backend dim {dim} != cached dim {manifest_dim}")
    if cache:
        for digest, slots in pending.items():
            _write_cached_vector(cache, digest, vectors[slots[0]])
        manifest_path = cache / "manifest.json"
        if not manifest_path.exists():
            manifest_path.write_text(
                json.dumps(
                    {"backend_fingerprint": embed_backend.fingerprint, "dim": dim},
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
    return PageIndex(
        refs, matrix, digests, embed_backend.fingerprint, documents=collection.documents
    )


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
    query_vec = np.asarray(embed_backend.embed([query])[0])
    return index.rank(query_vec, runs, k)


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
