"""The four QA pipelines, answer parsing, and the value-extraction helper.

Each pipeline takes only the question id and text (gold answers never reach a
system) and produces a SystemRun: the parsed answer, the retrieval record,
and call accounting. A run's chat and embed call counts come from a meter
over its backends, read once when the pipeline finishes, so a call that
raised is counted too. Failures are recorded on the run rather than raised,
so a failed pipeline stage still counts against accuracy.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from datetime import date
from typing import Optional, Sequence

from .backends import BackendError, CallLedger
from .corpus import DocumentCollection, DocumentFilter, select_documents
from .planlang import (
    ExecEnv,
    PageHandle,
    PlanParseError,
    PlanRuntimeError,
    execute_plan,
    parse_plan,
)
from .planlang.interpreter import DEFAULT_BUILTIN_BUDGET, DEFAULT_STEP_BUDGET
from .prompts import PromptPack, load_pack
from .retrieval import (
    PageIndex,
    ScoredPage,
    expand_queries,
    merge_multiquery,
    retrieve_relevant_pages,
)

SYSTEM_IDS = ("vanilla_rag", "multi_query_rag", "codegen_pager", "codegen_docs_pager")

PAGE_PROMPT_MAX_CHARS = 2000


class AnswerParseError(Exception):
    pass


class ExtractionError(Exception):
    def __init__(self, message: str, chat_calls_used: int = 0):
        super().__init__(message)
        self.chat_calls_used = chat_calls_used


@dataclass(frozen=True)
class ParsedAnswer:
    """A system's answer in comparable form. Numbers are in base units."""

    kind: str  # "number" | "yesno" | "multi"
    number: Optional[float] = None
    label: Optional[str] = None
    parts: tuple[tuple[str, float], ...] = ()
    raw_text: str = ""

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "raw_text": self.raw_text}
        if self.kind == "number":
            out["value"] = self.number
        elif self.kind == "yesno":
            out["value"] = self.label
        else:
            out["value"] = [[label, v] for label, v in self.parts]
        return out

    @staticmethod
    def from_json_dict(raw: dict) -> "ParsedAnswer":
        kind = raw["kind"]
        if kind == "number":
            return ParsedAnswer(kind="number", number=float(raw["value"]), raw_text=raw.get("raw_text", ""))
        if kind == "yesno":
            return ParsedAnswer(kind="yesno", label=raw["value"], raw_text=raw.get("raw_text", ""))
        return ParsedAnswer(
            kind="multi",
            parts=tuple((str(l), float(v)) for l, v in raw["value"]),
            raw_text=raw.get("raw_text", ""),
        )


_MULTIPLIER_WORDS = {
    "thousand": 1e3,
    "thousands": 1e3,
    "million": 1e6,
    "millions": 1e6,
    "billion": 1e9,
    "billions": 1e9,
}
_MULTIPLIER_LETTERS = {"K": 1e3, "M": 1e6, "B": 1e9}

_NUMBER_RE = re.compile(
    r"(?P<sign>[-+])?\s*\$?\s*"
    r"(?P<num>\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"(?:\s*(?P<word>thousands?|millions?|billions?)\b|\s*(?P<letter>[KMB])\b)?"
    r"\s*(?P<pct>%)?"
)

_YESNO_RE = re.compile(r"^(yes|no)[.!]?$", re.IGNORECASE)
_LABEL_LINE_RE = re.compile(r"^(?P<label>[^:]{1,80}):\s*(?P<rest>\S.*)$")


def _parse_number_text(text: str) -> float:
    """First number in ``text``, scaled by any multiplier word. Raises on none."""
    for m in _NUMBER_RE.finditer(text):
        if not m.group("num"):
            continue
        value = float(m.group("num").replace(",", ""))
        if m.group("sign") == "-":
            value = -value
        word = m.group("word")
        letter = m.group("letter")
        if word:
            value *= _MULTIPLIER_WORDS[word.lower()]
        elif letter:
            value *= _MULTIPLIER_LETTERS[letter]
        return value
    raise AnswerParseError(f"no number found in {text!r}")


def parse_answer_text(text: str) -> ParsedAnswer:
    """Parse a chat reply: Yes/No, a number with optional multiplier word or
    currency symbol or trailing %, or several "label: value" lines."""
    raw = text
    text = text.strip()
    if not text:
        raise AnswerParseError("empty reply")
    if _YESNO_RE.match(text):
        return ParsedAnswer(
            kind="yesno",
            label="Yes" if text.lower().startswith("yes") else "No",
            raw_text=raw,
        )
    labeled: list[tuple[str, float]] = []
    for line in text.splitlines():
        line = line.strip()
        m = _LABEL_LINE_RE.match(line)
        if not m:
            continue
        try:
            labeled.append((m.group("label").strip(), _parse_number_text(m.group("rest"))))
        except AnswerParseError:
            continue
    if len(labeled) >= 2:
        return ParsedAnswer(kind="multi", parts=tuple(labeled), raw_text=raw)
    return ParsedAnswer(kind="number", number=_parse_number_text(text), raw_text=raw)


def parse_emitted(value) -> ParsedAnswer:
    """Turn a plan-emitted value into a ParsedAnswer."""
    if isinstance(value, bool):
        raise AnswerParseError("plan emitted a boolean; expected number, Yes/No, or map")
    if isinstance(value, float):
        return ParsedAnswer(kind="number", number=value, raw_text=repr(value))
    if isinstance(value, str):
        return parse_answer_text(value)
    if isinstance(value, dict):
        parts = []
        for key, v in value.items():
            if not isinstance(key, str) or not isinstance(v, float):
                raise AnswerParseError("emitted map must be label -> number")
            parts.append((key, v))
        if not parts:
            raise AnswerParseError("emitted map is empty")
        if len(parts) == 1:
            return ParsedAnswer(kind="number", number=parts[0][1], raw_text=repr(value))
        return ParsedAnswer(kind="multi", parts=tuple(parts), raw_text=repr(value))
    raise AnswerParseError(f"plan emitted unsupported value type {type(value).__name__}")


# ---------------------------------------------------------------------------
# Value extraction
# ---------------------------------------------------------------------------


def render_pages(pages: Sequence[PageHandle], max_chars: int = PAGE_PROMPT_MAX_CHARS) -> str:
    blocks = []
    for p in pages:
        blocks.append(f"[page {p.doc_id}#{p.page_number}] {p.title}\n{p.content[:max_chars]}")
    return "\n\n".join(blocks)


_EXTRACT_REPROMPT = "Reply with only the value and its multiplier word, or Yes or No."


def _ask_twice(chat_backend, messages: list[dict], parse, reprompt):
    """Ask and parse the reply. On a parse error, show the reply back with
    ``reprompt(error)`` and ask exactly once more; a second parse error is
    raised to the caller."""
    reply = chat_backend.chat(messages)
    try:
        return parse(reply)
    except (AnswerParseError, PlanParseError) as exc:
        follow_up = reprompt(exc)
    retry_messages = messages + [
        {"role": "assistant", "content": reply},
        {"role": "user", "content": follow_up},
    ]
    return parse(chat_backend.chat(retry_messages))


def _parse_extraction(reply: str) -> ParsedAnswer:
    if reply.strip().lower() == "not found":
        # A definitive miss, not a formatting problem; reprompting cannot help.
        raise ExtractionError("value not found in the given pages")
    return parse_answer_text(reply)


def extract_value(query: str, pages: Sequence[PageHandle], chat_backend, prompt_pack=None) -> ParsedAnswer:
    """One chat call (plus at most one reprompt) extracting a value from pages."""
    pack = prompt_pack or load_pack("extract")
    if not pages:
        raise ExtractionError("extract_value requires at least one page")
    messages = [
        {"role": "system", "content": pack.render("system")},
        {"role": "user", "content": pack.render("user", query=query, pages=render_pages(pages))},
    ]
    try:
        return _ask_twice(chat_backend, messages, _parse_extraction, lambda _: _EXTRACT_REPROMPT)
    except AnswerParseError as exc:
        raise ExtractionError(f"unparseable extraction reply: {exc}")


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


@dataclass
class Backends:
    chat: object
    embed: object
    ledger: Optional[CallLedger] = None


@dataclass
class SystemRun:
    system_id: str
    question_id: str
    k: int
    predicted: Optional[ParsedAnswer]
    retrieved_pages: list[tuple[str, int]]
    retrieved_docs: list[tuple[str, str, int, str]]
    chat_calls: int
    embed_calls: int
    failure: Optional[str] = None
    trace: Optional[dict] = None
    plan_source: Optional[str] = None
    prompt_version: str = ""

    def to_json_dict(self) -> dict:
        return {
            "system_id": self.system_id,
            "question_id": self.question_id,
            "k": self.k,
            "predicted": self.predicted.to_json_dict() if self.predicted else None,
            "retrieved_pages": [[d, p] for d, p in self.retrieved_pages],
            "retrieved_docs": [list(sig) for sig in self.retrieved_docs],
            "chat_calls": self.chat_calls,
            "embed_calls": self.embed_calls,
            "failure": self.failure,
            "trace": self.trace,
            "plan_source": self.plan_source,
            "prompt_version": self.prompt_version,
        }

    @staticmethod
    def from_json_dict(raw: dict) -> "SystemRun":
        return SystemRun(
            system_id=raw["system_id"],
            question_id=raw["question_id"],
            k=int(raw["k"]),
            predicted=ParsedAnswer.from_json_dict(raw["predicted"]) if raw.get("predicted") else None,
            retrieved_pages=[(d, int(p)) for d, p in raw["retrieved_pages"]],
            retrieved_docs=[tuple(sig) for sig in raw["retrieved_docs"]],
            chat_calls=int(raw["chat_calls"]),
            embed_calls=int(raw["embed_calls"]),
            failure=raw.get("failure"),
            trace=raw.get("trace"),
            plan_source=raw.get("plan_source"),
            prompt_version=raw.get("prompt_version", ""),
        )


def _signatures(
    refs: Sequence[tuple[str, int]], collection: DocumentCollection
) -> list[tuple[str, str, int, str]]:
    """The retrieved pages' document signatures, first seen first."""
    return list(dict.fromkeys(map(collection.page_signature, refs)))


def _page_handles(
    scored: Sequence[ScoredPage], collection: DocumentCollection
) -> list[PageHandle]:
    out = []
    for s in scored:
        doc_id, page_number = s.page_ref
        page = collection.get_page(doc_id, page_number)
        out.append(
            PageHandle(
                doc_id=doc_id,
                page_number=page_number,
                title=page.title,
                content=page.content,
            )
        )
    return out


class _Meter:
    """Counting view of one chat or embed backend. A call counts before it is
    made, so a call that raises still counts."""

    def __init__(self, backend) -> None:
        self._backend = backend
        self.calls = 0

    def chat(self, messages: list[dict], **params) -> str:
        self.calls += 1
        return self._backend.chat(messages, **params)

    def embed(self, texts: list[str]):
        self.calls += 1
        return self._backend.embed(texts)


@contextlib.contextmanager
def _metered_run(system_id: str, question_id: str, k: int, backends: Backends):
    """Yield a fresh SystemRun, the system's prompt pack, and metered
    ``backends``. However the pipeline leaves the block, the run's call
    counts are read from the meters."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pack = load_pack(system_id)
    chat, embed = _Meter(backends.chat), _Meter(backends.embed)
    run = SystemRun(
        system_id=system_id,
        question_id=question_id,
        k=k,
        predicted=None,
        retrieved_pages=[],
        retrieved_docs=[],
        chat_calls=0,
        embed_calls=0,
        prompt_version=pack.version,
    )
    try:
        yield run, pack, Backends(chat, embed, backends.ledger)
    finally:
        run.chat_calls = chat.calls
        run.embed_calls = embed.calls


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _answer_from_pages(
    run: SystemRun,
    pack: PromptPack,
    chat_backend,
    question_text: str,
    collection: DocumentCollection,
    dataset_year: int,
    retrieve,
) -> None:
    """The RAG answer stage: retrieve, record the pages and their documents,
    ask once, then parse the answer or tag the failure."""
    try:
        scored = retrieve()
    except BackendError as exc:
        run.failure = f"retrieval_error: {exc}"
        return
    run.retrieved_pages = [s.page_ref for s in scored]
    run.retrieved_docs = _signatures(run.retrieved_pages, collection)
    pages = _page_handles(scored, collection)
    messages = [
        {"role": "system", "content": pack.render("system", current_year=dataset_year)},
        {
            "role": "user",
            "content": pack.render("user", question=question_text, pages=render_pages(pages)),
        },
    ]
    try:
        reply = chat_backend.chat(messages)
    except BackendError as exc:
        run.failure = f"backend_error: {exc}"
        return
    try:
        run.predicted = parse_answer_text(reply)
    except AnswerParseError as exc:
        run.failure = f"answer_parse_error: {exc}"


def answer_vanilla(
    question_id: str,
    question_text: str,
    collection: DocumentCollection,
    index: PageIndex,
    backends: Backends,
    k: int,
    dataset_year: int,
) -> SystemRun:
    """One retrieval over the whole collection, one answer chat call."""
    with _metered_run("vanilla_rag", question_id, k, backends) as (run, pack, backends):
        _answer_from_pages(
            run, pack, backends.chat, question_text, collection, dataset_year,
            lambda: retrieve_relevant_pages(
                question_text, collection.documents, k, index, backends.embed
            ),
        )
    return run


def answer_multiquery(
    question_id: str,
    question_text: str,
    collection: DocumentCollection,
    index: PageIndex,
    backends: Backends,
    k: int,
    dataset_year: int,
    n_queries: int = 3,
) -> SystemRun:
    """Query expansion, per-query retrieval, max-merge, one answer call."""
    with _metered_run("multi_query_rag", question_id, k, backends) as (run, pack, backends):
        if n_queries < 1:
            raise ValueError(f"n_queries must be >= 1, got {n_queries}")
        try:
            queries = expand_queries(question_text, backends.chat, n_queries, prompt_pack=pack)
        except BackendError as exc:
            run.failure = f"retrieval_error: query expansion failed: {exc}"
            return run

        def retrieve():
            rankings = [
                retrieve_relevant_pages(query, collection.documents, k, index, backends.embed)
                for query in queries
            ]
            return merge_multiquery(rankings, k)

        _answer_from_pages(
            run, pack, backends.chat, question_text, collection, dataset_year, retrieve
        )
    return run


def make_exec_env(
    collection: DocumentCollection,
    index: PageIndex,
    backends: Backends,
    k: int,
    with_doc_select: bool,
    step_budget: int = DEFAULT_STEP_BUDGET,
    builtin_budget: int = DEFAULT_BUILTIN_BUDGET,
) -> ExecEnv:
    """Wire the plan-language builtins to the corpus, index, and backends."""
    extract_pack = load_pack("extract")

    def _coerce_year(value):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int):
            return value
        raise ValueError(f"fiscal year must be an integer, got {value!r}")

    def _coerce_date(value):
        if value is None:
            return None
        return date.fromisoformat(str(value))

    def select_fn(
        companies=None,
        stock_symbols=None,
        form_types=None,
        fiscal_years=None,
        financial_period_end_date_range_start=None,
        financial_period_end_date_range_end=None,
    ):
        doc_filter = DocumentFilter(
            companies=tuple(companies) if companies else None,
            stock_symbols=tuple(stock_symbols) if stock_symbols else None,
            form_types=tuple(form_types) if form_types else None,
            fiscal_years=tuple(_coerce_year(y) for y in fiscal_years) if fiscal_years else None,
            period_end_start=_coerce_date(financial_period_end_date_range_start),
            period_end_end=_coerce_date(financial_period_end_date_range_end),
        )
        return select_documents(collection, doc_filter)

    def retrieve_fn(question, documents):
        docs = collection.documents if documents is None else documents
        scored = retrieve_relevant_pages(question, docs, k, index, backends.embed)
        return _page_handles(scored, collection)

    def extract_fn(question, pages):
        # A meter nested in the run's own, so the trace counts the same calls
        # as the run, a failed call included.
        chat = _Meter(backends.chat)
        try:
            answer = extract_value(question, pages, chat, extract_pack)
        except (ExtractionError, BackendError) as exc:
            raise ExtractionError(str(exc), chat_calls_used=chat.calls) from exc
        if answer.kind == "number":
            return answer.number, chat.calls
        if answer.kind == "yesno":
            return answer.label, chat.calls
        return {label: value for label, value in answer.parts}, chat.calls

    return ExecEnv(
        select_fn=select_fn,
        retrieve_fn=retrieve_fn,
        extract_fn=extract_fn,
        k=k,
        with_doc_select=with_doc_select,
        step_budget=step_budget,
        builtin_budget=builtin_budget,
    )


def answer_codegen(
    question_id: str,
    question_text: str,
    collection: DocumentCollection,
    index: PageIndex,
    backends: Backends,
    k: int,
    dataset_year: int,
    with_doc_select: bool = True,
    step_budget: int = DEFAULT_STEP_BUDGET,
    builtin_budget: int = DEFAULT_BUILTIN_BUDGET,
) -> SystemRun:
    """Plan generation, sandboxed execution, emitted value parsed as answer.

    A plan that fails to parse gets exactly one regeneration; execution
    failures keep the partial trace on the run.
    """
    system_id = "codegen_docs_pager" if with_doc_select else "codegen_pager"
    with _metered_run(system_id, question_id, k, backends) as (run, pack, backends):
        user_content = (
            pack.render("fewshots", current_year=dataset_year)
            + "\n---\n"
            + pack.render("user", question=question_text)
        )
        messages = [
            {"role": "system", "content": pack.render("system", current_year=dataset_year)},
            {"role": "user", "content": user_content},
        ]

        def parse(source):
            run.plan_source = source
            return parse_plan(source)

        try:
            program = _ask_twice(
                backends.chat,
                messages,
                parse,
                lambda error: f"That plan failed to parse ({error}). "
                "Write a corrected plan program.",
            )
        except BackendError as exc:
            run.failure = f"backend_error: {exc}"
            return run
        except PlanParseError as exc:
            run.failure = f"plan_parse_error: {exc}"
            return run
        env = make_exec_env(
            collection,
            index,
            backends,
            k,
            with_doc_select,
            step_budget=step_budget,
            builtin_budget=builtin_budget,
        )
        try:
            trace = execute_plan(program, env)
        except PlanRuntimeError as exc:
            trace = exc.trace
            run.failure = f"plan_runtime_error:{exc.kind}: {exc}"
        run.trace = trace.to_json_dict()
        run.retrieved_pages = list(trace.retrieved_pages)
        run.retrieved_docs = _signatures(run.retrieved_pages, collection)
        if run.failure is None:
            try:
                run.predicted = parse_emitted(trace.emitted)
            except AnswerParseError as exc:
                run.failure = f"answer_parse_error: {exc}"
    return run


def run_system(
    system_id: str,
    question_id: str,
    question_text: str,
    collection: DocumentCollection,
    index: PageIndex,
    backends: Backends,
    k: int,
    dataset_year: int,
    n_queries: int = 3,
) -> SystemRun:
    """Dispatch one question to one system, scoped in the call ledger."""
    if system_id not in SYSTEM_IDS:
        raise ValueError(f"unknown system_id {system_id!r}")
    scope = backends.ledger.scope(system_id, question_id) if backends.ledger else None
    with scope or contextlib.nullcontext():
        if system_id == "vanilla_rag":
            return answer_vanilla(
                question_id, question_text, collection, index, backends, k, dataset_year
            )
        if system_id == "multi_query_rag":
            return answer_multiquery(
                question_id,
                question_text,
                collection,
                index,
                backends,
                k,
                dataset_year,
                n_queries=n_queries,
            )
        return answer_codegen(
            question_id,
            question_text,
            collection,
            index,
            backends,
            k,
            dataset_year,
            with_doc_select=(system_id == "codegen_docs_pager"),
        )
