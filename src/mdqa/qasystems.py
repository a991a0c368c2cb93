"""The four QA pipelines, answer parsing, and the value-extraction helper.

``run_system`` is the one way to run a pipeline. It takes only the question
id and text (gold answers never reach a system) and produces a SystemRun:
the parsed answer, the retrieval record, and call accounting. A run's chat
and embed call counts come from a meter over its backends, read once when
the pipeline finishes, so a call that raised is counted too. Failures are
recorded on the run rather than raised, so a failed pipeline stage still
counts against accuracy. The two codegen systems share one pipeline; they
differ in their prompt pack and in whether a plan may call
``select_documents``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from typing import Sequence

from .backends import BackendError
from .corpus import DocumentCollection, DocumentFilter, select_documents
from .planlang import ExecEnv, PlanParseError, PlanRuntimeError, execute_plan, parse_plan
from .prompts import PromptPack, load_pack
from .records import SYSTEM_IDS, Answer, PageHandle, SystemRun
from .retrieval import (
    PageIndex,
    expand_queries,
    merge_multiquery,
    retrieve_relevant_pages,
)

PAGE_PROMPT_MAX_CHARS = 2000


class AnswerParseError(Exception):
    pass


class ExtractionError(Exception):
    pass


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


def parse_answer_text(text: str) -> Answer:
    """Parse a chat reply: Yes/No, a number with optional multiplier word or
    currency symbol or trailing %, or several "label: value" lines."""
    raw = text
    text = text.strip()
    if not text:
        raise AnswerParseError("empty reply")
    if _YESNO_RE.match(text):
        return Answer(
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
        return Answer(kind="multi", parts=tuple(labeled), raw_text=raw)
    return Answer(kind="number", number=_parse_number_text(text), raw_text=raw)


def parse_emitted(value) -> Answer:
    """Turn a plan-emitted value into an Answer."""
    if isinstance(value, bool):
        raise AnswerParseError("plan emitted a boolean; expected number, Yes/No, or map")
    if isinstance(value, float):
        return Answer(kind="number", number=value, raw_text=repr(value))
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
            return Answer(kind="number", number=parts[0][1], raw_text=repr(value))
        return Answer(kind="multi", parts=tuple(parts), raw_text=repr(value))
    raise AnswerParseError(f"plan emitted unsupported value type {type(value).__name__}")


# ---------------------------------------------------------------------------
# Value extraction
# ---------------------------------------------------------------------------


def render_pages(pages: Sequence[PageHandle]) -> str:
    blocks = []
    for p in pages:
        blocks.append(
            f"[page {p.doc_id}#{p.page_number}] {p.title}\n{p.content[:PAGE_PROMPT_MAX_CHARS]}"
        )
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


def _parse_extraction(reply: str) -> Answer:
    if reply.strip().lower() == "not found":
        # A definitive miss, not a formatting problem; reprompting cannot help.
        raise ExtractionError("value not found in the given pages")
    return parse_answer_text(reply)


def extract_value(query: str, pages: Sequence[PageHandle], chat_backend) -> Answer:
    """One chat call (plus at most one reprompt) extracting a value from pages."""
    pack = load_pack("extract")
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


def _cut(run: SystemRun, ranking: list) -> list:
    """Every top-k cut of a pipeline passes its result through here. One
    that returned ``run.k`` items counts as cut, even if its pool held
    exactly k."""
    if len(ranking) >= run.k:
        run.cut = True
    return ranking


@dataclass
class _Task:
    """One question put to one system: the run it fills in, the system's
    prompt pack, and metered backends."""

    run: SystemRun
    pack: PromptPack
    question_text: str
    collection: DocumentCollection
    index: PageIndex
    backends: Backends
    dataset_year: int
    n_queries: int


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _answer_from_pages(task: _Task, retrieve) -> None:
    """The RAG answer stage: retrieve, record the pages, ask once, then
    parse the answer or tag the failure."""
    run, pack = task.run, task.pack
    try:
        scored = retrieve()
    except BackendError as exc:
        run.failure = f"retrieval_error: {exc}"
        return
    run.retrieved_pages = [s.page_ref for s in scored]
    pages = task.index.page_handles(run.retrieved_pages)
    messages = [
        {"role": "system", "content": pack.render("system", current_year=task.dataset_year)},
        {
            "role": "user",
            "content": pack.render("user", question=task.question_text, pages=render_pages(pages)),
        },
    ]
    try:
        reply = task.backends.chat.chat(messages)
    except BackendError as exc:
        run.failure = f"backend_error: {exc}"
        return
    try:
        run.predicted = parse_answer_text(reply)
    except AnswerParseError as exc:
        run.failure = f"answer_parse_error: {exc}"


def _vanilla(task: _Task) -> None:
    """One retrieval over the whole collection, one answer chat call."""
    run = task.run
    _answer_from_pages(task, lambda: _cut(run, retrieve_relevant_pages(
        task.question_text, task.collection.documents, run.k, task.index, task.backends.embed
    )))


def _multiquery(task: _Task) -> None:
    """Query expansion, per-query retrieval, max-merge, one answer call."""
    run = task.run
    if task.n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {task.n_queries}")
    try:
        queries = expand_queries(task.question_text, task.backends.chat, task.n_queries)
    except BackendError as exc:
        run.failure = f"retrieval_error: query expansion failed: {exc}"
        return

    def retrieve():
        rankings = [
            retrieve_relevant_pages(
                query, task.collection.documents, run.k, task.index, task.backends.embed
            )
            for query in queries
        ]
        # The merge is a union of distinct pages, so it holds k whenever
        # one of the rankings does: its cut is the only one to check.
        return _cut(run, merge_multiquery(rankings, run.k))

    _answer_from_pages(task, retrieve)


def make_exec_env(
    run: SystemRun, collection: DocumentCollection, index: PageIndex, backends: Backends
) -> ExecEnv:
    """Wire the plan-language builtins to the corpus, index, and backends.

    ``retrieve_relevant_pages`` ranks ``run.k`` pages and passes its cut
    through ``_cut``; ``select_documents`` is there for codegen_docs_pager
    only.
    """

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
        scored = retrieve_relevant_pages(question, docs, run.k, index, backends.embed)
        return _cut(run, index.page_handles(s.page_ref for s in scored))

    def extract_fn(question, pages):
        answer = extract_value(question, pages, backends.chat)
        if answer.kind == "number":
            return answer.number
        if answer.kind == "yesno":
            return answer.label
        return {label: value for label, value in answer.parts}

    return ExecEnv(
        select_fn=select_fn if run.system_id == "codegen_docs_pager" else None,
        retrieve_fn=retrieve_fn,
        extract_fn=extract_fn,
    )


def _codegen(task: _Task) -> None:
    """Plan generation, sandboxed execution, emitted value parsed as answer.

    A plan that fails to parse gets exactly one regeneration; execution
    failures keep the partial trace on the run.
    """
    run, pack, chat = task.run, task.pack, task.backends.chat
    user_content = (
        pack.render("fewshots", current_year=task.dataset_year)
        + "\n---\n"
        + pack.render("user", question=task.question_text)
    )
    messages = [
        {"role": "system", "content": pack.render("system", current_year=task.dataset_year)},
        {"role": "user", "content": user_content},
    ]

    def parse(source):
        run.plan_source = source
        return parse_plan(source)

    try:
        program = _ask_twice(chat, messages, parse, lambda error: (
            f"That plan failed to parse ({error}). Write a corrected plan program."
        ))
    except BackendError as exc:
        run.failure = f"backend_error: {exc}"
        return
    except PlanParseError as exc:
        run.failure = f"plan_parse_error: {exc}"
        return
    env = make_exec_env(run, task.collection, task.index, task.backends)
    calls_before = chat.calls
    try:
        trace = execute_plan(program, env)
    except PlanRuntimeError as exc:
        trace = exc.trace
        run.failure = f"plan_runtime_error:{exc.kind}: {exc}"
    # The trace counts the run's chat calls made by the plan, failed ones included.
    trace.chat_calls = chat.calls - calls_before
    run.trace = trace.to_json_dict()
    run.retrieved_pages = list(trace.retrieved_pages)
    if run.failure is None:
        try:
            run.predicted = parse_emitted(trace.emitted)
        except AnswerParseError as exc:
            run.failure = f"answer_parse_error: {exc}"


_PIPELINES = dict(zip(SYSTEM_IDS, (_vanilla, _multiquery, _codegen, _codegen)))


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
    """Put one question to one system and return its run.

    However the pipeline ends, the run's call counts are read from meters
    over ``backends``.
    """
    if system_id not in SYSTEM_IDS:
        raise ValueError(f"unknown system_id {system_id!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pack = load_pack(system_id)
    chat, embed = _Meter(backends.chat), _Meter(backends.embed)
    run = SystemRun(system_id, question_id, k, None, [], 0, 0, prompt_version=pack.version)
    task = _Task(
        run, pack, question_text, collection, index, Backends(chat, embed), dataset_year, n_queries
    )
    try:
        _PIPELINES[system_id](task)
    finally:
        run.chat_calls = chat.calls
        run.embed_calls = embed.calls
    return run
