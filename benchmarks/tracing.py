"""Outside-in span tracing of mdqa's layers, for the traced benchmark run.

Spans are recorded around calls into each layer's public functions, from the
benchmark's own files; nothing under ``src/`` changes. A function is wrapped
by replacing the attribute in the module that *calls* it: ``cli`` and
``qasystems`` import ``run_system``, ``build_index``, ``parse_plan`` and the
others by name, so patching only the defining module would miss those calls.
Backend methods are patched on their classes.

Each span is ``[name, start, end, parent, run, n]``: indexes into
``Tracer.names`` and ``Tracer.runs`` (the ``(system_id, question_id, k)`` of
the enclosing ``run_system`` call, or -1), the index of the enclosing span
(or -1), and a per-span count such as the texts embedded or the pages in a
retrieval pool. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

NAME, START, END, PARENT, RUN, N = range(6)

SYSTEM_IDS = ("vanilla_rag", "multi_query_rag", "codegen_pager", "codegen_docs_pager")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.runs: list[tuple[str, str, int]] = []
        self.spans: list[list] = []
        self.totals: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._run = -1

    def parent_is(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        return bool(self._stack) and self.names[self.spans[self._stack[-1]][NAME]] == name

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
        run_key: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call.

        ``count(tracer, args, kwargs, outcome)`` gives the span's count;
        ``outcome`` is the return value or the exception raised. ``run_key``
        maps the call's arguments to the run id its nested spans carry.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            outer_run = self._run
            if run_key is not None:
                self._run = len(self.runs)
                self.runs.append(run_key(args, kwargs))
            parent = self._stack[-1] if self._stack else -1
            span = [name_id, 0.0, 0.0, parent, self._run, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            outcome = None
            span[START] = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
                self._run = outer_run
                if count is not None:
                    span[N] = count(self, args, kwargs, outcome)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def to_json_dict(self, wall_s: float) -> dict:
        return {
            "wall_s": wall_s,
            "names": self.names,
            "runs": [list(r) for r in self.runs],
            "spans": self.spans,
            "totals": dict(self.totals),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def dump(self, path: str | Path, wall_s: float) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(wall_s)), encoding="utf-8")


# ---------------------------------------------------------------------------
# Counts taken at layer boundaries
# ---------------------------------------------------------------------------


def _pool_pages(tracer, args, kwargs, outcome) -> int:
    docs = args[1] if len(args) > 1 else kwargs["docs"]
    return sum(len(doc.pages) for doc in docs)


def _embed_texts(tracer, args, kwargs, outcome) -> int:
    texts = args[1] if len(args) > 1 else kwargs["texts"]
    if tracer.parent_is("retrieval.build_index"):
        tracer.totals["retrieval.build_index.pages_embedded"] += len(texts)
    return len(texts)


def _plan_source(tracer, args, kwargs, outcome) -> int:
    source = args[0] if args else kwargs["source"]
    tracer.distinct.setdefault("planlang.parse.sources", set()).add(source)
    return len(source)


def _plan_steps(tracer, args, kwargs, outcome) -> int:
    trace = getattr(outcome, "trace", outcome)
    if trace is None or not hasattr(trace, "step_count"):
        return 0
    tracer.totals["planlang.execute.builtin_calls"] += len(trace.builtin_calls)
    return trace.step_count


def _transport_texts(tracer, args, kwargs, outcome) -> int:
    body = args[1] if len(args) > 1 else kwargs["body"]
    return len(body.get("input", ()))


def _run_id(args, kwargs) -> tuple[str, str, int]:
    return (args[0], args[1], args[6])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary in the imported mdqa modules.

    Call after any fake transport is installed at
    ``mdqa.backends._requests_transport``, so the transport is wrapped too.
    """
    from mdqa import backends, cli, oracle, prompts, qasystems, synth

    tracer.patch(cli, "run_system", "qasystems.run_system", run_key=_run_id)
    tracer.patch(cli, "build_index", "retrieval.build_index")
    tracer.patch(cli, "load_collection", "corpus.load")
    tracer.patch(cli, "load_fact_table", "corpus.load")
    tracer.patch(cli, "generate_questions", "questiongen.generate")
    tracer.patch(cli, "build_report", "evaluation.build_report")
    tracer.patch(cli, "write_report", "evaluation.write_report")
    tracer.patch(synth, "write_bundle", "synth.write_bundle")
    tracer.patch(qasystems, "retrieve_relevant_pages", "retrieval.retrieve", count=_pool_pages)
    tracer.patch(qasystems, "expand_queries", "retrieval.expand")
    tracer.patch(qasystems, "merge_multiquery", "retrieval.merge")
    tracer.patch(qasystems, "parse_plan", "planlang.parse", count=_plan_source)
    tracer.patch(qasystems, "execute_plan", "planlang.execute", count=_plan_steps)
    tracer.patch(qasystems, "select_documents", "corpus.select_documents")
    tracer.patch(qasystems, "parse_answer_text", "qasystems.parse_answer")
    tracer.patch(qasystems, "load_pack", "prompts.load_pack")
    tracer.patch(prompts, "load_pack", "prompts.load_pack")
    tracer.patch(backends.HashedBowEmbedder, "embed", "backends.embed", count=_embed_texts)
    tracer.patch(backends.HttpEmbedBackend, "embed", "backends.http_embed", count=_embed_texts)
    tracer.patch(backends.HttpChatBackend, "chat", "backends.http_chat")
    tracer.patch(oracle.OracleChatBackend, "chat", "oracle.chat")
    tracer.patch(backends, "_requests_transport", "backends.transport", count=_transport_texts)


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one dumped trace (see README for names)."""
    names, spans = trace["names"], trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(names[span[NAME]], []).append(i)
        if span[PARENT] >= 0:
            kids.setdefault(span[PARENT], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(ids(name)))

    def self_s(name):
        return sum(selfs[i] for i in ids(name))

    def dur_s(name):
        return sum(spans[i][END] - spans[i][START] for i in ids(name))

    def n_sum(name):
        return float(sum(spans[i][N] for i in ids(name)))

    def has_child(i, child_name):
        return any(names[spans[j][NAME]] == child_name for j in kids.get(i, ()))

    retrieve_us = [(spans[i][END] - spans[i][START]) * 1e6 for i in ids("retrieval.retrieve")]
    chat_ids = ids("backends.http_chat")
    chat_hits = sum(1 for i in chat_ids if not has_child(i, "backends.transport"))
    embed_requested = n_sum("backends.http_embed")
    embed_sent = sum(
        spans[j][N]
        for i in ids("backends.http_embed")
        for j in kids.get(i, ())
        if names[spans[j][NAME]] == "backends.transport"
    )
    totals = trace["totals"]
    m = {
        "retrieval.retrieve.calls": calls("retrieval.retrieve"),
        "retrieval.retrieve.self_s": self_s("retrieval.retrieve"),
        "retrieval.retrieve.p50_us": percentile(retrieve_us, 50),
        "retrieval.retrieve.p99_us": percentile(retrieve_us, 99),
        "retrieval.retrieve.pool_pages_mean": (
            n_sum("retrieval.retrieve") / calls("retrieval.retrieve")
            if ids("retrieval.retrieve") else 0.0
        ),
        "retrieval.build_index.s": dur_s("retrieval.build_index"),
        "retrieval.build_index.pages_embedded": float(
            totals.get("retrieval.build_index.pages_embedded", 0)
        ),
        "retrieval.expand.self_s": self_s("retrieval.expand"),
        "retrieval.merge.self_s": self_s("retrieval.merge"),
        "planlang.parse.calls": calls("planlang.parse"),
        "planlang.parse.distinct_sources": float(
            trace["distinct"].get("planlang.parse.sources", 0)
        ),
        "planlang.parse.self_s": self_s("planlang.parse"),
        "planlang.execute.calls": calls("planlang.execute"),
        "planlang.execute.self_s": self_s("planlang.execute"),
        "planlang.execute.steps": n_sum("planlang.execute"),
        "planlang.execute.builtin_calls": float(totals.get("planlang.execute.builtin_calls", 0)),
        "backends.http_chat.calls": calls("backends.http_chat"),
        "backends.http_chat.self_s": self_s("backends.http_chat"),
        "backends.http_embed.calls": calls("backends.http_embed"),
        "backends.http_embed.self_s": self_s("backends.http_embed"),
        "backends.transport.requests": calls("backends.transport"),
        "backends.transport.wait_s": dur_s("backends.transport"),
        "backends.chat_cache.hit_ratio": chat_hits / len(chat_ids) if chat_ids else 0.0,
        "backends.embed_cache.hit_ratio": (
            1.0 - embed_sent / embed_requested if embed_requested else 0.0
        ),
        "backends.embed.calls": calls("backends.embed"),
        "backends.embed.texts": n_sum("backends.embed"),
        "backends.embed.self_s": self_s("backends.embed"),
        "oracle.chat.calls": calls("oracle.chat"),
        "oracle.chat.self_s": self_s("oracle.chat"),
        "corpus.select_documents.calls": calls("corpus.select_documents"),
        "corpus.select_documents.self_s": self_s("corpus.select_documents"),
        "corpus.load.s": dur_s("corpus.load"),
        "qasystems.run_system.self_s": self_s("qasystems.run_system"),
        "qasystems.parse_answer.self_s": self_s("qasystems.parse_answer"),
        "prompts.load_pack.calls": calls("prompts.load_pack"),
        "evaluation.build_report.s": dur_s("evaluation.build_report"),
        "evaluation.write_report.s": dur_s("evaluation.write_report"),
        "synth.write_bundle.s": dur_s("synth.write_bundle"),
        "questiongen.generate.s": dur_s("questiongen.generate"),
    }
    run_ms: dict[str, list[float]] = {s: [] for s in SYSTEM_IDS}
    for i in ids("qasystems.run_system"):
        system_id = trace["runs"][spans[i][RUN]][0]
        run_ms[system_id].append((spans[i][END] - spans[i][START]) * 1e3)
    for system_id, values in run_ms.items():
        m[f"qasystems.run_system.{system_id}.p50_ms"] = percentile(values, 50)
        m[f"qasystems.run_system.{system_id}.p98_ms"] = percentile(values, 98)
    return m


def unattributed_s(trace: dict) -> float:
    """Wall time of a traced step spent outside every traced layer."""
    spans = trace["spans"]
    return trace["wall_s"] - sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def total_s(trace: dict, name: str) -> float:
    """Summed duration of the spans called ``name``."""
    name_id = trace["names"].index(name) if name in trace["names"] else -1
    return sum(s[END] - s[START] for s in trace["spans"] if s[NAME] == name_id)


def merge_traces(traces: list[dict]) -> dict:
    """Concatenate several dumped traces (one per CLI step) into one."""
    out = {"wall_s": 0.0, "names": [], "runs": [], "spans": [], "totals": Counter(), "distinct": Counter()}
    name_ids: dict[str, int] = {}
    for trace in traces:
        name_map = []
        for name in trace["names"]:
            if name not in name_ids:
                name_ids[name] = len(out["names"])
                out["names"].append(name)
            name_map.append(name_ids[name])
        span_base, run_base = len(out["spans"]), len(out["runs"])
        for name, start, end, parent, run, n in trace["spans"]:
            out["spans"].append([
                name_map[name], start, end,
                parent + span_base if parent >= 0 else -1,
                run + run_base if run >= 0 else -1,
                n,
            ])
        out["runs"].extend(trace["runs"])
        out["totals"].update(trace["totals"])
        out["distinct"].update(trace["distinct"])
        out["wall_s"] += trace["wall_s"]
    return out
