"""What a session holds: answers, run records, the ids of the systems and
the pages a plan sees, readable without the pipelines that write them.

An ``Answer`` is a gold answer or a system's answer in comparable form: a
number in base units, Yes/No, or labeled (label, number) parts. Its JSON is
``{"kind", "value"}``; a run record also writes the reply it was parsed
from as ``raw_text``. The ``from_json_dict`` readers raise ``KeyError``,
``TypeError`` or ``ValueError`` for a record they cannot read, which
``files.read_jsonl`` reports as ``path:line``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# The pipelines ``qasystems.run_system`` runs, in the order ``run`` sweeps them.
SYSTEM_IDS = ("vanilla_rag", "multi_query_rag", "codegen_pager", "codegen_docs_pager")


@dataclass(frozen=True, slots=True)
class PageHandle:
    """A retrieved page as seen from inside a plan."""

    doc_id: str
    page_number: int
    title: str
    content: str

    @property
    def ref(self) -> tuple[str, int]:
        return (self.doc_id, self.page_number)


@dataclass(frozen=True)
class Answer:
    """A gold or predicted answer; ``number`` and ``parts`` are in base units."""

    kind: str  # "number" | "yesno" | "multi"
    number: Optional[float] = None
    label: Optional[str] = None
    parts: tuple[tuple[str, float], ...] = ()
    raw_text: str = ""

    def __post_init__(self) -> None:
        if self.kind == "number" and self.number is None:
            raise ValueError("a number answer requires a value")
        if self.kind == "yesno" and self.label not in ("Yes", "No"):
            raise ValueError(f"a yesno answer must be 'Yes' or 'No', got {self.label!r}")
        if self.kind == "multi" and len(self.parts) < 2:
            raise ValueError("a multi answer requires at least 2 labeled values")
        if self.kind not in ("number", "yesno", "multi"):
            raise ValueError(f"unknown answer kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        if self.kind == "number":
            return {"kind": "number", "value": self.number}
        if self.kind == "yesno":
            return {"kind": "yesno", "value": self.label}
        return {"kind": "multi", "value": [[label, v] for label, v in self.parts]}

    @staticmethod
    def from_json_dict(raw: dict) -> "Answer":
        kind, value, raw_text = raw["kind"], raw["value"], raw.get("raw_text", "")
        if kind == "number":
            return Answer(kind, number=float(typed(value, "value", int, float)), raw_text=raw_text)
        if kind == "multi":
            parts = tuple((typed(label, "label", str), float(typed(v, "value", int, float)))
                          for label, v in value)
            return Answer(kind, parts=parts, raw_text=raw_text)
        # "yesno", or an unknown kind, which the constructor rejects.
        return Answer(kind, label=value, raw_text=raw_text)


def typed(value, name: str, *types: type):
    """``value`` if its type is one of ``types`` itself, so that a boolean is
    not an integer; else ``TypeError`` naming ``name``."""
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{name} must be {names}, got {value!r}")
    return value


def page_refs(pairs, name: str) -> list[tuple[str, int]]:
    """``pairs`` as (doc id, page number) tuples. Raises ``ValueError``
    naming ``name`` unless each is a (string, integer) pair."""
    out = []
    for pair in pairs:
        doc_id, page = pair
        if not isinstance(doc_id, str) or type(page) is not int:
            raise ValueError(f"{name} entries must be [doc_id, page_number], got {pair!r}")
        out.append((doc_id, page))
    return out


# The layout of a serialised SystemRun. Format 1 also held the document
# signatures of its pages and, in its trace, the pages again.
RUN_FORMAT = 2


@dataclass
class SystemRun:
    system_id: str
    question_id: str
    k: int
    predicted: Optional[Answer]
    retrieved_pages: list[tuple[str, int]]
    chat_calls: int
    embed_calls: int
    failure: Optional[str] = None
    trace: Optional[dict] = None
    plan_source: Optional[str] = None
    prompt_version: str = ""
    # Set by ``_cut`` when a top-k cut returned k items and so may have
    # dropped some. Kept in memory only: never serialised or compared.
    cut: bool = field(default=False, compare=False, repr=False)

    @property
    def k_free(self) -> bool:
        """No failure and no top-k cut that dropped a page. The pipeline
        depends on k only through its cuts, so at any larger k it makes the
        same requests and its record differs only in ``k``."""
        return self.failure is None and not self.cut

    def to_json_dict(self) -> dict:
        predicted = self.predicted
        return {
            "system_id": self.system_id,
            "question_id": self.question_id,
            "k": self.k,
            "predicted": {**predicted.to_json_dict(), "raw_text": predicted.raw_text}
            if predicted else None,
            "retrieved_pages": [[d, p] for d, p in self.retrieved_pages],
            "chat_calls": self.chat_calls,
            "embed_calls": self.embed_calls,
            "failure": self.failure,
            "trace": self.trace,
            "plan_source": self.plan_source,
            "prompt_version": self.prompt_version,
        }

    @staticmethod
    def from_json_dict(raw: dict) -> "SystemRun":
        for name in ("system_id", "question_id"):
            if not isinstance(raw[name], str):
                raise TypeError(f"{name} must be a string, got {raw[name]!r}")
        for name, kind in (("failure", str), ("trace", dict), ("plan_source", str)):
            if not isinstance(raw.get(name), (kind, type(None))):
                raise TypeError(f"{name} must be a {kind.__name__} or null, got {raw[name]!r}")
        calls = (raw.get("trace") or {}).get("builtin_calls", [])
        if type(calls) is not list or not all(
            type(call) is list and len(call) == 3 and all(type(part) is str for part in call)
            for call in calls
        ):
            raise TypeError(
                f"trace.builtin_calls must be [name, args, result] string triples, got {calls!r}"
            )
        return SystemRun(
            system_id=raw["system_id"],
            question_id=raw["question_id"],
            k=typed(raw["k"], "k", int),
            predicted=Answer.from_json_dict(raw["predicted"]) if raw.get("predicted") else None,
            retrieved_pages=page_refs(raw["retrieved_pages"], "retrieved_pages"),
            chat_calls=typed(raw["chat_calls"], "chat_calls", int),
            embed_calls=typed(raw["embed_calls"], "embed_calls", int),
            failure=raw.get("failure"),
            trace=raw.get("trace"),
            plan_source=raw.get("plan_source"),
            prompt_version=raw.get("prompt_version", ""),
        )
