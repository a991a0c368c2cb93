"""Filing collection and fact table: loading, validation, selection, provenance.

A corpus directory holds three files:

* ``collection.jsonl`` -- one document per line, each with company metadata
  and a list of page objects (title, content, tables).
* ``facts.jsonl`` -- one fact record per line: (stock_symbol, fiscal_year,
  metric_id, value, multiplier) plus the source document and pages.
* ``metrics.json`` -- the metric definitions, reported or compound.

Collections and fact tables are immutable after loading and safe to share
across threads.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import asdict, dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Optional

from .files import read_json, read_jsonl, write_json, write_jsonl
from .records import typed

FORM_TYPES = ("10-K", "10-Q", "8-K")

MULTIPLIER_SCALE = {
    "units": 1.0,
    "thousands": 1e3,
    "millions": 1e6,
    "billions": 1e9,
}

# Ordered smallest to largest scale; used to enumerate value renderings.
_MULTIPLIER_ORDER = ("units", "thousands", "millions", "billions")

_CORPORATE_SUFFIXES = (
    "inc", "inc.", "incorporated", "corp", "corp.", "corporation",
    "co", "co.", "company", "ltd", "ltd.", "plc",
)


class CorpusError(Exception):
    """A corpus file violates the schema or a collection invariant."""


class UnknownDocumentError(CorpusError):
    """A document or page reference does not resolve in the collection."""


class FormulaError(CorpusError):
    """A compound metric formula does not parse, references unknown metrics
    or reaches the metric it defines."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Page:
    """One page of a filing: machine-detected title, text content, tables.

    ``tables`` is a tuple of rectangular grids; each grid is a tuple of rows,
    each row a tuple of text cells. Every row in a grid has the same width.
    """

    page_number: int
    title: str
    content: str
    tables: tuple[tuple[tuple[str, ...], ...], ...] = ()


@dataclass(frozen=True)
class Document:
    """A single filing with metadata and ordered pages."""

    doc_id: str
    company_name: str
    stock_symbol: str
    form_type: str
    fiscal_year: int
    period_end_date: date
    pages: tuple[Page, ...]

    def signature(self) -> tuple[str, str, int, date]:
        return (self.stock_symbol, self.form_type, self.fiscal_year, self.period_end_date)


@dataclass(frozen=True)
class MetricDef:
    """A metric definition.

    Reported metrics have values in the fact table. Compound metrics carry an
    arithmetic ``formula`` over other metric ids and a ``description`` that is
    appended to question text so the formula is answerable from filings.
    """

    metric_id: str
    display_name: str
    kind: str  # "reported" | "compound"
    formula: Optional[str] = None
    description: str = ""


@dataclass(frozen=True)
class FactRecord:
    """One (company, fiscal year, metric) value with document provenance."""

    stock_symbol: str
    fiscal_year: int
    metric_id: str
    value: float
    multiplier: str
    source_doc_id: str
    source_pages: tuple[int, ...]

    @property
    def normalized(self) -> float:
        """Value in base units (US dollars for money, plain count otherwise)."""
        return self.value * MULTIPLIER_SCALE[self.multiplier]


@dataclass(frozen=True)
class DocumentFilter:
    """Conditions a document must satisfy to be selected.

    Every non-empty condition must hold, except that ``companies`` and
    ``stock_symbols`` are not mutually exclusive: when either list is
    non-empty, a document matches the company condition if its name is in
    ``companies`` or its ticker is in ``stock_symbols``.
    """

    companies: Optional[tuple[str, ...]] = None
    stock_symbols: Optional[tuple[str, ...]] = None
    form_types: Optional[tuple[str, ...]] = None
    fiscal_years: Optional[tuple[int, ...]] = None
    period_end_start: Optional[date] = None
    period_end_end: Optional[date] = None

    def __post_init__(self) -> None:
        if (
            self.period_end_start is not None
            and self.period_end_end is not None
            and self.period_end_start > self.period_end_end
        ):
            raise ValueError("period_end_start must not exceed period_end_end")


class DocumentCollection:
    """An immutable set of documents, indexed by id and by page."""

    def __init__(self, documents: Iterable[Document]):
        self.documents: tuple[Document, ...] = tuple(documents)
        if not self.documents:
            raise CorpusError("collection is empty")
        self._by_id: dict[str, Document] = {}
        self._pages: dict[tuple[str, int], Page] = {}
        self._signatures: dict[str, tuple[str, str, int, str]] = {}
        # ("symbol", ticker), ("name", lowered name) and ("short", lowered
        # name without corporate suffixes) -> documents, for select_documents.
        self._by_company: dict[tuple[str, str], list[Document]] = {}
        seen_identity: set[tuple[str, str, int, date]] = set()
        for doc in self.documents:
            if doc.doc_id in self._by_id:
                raise CorpusError(f"duplicate doc_id {doc.doc_id!r}")
            identity = doc.signature()
            if identity in seen_identity:
                raise CorpusError(
                    f"doc {doc.doc_id!r}: duplicate identity "
                    f"(symbol={identity[0]}, form={identity[1]}, "
                    f"year={identity[2]}, period_end={identity[3].isoformat()})"
                )
            seen_identity.add(identity)
            self._by_id[doc.doc_id] = doc
            self._signatures[doc.doc_id] = (*identity[:3], identity[3].isoformat())
            full, short = _company_keys(doc.company_name)
            for key in (("symbol", doc.stock_symbol), ("name", full), ("short", short)):
                self._by_company.setdefault(key, []).append(doc)
            for page in doc.pages:
                self._pages[(doc.doc_id, page.page_number)] = page

    def __len__(self) -> int:
        return len(self.documents)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DocumentCollection) and self.documents == other.documents

    def get_document(self, doc_id: str) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"unknown doc_id {doc_id!r}") from None

    def has_document(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def get_page(self, doc_id: str, page_number: int) -> Page:
        try:
            return self._pages[(doc_id, page_number)]
        except KeyError:
            self.get_document(doc_id)
            raise UnknownDocumentError(
                f"doc {doc_id!r} has no page {page_number}"
            ) from None

    def signature_of(self, doc_id: str) -> tuple[str, str, int, str]:
        """A document's (symbol, form type, fiscal year, ISO period end),
        computed once per document."""
        try:
            return self._signatures[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"unknown doc_id {doc_id!r}") from None

    def page_signature(self, page_ref: tuple[str, int]) -> tuple[str, str, int, str]:
        """``signature_of`` the document owning a page, which must exist."""
        doc_id, page_number = page_ref
        if (doc_id, page_number) not in self._pages:
            self.get_page(doc_id, page_number)  # raises UnknownDocumentError
        return self._signatures[doc_id]

    @property
    def page_count(self) -> int:
        return len(self._pages)


class FactTable:
    """The key-value-document table grounding gold answers.

    At most one record exists per (stock_symbol, fiscal_year, metric_id).
    """

    def __init__(
        self,
        records: Iterable[FactRecord],
        metric_defs: Iterable[MetricDef],
        companies: Iterable[tuple[str, str]],
    ):
        self.records: tuple[FactRecord, ...] = tuple(records)
        self.metric_defs: tuple[MetricDef, ...] = tuple(metric_defs)
        self.companies: tuple[tuple[str, str], ...] = tuple(companies)
        self._metrics: dict[str, MetricDef] = {}
        for m in self.metric_defs:
            if m.metric_id in self._metrics:
                raise CorpusError(f"duplicate metric_id {m.metric_id!r}")
            self._metrics[m.metric_id] = m
        self._validate_metric_defs()
        self._by_key: dict[tuple[str, int, str], FactRecord] = {}
        for rec in self.records:
            key = (rec.stock_symbol, rec.fiscal_year, rec.metric_id)
            if key in self._by_key:
                raise CorpusError(
                    f"duplicate fact for (symbol={key[0]}, year={key[1]}, metric={key[2]})"
                )
            if rec.metric_id not in self._metrics:
                raise CorpusError(
                    f"fact references unknown metric_id {rec.metric_id!r}"
                )
            self._by_key[key] = rec
        self._name_by_symbol = {sym: name for name, sym in self.companies}

    def _validate_metric_defs(self) -> None:
        refs: dict[str, set[str]] = {}  # compound metric -> the ids it names
        for m in self.metric_defs:
            if m.kind == "reported":
                if m.formula:
                    raise FormulaError(
                        f"reported metric {m.metric_id!r} must not carry a formula"
                    )
            elif m.kind == "compound":
                if not m.formula:
                    raise FormulaError(f"compound metric {m.metric_id!r} lacks a formula")
                try:
                    node = parse_formula(m.formula)
                except FormulaError as exc:
                    raise FormulaError(f"compound metric {m.metric_id!r}: {exc}") from None
                refs[m.metric_id] = formula_refs(node)
                unknown = refs[m.metric_id] - set(self._metrics)
                if unknown:
                    raise FormulaError(
                        f"compound metric {m.metric_id!r} references unknown "
                        f"metric ids: {sorted(unknown)}"
                    )
            else:
                raise CorpusError(f"metric {m.metric_id!r}: bad kind {m.kind!r}")
        for metric_id in refs:
            reached, todo = set(), list(refs[metric_id])
            while todo:
                ref = todo.pop()
                if ref == metric_id:
                    raise FormulaError(f"compound metric {metric_id!r} is defined through itself")
                if ref not in reached:
                    reached.add(ref)
                    todo += refs.get(ref, ())

    def get(self, stock_symbol: str, fiscal_year: int, metric_id: str) -> Optional[FactRecord]:
        return self._by_key.get((stock_symbol.upper(), fiscal_year, metric_id))

    def metric(self, metric_id: str) -> MetricDef:
        try:
            return self._metrics[metric_id]
        except (KeyError, TypeError):
            raise CorpusError(f"unknown metric_id {metric_id!r}") from None

    def has_metric(self, metric_id: str) -> bool:
        return metric_id in self._metrics

    def company_name(self, stock_symbol: str) -> str:
        try:
            return self._name_by_symbol[stock_symbol.upper()]
        except (AttributeError, KeyError):
            raise CorpusError(f"unknown stock symbol {stock_symbol!r}") from None

    def symbols(self) -> list[str]:
        return sorted(self._name_by_symbol)

    def years(self) -> list[int]:
        return sorted({rec.fiscal_year for rec in self.records})

    def reported_metric_ids(self) -> list[str]:
        return sorted(m.metric_id for m in self.metric_defs if m.kind == "reported")

    def compound_metric_ids(self) -> list[str]:
        return sorted(m.metric_id for m in self.metric_defs if m.kind == "compound")


# ---------------------------------------------------------------------------
# Compound metric formulas
# ---------------------------------------------------------------------------

# A formula is Python arithmetic over metric ids: names and numbers spelt as
# below, ``+ - * /`` and parentheses. Python reads more spellings (``1e5``,
# ``0x1F``, ``1_000``, non-ASCII names), so each word between the operators is
# checked before ``ast.parse``. Deeper trees are refused, so walking one
# recurses a bounded number of times.
_FORMULA_WORD = re.compile(r"[^\s()+\-*/]+")
_FORMULA_SPELLING = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?")
FORMULA_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
MAX_FORMULA_DEPTH = 100


def parse_formula(text: str) -> ast.expr:
    """Parse an arithmetic expression over metric ids into Python's tree of it.

    Nodes: ``Constant`` (a number), ``Name`` (a metric id) and ``BinOp``
    (``+ - * /``); a tree is at most ``MAX_FORMULA_DEPTH`` nodes deep.
    """
    for word in _FORMULA_WORD.findall(text):
        if not _FORMULA_SPELLING.fullmatch(word):
            raise FormulaError(f"bad formula token {word!r}")
        if word[0].isdigit() and math.isinf(float(word)):
            raise FormulaError("formula number is too large for a float")
    try:
        tree = ast.parse(text.strip(), mode="eval").body
    except SyntaxError as exc:
        raise FormulaError(f"bad formula: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise FormulaError("formula nests too deeply for Python's parser") from None
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_FORMULA_DEPTH:
            raise FormulaError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in FORMULA_OPERATORS:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif not isinstance(node, ast.Name) and not (
            isinstance(node, ast.Constant) and type(node.value) in (int, float)
        ):
            what = type(getattr(node, "op", node)).__name__
            raise FormulaError(f"{what} is not allowed in a formula")
    return tree


def formula_refs(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def eval_formula(node: ast.expr, values: dict[str, float]) -> float:
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        return values[node.id]
    a = eval_formula(node.left, values)
    b = eval_formula(node.right, values)
    op = type(node.op)
    if op is ast.Add:
        return a + b
    if op is ast.Sub:
        return a - b
    if op is ast.Mult:
        return a * b
    if b == 0:
        raise ZeroDivisionError("division by zero in compound metric formula")
    return a / b


# ---------------------------------------------------------------------------
# Loading and saving
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, ctx: str):
    if not isinstance(obj, dict) or key not in obj:
        raise CorpusError(f"{ctx}: missing field {key!r}")
    return obj[key]


def _parse_date(text, ctx: str) -> date:
    try:
        return date.fromisoformat(text)
    except (TypeError, ValueError):
        raise CorpusError(f"{ctx}: bad date {text!r}, expected yyyy-mm-dd") from None


def _page_from_dict(raw: dict, ctx: str) -> Page:
    number = _require(raw, "page_number", ctx)
    if not isinstance(number, int) or number < 1:
        raise CorpusError(f"{ctx}: page_number must be a positive integer, got {number!r}")
    content = _require(raw, "content", ctx)
    if not isinstance(content, str):
        raise CorpusError(f"{ctx}: content must be text")
    title = raw.get("title", "")
    if not isinstance(title, str):
        raise CorpusError(f"{ctx}: title must be text")
    tables = []
    for t_i, grid in enumerate(raw.get("tables", [])):
        widths = {len(row) for row in grid}
        if len(widths) > 1:
            raise CorpusError(f"{ctx}: tables[{t_i}] rows have unequal cell counts")
        tables.append(tuple(tuple(str(c) for c in row) for row in grid))
    return Page(page_number=number, title=title, content=content, tables=tuple(tables))


def _document_from_dict(raw: dict) -> Document:
    doc_id = raw.get("doc_id")
    if not doc_id or not isinstance(doc_id, str):
        raise CorpusError(f"document with missing or invalid doc_id: {raw.get('doc_id')!r}")
    ctx = f"doc {doc_id!r}"
    symbol = _require(raw, "stock_symbol", ctx)
    if not isinstance(symbol, str) or not symbol.strip():
        raise CorpusError(f"{ctx}: stock_symbol must be non-empty text")
    form_type = _require(raw, "form_type", ctx)
    if form_type not in FORM_TYPES:
        raise CorpusError(f"{ctx}: form_type must be one of {FORM_TYPES}, got {form_type!r}")
    fiscal_year = typed(_require(raw, "fiscal_year", ctx), "fiscal_year", int)
    company_name = typed(_require(raw, "company_name", ctx), "company_name", str)
    period_end = _parse_date(_require(raw, "period_end_date", ctx), ctx)
    pages_raw = _require(raw, "pages", ctx)
    if not pages_raw:
        raise CorpusError(f"{ctx}: pages must be non-empty")
    pages = []
    last_number = 0
    for i, page_raw in enumerate(pages_raw):
        page = _page_from_dict(page_raw, f"{ctx}: pages[{i}]")
        if page.page_number <= last_number:
            raise CorpusError(f"{ctx}: page_numbers must be strictly increasing")
        last_number = page.page_number
        pages.append(page)
    return Document(
        doc_id=doc_id,
        company_name=company_name,
        stock_symbol=symbol.strip().upper(),
        form_type=form_type,
        fiscal_year=fiscal_year,
        period_end_date=period_end,
        pages=tuple(pages),
    )


def _document_to_dict(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "company_name": doc.company_name,
        "stock_symbol": doc.stock_symbol,
        "form_type": doc.form_type,
        "fiscal_year": doc.fiscal_year,
        "period_end_date": doc.period_end_date.isoformat(),
        "pages": [
            {
                "page_number": p.page_number,
                "title": p.title,
                "content": p.content,
                "tables": [[list(row) for row in grid] for grid in p.tables],
            }
            for p in doc.pages
        ],
    }


def load_collection(path: str | Path) -> DocumentCollection:
    """Load and validate a document collection.

    ``path`` may be a corpus directory (containing ``collection.jsonl``) or
    the jsonl file itself.
    """
    path = Path(path)
    file_path = path / "collection.jsonl" if path.is_dir() else path
    if not file_path.exists():
        raise CorpusError(f"collection file not found: {file_path}")
    return DocumentCollection(read_jsonl(file_path, _document_from_dict))


def save_collection(collection: DocumentCollection, path: str | Path) -> Path:
    """Write ``collection.jsonl`` under directory ``path``; returns the file path."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return write_jsonl(
        path / "collection.jsonl", (_document_to_dict(doc) for doc in collection.documents)
    )


def _fact_from_dict(raw: dict, ctx: str) -> FactRecord:
    symbol = typed(_require(raw, "stock_symbol", ctx), "stock_symbol", str).strip().upper()
    multiplier = _require(raw, "multiplier", ctx)
    if multiplier not in MULTIPLIER_SCALE:
        raise CorpusError(f"{ctx}: bad multiplier {multiplier!r}")
    value = typed(_require(raw, "value", ctx), "value", int, float)
    normalized = float(value) * MULTIPLIER_SCALE[multiplier]
    if normalized != normalized or normalized in (float("inf"), float("-inf")):
        raise CorpusError(f"{ctx}: normalized value is not finite")
    pages = typed(_require(raw, "source_pages", ctx), "source_pages", list)
    return FactRecord(
        stock_symbol=symbol,
        fiscal_year=typed(_require(raw, "fiscal_year", ctx), "fiscal_year", int),
        metric_id=typed(_require(raw, "metric_id", ctx), "metric_id", str),
        value=float(value),
        multiplier=multiplier,
        source_doc_id=typed(_require(raw, "source_doc_id", ctx), "source_doc_id", str),
        source_pages=tuple(typed(p, "a source page", int) for p in pages),
    )


def load_fact_table(path: str | Path, collection: DocumentCollection) -> FactTable:
    """Load facts.jsonl and metrics.json, validating provenance against ``collection``."""
    path = Path(path)
    facts_path = path / "facts.jsonl" if path.is_dir() else path
    metrics_path = facts_path.parent / "metrics.json"
    if not facts_path.exists():
        raise CorpusError(f"facts file not found: {facts_path}")
    if not metrics_path.exists():
        raise CorpusError(f"metrics file not found: {metrics_path}")
    metric_defs = []
    for m in read_json(metrics_path, list):
        try:
            metric_id, display_name, kind = (
                typed(_require(m, name, "metrics.json"), name, str)
                for name in ("metric_id", "display_name", "kind")
            )
        except TypeError as exc:
            raise CorpusError(f"{metrics_path}: {exc}") from None
        formula = m.get("formula")
        if formula is not None and not isinstance(formula, str):
            raise CorpusError(f"{metrics_path}: metric {metric_id!r}: formula must be a string")
        metric_defs.append(
            MetricDef(
                metric_id=metric_id,
                display_name=display_name,
                kind=kind,
                formula=formula,
                description=m.get("description", ""),
            )
        )
    records = []
    for n, raw in enumerate(read_jsonl(facts_path, lambda raw: raw), start=1):
        ctx = f"{facts_path} record {n}"
        try:
            rec = _fact_from_dict(raw, ctx)
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"{ctx}: {exc}") from None
        if not collection.has_document(rec.source_doc_id):
            raise CorpusError(f"{ctx}: source_doc_id {rec.source_doc_id!r} not in collection")
        doc = collection.get_document(rec.source_doc_id)
        page_numbers = {p.page_number for p in doc.pages}
        for page in rec.source_pages:
            if page not in page_numbers:
                raise CorpusError(
                    f"{ctx}: source page {page} not in doc {rec.source_doc_id!r}"
                )
        records.append(rec)
    companies = sorted({(d.company_name, d.stock_symbol) for d in collection.documents})
    return FactTable(records=records, metric_defs=metric_defs, companies=companies)


def save_fact_table(table: FactTable, path: str | Path) -> None:
    """Write facts.jsonl and metrics.json under directory ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_jsonl(path / "facts.jsonl", map(asdict, table.records))
    # metrics.json has no trailing newline; the pinned bundle bytes include it.
    write_json(path / "metrics.json", [asdict(m) for m in table.metric_defs], end="")


# ---------------------------------------------------------------------------
# Selection and provenance
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _company_keys(name: str) -> tuple[str, str]:
    """``name`` lowered, and lowered without trailing corporate suffixes."""
    lowered = name.lower()
    tokens = lowered.split()
    while tokens and tokens[-1] in _CORPORATE_SUFFIXES:
        tokens.pop()
    return lowered, " ".join(tokens)


def select_documents(
    collection: DocumentCollection, doc_filter: DocumentFilter
) -> list[Document]:
    """Return documents satisfying every non-empty filter condition.

    Company names and stock symbols form a single OR-condition. Results are
    ordered by (stock_symbol, fiscal_year, form_type, period_end_date); an
    empty list is a valid outcome.
    """
    wanted = [_company_keys(name) for name in doc_filter.companies or ()]
    symbols = [s.upper() for s in (doc_filter.stock_symbols or ())]
    if wanted or symbols:
        keys = [("symbol", s) for s in symbols]
        keys += [("name", full) for full, _ in wanted] + [("short", short) for _, short in wanted]
        found = {doc.doc_id: doc for key in keys for doc in collection._by_company.get(key, ())}
        candidates = found.values()
    else:
        candidates = collection.documents
    out = []
    for doc in candidates:
        if doc_filter.form_types and doc.form_type not in doc_filter.form_types:
            continue
        if doc_filter.fiscal_years and doc.fiscal_year not in doc_filter.fiscal_years:
            continue
        if doc_filter.period_end_start and doc.period_end_date < doc_filter.period_end_start:
            continue
        if doc_filter.period_end_end and doc.period_end_date > doc_filter.period_end_end:
            continue
        out.append(doc)
    out.sort(key=lambda d: (d.stock_symbol, d.fiscal_year, d.form_type, d.period_end_date))
    return out


# ---------------------------------------------------------------------------
# String-match findability
# ---------------------------------------------------------------------------


def render_value_variants(value: float, multiplier: str) -> list[str]:
    """All plausible textual renderings of a value across reporting scales.

    For each scale at or above the record's own multiplier, the normalized
    value is re-expressed at that scale and formatted with comma grouping at
    0, 1, and 2 decimal places (trailing zeros dropped). Renderings that
    cannot anchor a match are excluded: scales where the value drops below 1,
    whole-number renderings below 10, and any final string shorter than 3
    characters (those match essentially any digit run).
    """
    if multiplier not in MULTIPLIER_SCALE:
        raise ValueError(f"bad multiplier {multiplier!r}")
    base = value * MULTIPLIER_SCALE[multiplier]
    start = _MULTIPLIER_ORDER.index(multiplier)
    variants = []
    for scale_name in _MULTIPLIER_ORDER[start:]:
        scaled = base / MULTIPLIER_SCALE[scale_name]
        if scaled != 0 and abs(scaled) < 1 and scale_name != multiplier:
            continue
        for places in (0, 1, 2):
            if places == 0 and abs(scaled) < 10 and scale_name != multiplier:
                continue
            text = f"{scaled:,.{places}f}"
            if "." in text:
                text = text.rstrip("0").rstrip(".")
            if text == "-0":
                text = "0"
            if len(text) < 3 and scale_name != multiplier:
                continue
            if text not in variants:
                variants.append(text)
    return variants


def value_findable_in_doc(value: float, multiplier: str, doc: Document) -> bool:
    """True when any rendering of the value appears in page text or table cells."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("value must be finite")
    variants = render_value_variants(value, multiplier)
    for page in doc.pages:
        for text in variants:
            if text in page.content:
                return True
        for grid in page.tables:
            for row in grid:
                for cell in row:
                    for text in variants:
                        if text in cell:
                            return True
    return False
