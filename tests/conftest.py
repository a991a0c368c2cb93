from __future__ import annotations

from datetime import date

import pytest

from mdqa.backends import HashedBowEmbedder
from mdqa.corpus import (
    Document,
    DocumentCollection,
    FactRecord,
    FactTable,
    MetricDef,
    Page,
)
from mdqa.retrieval import EMBED_INPUT_MAX_CHARS, ScoredPage, build_index
from mdqa.synth import ORACLE_METRIC_ALIASES, make_bundle


def make_doc(
    doc_id: str,
    symbol: str = "ACME",
    name: str = "Acme Corp",
    form_type: str = "10-K",
    year: int = 2022,
    period_end: date = date(2022, 12, 31),
    pages: tuple[Page, ...] = (Page(1, "Overview", "acme overview"),),
) -> Document:
    return Document(
        doc_id=doc_id,
        company_name=name,
        stock_symbol=symbol,
        form_type=form_type,
        fiscal_year=year,
        period_end_date=period_end,
        pages=pages,
    )


def unit_rows(pages, embed_backend):
    """Float64 unit vectors of the embedder's rows for ``pages``, computed as
    ``build_index`` embeds a page and ``PageIndex`` normalizes its row."""
    import numpy as np

    texts = [f"{page.title}\n{page.content}"[:EMBED_INPUT_MAX_CHARS] for page in pages]
    rows = embed_backend.embed(texts).astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms > 0, norms, 1.0)[:, None]


def reference_retrieve(query, docs, k, embed_backend):
    """The per-page Python loop that retrieval used before span scoring."""
    import numpy as np

    refs = [(doc.doc_id, page.page_number) for doc in docs for page in doc.pages]
    matrix = unit_rows([page for doc in docs for page in doc.pages], embed_backend)
    q = np.asarray(embed_backend.embed([query])[0]).astype(np.float64)
    norm = np.linalg.norm(q)
    if norm > 0:
        q = q / norm
    # Each row reduced on its own, as the index scores it.
    scores = np.clip(np.einsum("ij,j->i", matrix, q), -1.0, 1.0)
    order = sorted(range(len(refs)), key=lambda i: (-scores[i], refs[i][0], refs[i][1]))
    return [ScoredPage(page_ref=refs[i], score=float(scores[i])) for i in order[:k]]


@pytest.fixture(scope="session")
def clean_bundle():
    return make_bundle("clean", n_companies=18, seed=11)


@pytest.fixture(scope="session")
def adversarial_bundle():
    return make_bundle("adversarial", n_companies=18, seed=11)


@pytest.fixture(scope="session")
def clean_index(clean_bundle):
    collection, _ = clean_bundle
    return build_index(collection, HashedBowEmbedder())


@pytest.fixture(scope="session")
def adversarial_index(adversarial_bundle):
    collection, _ = adversarial_bundle
    return build_index(collection, HashedBowEmbedder())


@pytest.fixture()
def metric_aliases():
    return dict(ORACLE_METRIC_ALIASES)


# ---------------------------------------------------------------------------
# The companies-and-metrics fixture behind the few-shot demonstration plans
# ---------------------------------------------------------------------------

DEMO_ALIASES = {
    "capital_return": [
        "return to the investors",
        "return to investors",
        "returned to the investors",
    ],
    "dividends_paid": ["dividends"],
    "total_revenue": ["total revenues", "total revenue", "revenue"],
    "total_debt": ["total debt"],
}

DEMO_DEBTS_2023 = {
    "HON": 30.2,
    "CAT": 37.9,
    "PFE": 3.1,
    "PEP": 44.1,
    "BA": 57.6,
}


def _demo_page(number: int, company: str, phrase: str, value: float, mult: str, year: int) -> Page:
    return Page(
        number,
        phrase.title(),
        f"{company} {phrase} {value} {mult} fiscal {year}",
    )


@pytest.fixture(scope="session")
def demo_world():
    """Collection, fact table, and index for the few-shot demonstration plans."""
    companies = [
        ("Coca-Cola", "KO"),
        ("Abbott", "ABT"),
        ("Netflix", "NFLX"),
        ("Honeywell", "HON"),
        ("Caterpillar", "CAT"),
        ("Pfizer", "PFE"),
        ("PepsiCo", "PEP"),
        ("Boeing", "BA"),
    ]
    metric_defs = [
        MetricDef("dividends_paid", "Dividends Paid", "reported"),
        MetricDef("total_revenue", "Total Revenues", "reported"),
        MetricDef("total_debt", "Total Debt", "reported"),
        MetricDef("capital_return", "Return to Investors", "reported"),
    ]
    docs = []
    records = []

    def add_fact(symbol, name, year, metric_id, phrase, value, mult, page=1):
        doc_id = f"{symbol.lower()}-10k-{year}"
        existing = next((d for d in docs if d.doc_id == doc_id), None)
        new_page = _demo_page(page, name, phrase, value, mult, year)
        if existing is None:
            docs.append(
                Document(
                    doc_id=doc_id,
                    company_name=name,
                    stock_symbol=symbol,
                    form_type="10-K",
                    fiscal_year=year,
                    period_end_date=date(year, 12, 28),
                    pages=(new_page,),
                )
            )
        else:
            docs.remove(existing)
            docs.append(
                Document(
                    doc_id=doc_id,
                    company_name=name,
                    stock_symbol=symbol,
                    form_type="10-K",
                    fiscal_year=year,
                    period_end_date=date(year, 12, 28),
                    pages=existing.pages + (new_page,),
                )
            )
        records.append(
            FactRecord(
                stock_symbol=symbol,
                fiscal_year=year,
                metric_id=metric_id,
                value=value,
                multiplier=mult,
                source_doc_id=doc_id,
                source_pages=(page,),
            )
        )

    add_fact("KO", "Coca-Cola", 2017, "dividends_paid", "dividends paid", 6320.0, "millions")
    add_fact("ABT", "Abbott", 2021, "total_revenue", "total revenues", 100.0, "billions")
    add_fact("ABT", "Abbott", 2023, "total_revenue", "total revenues", 150.0, "billions")
    for year, value in ((2021, 1.0), (2022, 2.0), (2023, 3.0)):
        add_fact("NFLX", "Netflix", year, "capital_return", "return to investors", value, "billions")
    for symbol, debt in DEMO_DEBTS_2023.items():
        name = dict((s, n) for n, s in companies)[symbol]
        add_fact(symbol, name, 2023, "total_debt", "total debt", debt, "billions")
    add_fact("PFE", "Pfizer", 2023, "total_revenue", "total revenues", 58.5, "billions", page=2)

    collection = DocumentCollection(docs)
    table = FactTable(records=records, metric_defs=metric_defs, companies=companies)
    embedder = HashedBowEmbedder()
    index = build_index(collection, embedder)
    return collection, table, index, embedder
