"""Synthetic filing corpus and fact table for benchmark sessions and tests.

Two flavors share one generator:

* ``clean`` -- every metric value sits on its own well-separated page of the
  right year's 10-K, so a system that selects the right document cannot miss.
* ``adversarial`` -- adds deliberately near-duplicate cross-year material.
  Each latest-year 10-K carries four "selected financial data" pages that are
  dense in revenue terms and mention every fiscal year (they out-rank the
  true revenue page for year-qualified revenue queries), and every overview
  page is dense in dividend terms (a wall of them out-ranks the real dividend
  pages for queries that name no year).

Page token counts are deliberate: they decide bag-of-words cosine ranks, and
the separation of the four QA systems on the adversarial corpus depends on
them. Change content templates only together with the rank assertions in the
test suite.
"""

from __future__ import annotations

import random
from datetime import date
from pathlib import Path

from .backends import token_slot, tokenize
from .corpus import (
    Document,
    DocumentCollection,
    FactRecord,
    FactTable,
    MetricDef,
    Page,
    save_collection,
    save_fact_table,
)

COMPANIES = [
    ("Argonix", "ARGX"),
    ("Boltara", "BLTA"),
    ("Cindrel", "CNDR"),
    ("Dovetra", "DVTR"),
    ("Eldrin", "ELDN"),
    ("Fornax", "FRNX"),
    ("Gravix", "GRVX"),
    ("Holmere", "HLMR"),
    ("Irydia", "IRYD"),
    ("Jantara", "JNTR"),
    ("Kelvor", "KLVR"),
    ("Lumantis", "LMNT"),
    ("Mirvane", "MRVN"),
    ("Nortella", "NRTL"),
    ("Ovestra", "OVST"),
    ("Pyrellia", "PYRL"),
    ("Quandor", "QNDR"),
    ("Ravonix", "RVNX"),
]

METRIC_DEFS = [
    MetricDef("total_revenue", "Total Revenue", "reported"),
    MetricDef("total_employees", "Total Employees", "reported"),
    MetricDef("dividends_paid", "Dividends Paid", "reported"),
    MetricDef("net_income", "Net Income", "reported"),
    MetricDef("short_term_debt", "Short Term Debt", "reported"),
    MetricDef("long_term_debt", "Long Term Debt", "reported"),
    MetricDef(
        "total_debt",
        "Total Debt",
        "compound",
        formula="short_term_debt + long_term_debt",
        description=(
            "Total Debt is a supplemental line item combining the following "
            "components:\nShort Term Debt\nLong Term Debt"
        ),
    ),
    MetricDef(
        "revenue_per_employee",
        "Revenue Per Employee",
        "compound",
        formula="total_revenue / total_employees",
        description=(
            "Revenue Per Employee is computed as Total Revenue divided by "
            "Total Employees."
        ),
    ),
]

# Extra phrasings the oracle extraction accepts per metric, on top of the
# display names.
ORACLE_METRIC_ALIASES = {
    "total_revenue": ["total revenues", "revenue"],
    "dividends_paid": ["dividends"],
    "total_employees": ["employees"],
}

_METRIC_PAGE = {
    "total_revenue": 2,
    "total_employees": 3,
    "dividends_paid": 4,
    "net_income": 5,
    "short_term_debt": 6,
    "long_term_debt": 7,
}

_DECOY_PAGES = (8, 9, 10, 11)

DEFAULT_YEARS = (2019, 2020, 2021, 2022, 2023)

# Tokens whose hashed-bag-of-words slots carry ranking signal: fiscal years,
# company names and tickers, metric vocabulary, and the surface words of the
# question templates and page templates. Numeric value strings are rejected
# at generation time if any of their tokens lands on one of these slots, so
# value digits can never perturb a retrieval rank.
SIGNAL_TOKENS = (
    "2015 2016 2017 2018 2019 2020 2021 2022 2023 "
    "total revenue revenues employees employee dividends dividend paid net "
    "income short long term debt return returned investors capital "
    "argonix boltara cindrel dovetra eldrin fornax gravix holmere irydia "
    "jantara kelvor lumantis mirvane nortella ovestra pyrellia quandor ravonix "
    "argx blta cndr dvtr eldn frnx grvx hlmr iryd jntr klvr lmnt mrvn nrtl "
    "ovst pyrl qndr rvnx "
    "coca cola abbott netflix honeywell caterpillar pfizer pepsico boeing "
    "ko abt nflx hon cat pfe pep ba "
    "s pay report business fiscal statements millions overview annual "
    "operations quarterly interim period us dollars what is the of in "
    "usd billions thousands units how much did last years year percentage "
    "difference compared to that overall growth over among highest lowest "
    "are and condensed unaudited figures notes disclosures where defined "
    "supplemental line item combining components computed divided by per "
    "selected financial data update"
).split()

_SIGNAL_SLOTS = frozenset(token_slot(t) for t in SIGNAL_TOKENS)


def _tokens_clean(text: str) -> bool:
    return all(token_slot(t) not in _SIGNAL_SLOTS for t in tokenize(text))


# Draws allowed per value before a window is taken to hold no clean value.
_MAX_DRAWS = 1000


def _series(
    rng: random.Random, lo: float, hi: float, g_lo: float, g_hi: float, n: int, quantize, fmt
):
    """Yearly values: the first drawn from [lo, hi), each later one grown by a
    factor from [g_lo, g_hi), so wrong-year answers always miss the 1% answer
    tolerance. A draw whose formatted digit tokens land on signal slots is
    redrawn; a window with no clean value raises ValueError."""

    def draw(sample):
        for _ in range(_MAX_DRAWS):
            value = sample()
            if _tokens_clean(fmt(quantize(value))):
                return value
        raise ValueError(
            f"no value with clean digit tokens in {_MAX_DRAWS} draws; "
            "this seed cannot build a bundle"
        )

    value = draw(lambda: rng.uniform(lo, hi))
    out = [quantize(value)]
    for _ in range(n - 1):
        value = draw(lambda: value * rng.uniform(g_lo, g_hi))
        out.append(quantize(value))
    return out


def _money_series(rng: random.Random, lo: float, hi: float, g_lo: float, g_hi: float, n: int):
    """1-decimal values in [100, 999.9] (millions)."""
    return _series(rng, lo, hi, g_lo, g_hi, n, lambda v: round(v, 1), _fmt_money)


def _employee_series(rng: random.Random, n: int):
    return _series(rng, 10_000, 200_000, 1.02, 1.08, n, _whole, _fmt_count)


def _dividend_series(rng: random.Random, n: int):
    return _series(rng, 100, 500, 1.03, 1.10, n, _whole, _fmt_dividend)


def _whole(value: float) -> float:
    return float(int(value))


def _fmt_money(value: float) -> str:
    return f"{value:,.1f}"


def _fmt_count(value: float) -> str:
    return f"{int(value):,}"


def _fmt_dividend(value: float) -> str:
    return str(int(value))


def _metric_page(company: str, metric_id: str, value: float, year: int) -> Page:
    number = _METRIC_PAGE[metric_id]
    if metric_id == "total_revenue":
        return Page(
            number,
            "Total Revenue",
            f"{company} total revenue {_fmt_money(value)} millions fiscal {year} statements",
            tables=((("Total Revenue", _fmt_money(value)),),),
        )
    if metric_id == "total_employees":
        return Page(
            number,
            "Total Employees",
            f"{company} total employees {_fmt_count(value)} fiscal {year}",
        )
    if metric_id == "dividends_paid":
        return Page(
            number,
            "Dividends Paid",
            f"{company} dividends paid {_fmt_dividend(value)} millions fiscal {year}",
        )
    if metric_id == "net_income":
        return Page(
            number,
            "Net Income",
            f"{company} net income {_fmt_money(value)} millions fiscal {year}",
        )
    if metric_id == "short_term_debt":
        return Page(
            number,
            "Short Term Debt",
            f"{company} short term debt {_fmt_money(value)} millions fiscal {year}",
        )
    return Page(
        number,
        "Long Term Debt",
        f"{company} long term debt {_fmt_money(value)} millions fiscal {year}",
    )


def make_bundle(
    kind: str = "clean",
    n_companies: int = 18,
    years: tuple[int, ...] = DEFAULT_YEARS,
    seed: int = 11,
) -> tuple[DocumentCollection, FactTable]:
    """Build the synthetic collection and fact table.

    Deterministic in (kind, n_companies, years, seed). Facts are sourced from
    10-K documents; each company also files a token-disjoint 10-Q per year so
    form-type filtering has something to filter.
    """
    if kind not in ("clean", "adversarial"):
        raise ValueError(f"unknown bundle kind {kind!r}")
    if not 1 <= n_companies <= len(COMPANIES):
        raise ValueError(f"n_companies must be in [1, {len(COMPANIES)}]")
    years = tuple(sorted(years))
    latest = years[-1]
    documents = []
    records = []
    for idx, (company, symbol) in enumerate(COMPANIES[:n_companies]):
        rng = random.Random(f"{seed}:{symbol}")
        series = {
            "total_revenue": _money_series(rng, 120, 480, 1.04, 1.12, len(years)),
            "total_employees": _employee_series(rng, len(years)),
            "dividends_paid": _dividend_series(rng, len(years)),
            "net_income": _money_series(rng, 100, 400, 1.03, 1.12, len(years)),
            "short_term_debt": _money_series(rng, 100, 450, 1.02, 1.08, len(years)),
            "long_term_debt": _money_series(rng, 100, 450, 1.02, 1.08, len(years)),
        }
        month = (idx % 12) + 1
        for y_i, year in enumerate(years):
            doc_id = f"{symbol.lower()}-10k-{year}"
            if kind == "adversarial":
                overview = Page(
                    1,
                    "Business Overview",
                    f"{company} dividends paid dividends paid dividends paid",
                )
            else:
                overview = Page(
                    1,
                    "Business Overview",
                    f"{company} annual report overview fiscal {year} business operations",
                )
            pages = [overview]
            for metric_id in _METRIC_PAGE:
                pages.append(_metric_page(company, metric_id, series[metric_id][y_i], year))
            if kind == "adversarial" and year == latest:
                summary = (
                    "total revenue total revenue total revenue total revenue "
                    f"{company} {' '.join(str(y) for y in years)} "
                    f"{_fmt_money(series['total_revenue'][y_i])}"
                )
                for number in _DECOY_PAGES:
                    pages.append(Page(number, "", summary))
            documents.append(
                Document(
                    doc_id=doc_id,
                    company_name=company,
                    stock_symbol=symbol,
                    form_type="10-K",
                    fiscal_year=year,
                    period_end_date=date(year, month, 28),
                    pages=tuple(pages),
                )
            )
            quarterly = Document(
                doc_id=f"{symbol.lower()}-10q-{year}",
                company_name=company,
                stock_symbol=symbol,
                form_type="10-Q",
                fiscal_year=year,
                period_end_date=date(year, (month + 5) % 12 + 1, 28),
                pages=(
                    Page(1, "Quarterly Update", f"{company} quarterly interim period {year}"),
                    Page(2, "Condensed Statements", f"{company} condensed unaudited figures {year}"),
                    Page(3, "Notes", f"{company} interim notes disclosures {year}"),
                ),
            )
            documents.append(quarterly)
            for metric_id, page_number in _METRIC_PAGE.items():
                source_pages = [page_number]
                if (
                    kind == "adversarial"
                    and year == latest
                    and metric_id == "total_revenue"
                ):
                    source_pages += list(_DECOY_PAGES)
                value = series[metric_id][y_i]
                multiplier = "units" if metric_id == "total_employees" else "millions"
                records.append(
                    FactRecord(
                        stock_symbol=symbol,
                        fiscal_year=year,
                        metric_id=metric_id,
                        value=value,
                        multiplier=multiplier,
                        source_doc_id=doc_id,
                        source_pages=tuple(source_pages),
                    )
                )
    collection = DocumentCollection(documents)
    table = FactTable(
        records=records,
        metric_defs=METRIC_DEFS,
        companies=[(c, s) for c, s in COMPANIES[:n_companies]],
    )
    return collection, table


def write_bundle(
    out_dir: str | Path,
    kind: str = "clean",
    n_companies: int = 18,
    years: tuple[int, ...] = DEFAULT_YEARS,
    seed: int = 11,
) -> tuple[DocumentCollection, FactTable]:
    """Materialize a bundle as a corpus directory; returns what it wrote."""
    collection, table = make_bundle(kind, n_companies, years, seed)
    out_dir = Path(out_dir)
    save_collection(collection, out_dir)
    save_fact_table(table, out_dir)
    return collection, table
