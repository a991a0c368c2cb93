from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mdqa

from mdqa.backends import HashedBowEmbedder, token_slot, tokenize
from mdqa.corpus import value_findable_in_doc
from mdqa.retrieval import build_index, retrieve_relevant_pages
from mdqa.evaluation import RELATIVE_TOLERANCE
from mdqa.synth import (
    _SIGNAL_SLOTS,
    DEFAULT_YEARS,
    _fmt_count,
    _fmt_dividend,
    _fmt_money,
    _series,
    _whole,
    make_bundle,
    write_bundle,
)

_RENDER = {"total_employees": _fmt_count, "dividends_paid": _fmt_dividend}


def _cosine(query: str, text: str) -> float:
    def counts(s):
        c: Counter = Counter()
        for token in tokenize(s):
            c[token_slot(token)] += 1
        return c

    q, p = counts(query), counts(text)
    dot = sum(q[slot] * p.get(slot, 0) for slot in q)
    nq = math.sqrt(sum(v * v for v in q.values()))
    np_ = math.sqrt(sum(v * v for v in p.values()))
    return 0.0 if nq == 0 or np_ == 0 else dot / (nq * np_)


def test_bundle_deterministic():
    a_col, a_table = make_bundle("clean", n_companies=4, seed=11)
    b_col, b_table = make_bundle("clean", n_companies=4, seed=11)
    assert a_col == b_col
    assert a_table.records == b_table.records


def test_bundle_shape(clean_bundle):
    collection, table = clean_bundle
    # 18 companies x 5 years x (10-K + 10-Q)
    assert len(collection) == 180
    assert collection.page_count == 900
    assert len(table.records) == 18 * 5 * 6


def test_adversarial_adds_decoy_pages(adversarial_bundle):
    collection, table = adversarial_bundle
    assert collection.page_count == 900 + 18 * 4
    doc = collection.get_document("argx-10k-2023")
    decoys = [p for p in doc.pages if p.page_number >= 8]
    assert len(decoys) == 4
    assert all("total revenue" in p.content for p in decoys)
    rec = table.get("ARGX", 2023, "total_revenue")
    assert set(rec.source_pages) == {2, 8, 9, 10, 11}


def test_values_never_use_signal_slots(clean_bundle):
    # Digit tokens from rendered values must not collide into slots used by
    # years, names, or metric words; otherwise ranks could flip with the seed.
    collection, table = clean_bundle
    from mdqa.synth import _fmt_count, _fmt_dividend, _fmt_money

    for rec in table.records:
        if rec.metric_id == "total_employees":
            rendered = _fmt_count(rec.value)
        elif rec.metric_id == "dividends_paid":
            rendered = _fmt_dividend(rec.value)
        else:
            rendered = _fmt_money(rec.value)
        for token in tokenize(rendered):
            assert token_slot(token) not in _SIGNAL_SLOTS


def test_values_stay_single_group(clean_bundle):
    # Money values keep three integer digits so they always tokenize the same
    # way; employee counts keep exactly one comma group.
    _, table = clean_bundle
    for rec in table.records:
        if rec.metric_id == "total_employees":
            assert 1_000 <= rec.value < 1_000_000
        elif rec.metric_id == "dividends_paid":
            assert 100 <= rec.value <= 999
        else:
            assert 100.0 <= rec.value <= 999.9


def test_cross_year_values_separated_beyond_tolerance(clean_bundle):
    # Any wrong-year substitute answer must miss the 1% answer tolerance.
    _, table = clean_bundle
    for name, sym in table.companies:
        for metric in table.reported_metric_ids():
            values = [table.get(sym, y, metric).normalized for y in range(2019, 2024)]
            for a, b in zip(values, values[1:]):
                assert abs(a - b) / max(abs(a), abs(b)) > 0.012


def test_single_value_facts_findable(clean_bundle):
    collection, table = clean_bundle
    for rec in table.records[::11]:
        doc = collection.get_document(rec.source_doc_id)
        assert value_findable_in_doc(rec.value, rec.multiplier, doc)


def test_write_bundle_round_trip(tmp_path):
    from mdqa.corpus import load_collection, load_fact_table

    collection, table = write_bundle(tmp_path, kind="clean", n_companies=3)
    loaded = load_collection(tmp_path)
    assert loaded == collection
    loaded_table = load_fact_table(tmp_path, loaded)
    assert loaded_table.records == table.records


def test_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_bundle("weird")


@pytest.mark.parametrize(
    "kind,collection_sha,facts_sha",
    [
        ("clean", "a22bbe8350a6e9b6", "eb4ac99f66d779e2"),
        ("adversarial", "41397c2d0889d1ce", "e5325e0a537ba032"),
    ],
    ids=["clean", "adversarial"],
)
def test_default_seed_bundle_bytes_pinned(tmp_path, kind, collection_sha, facts_sha):
    # Sessions and the session benchmark are built on the seed-11 bundle; a
    # change to value drawing must leave its bytes alone.
    write_bundle(tmp_path, kind=kind)

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]

    assert (digest("collection.jsonl"), digest("facts.jsonl")) == (collection_sha, facts_sha)


def test_synth_seed_without_clean_values_exits_2(tmp_path):
    # Seed 4 draws an employee-count growth window in which every value has a
    # digit token on a signal slot; with no redraw of the year before allowed,
    # it cannot build. Run in a child process, so a sampler that redraws
    # forever fails the test instead of hanging the suite.
    code = "import mdqa.synth; mdqa.synth._MAX_REDRAWS = 0; from mdqa.cli import main; main()"
    result = subprocess.run(
        [sys.executable, "-c", code, "synth", str(tmp_path / "bundle"), "--seed", "4"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(mdqa.__file__).resolve().parents[1])},
    )
    assert result.returncode == 2, result.stderr
    assert "error: no value with clean digit tokens" in result.stderr


def _clean_below_1000(value: float) -> str:
    """A format under which a value is clean only below 1000: from there on
    it renders as a year, a signal token."""
    return "2019" if value >= 1000 else ""


def test_empty_growth_window_redraws_the_year_before():
    rng = random.Random(0)
    assert random.Random(0).uniform(975, 999) > 1000 / 1.02  # year 2's window is empty
    first, second = _series(rng, 975, 999, 1.02, 1.08, 2, _whole, _clean_below_1000)
    assert first < 1000 / 1.02 and 1.02 * first - 1 < second < 1000


def test_redraws_of_the_year_before_are_bounded():
    with pytest.raises(ValueError, match="no value with clean digit tokens"):
        _series(random.Random(0), 900, 999, 1.2, 1.3, 2, _whole, _clean_below_1000)


@pytest.mark.parametrize("kind", ["clean", "adversarial"])
def test_every_seed_builds_a_bundle(kind):
    """Seeds 0-29 each build, every value keeps its digit tokens off the
    signal slots, and no other year's value of a series passes as the right
    one within the answer tolerance."""
    for seed in range(30):
        _, table = make_bundle(kind, seed=seed)
        for rec in table.records:
            rendered = _RENDER.get(rec.metric_id, _fmt_money)(rec.value)
            assert all(token_slot(t) not in _SIGNAL_SLOTS for t in tokenize(rendered)), seed
        for _, symbol in table.companies:
            for metric in table.reported_metric_ids():
                values = [table.get(symbol, year, metric).normalized for year in DEFAULT_YEARS]
                for a, b in itertools.permutations(values, 2):
                    assert abs(a - b) / abs(b) > RELATIVE_TOLERANCE, (seed, symbol, metric)


# ---------------------------------------------------------------------------
# The rank constructions the acceptance criteria lean on, checked against an
# independent cosine implementation.
# ---------------------------------------------------------------------------


def _page_text(doc, number):
    page = next(p for p in doc.pages if p.page_number == number)
    return f"{page.title}\n{page.content}"


def test_decoys_outrank_gold_for_year_qualified_revenue(adversarial_bundle):
    collection, table = adversarial_bundle
    for name, sym in table.companies[:6]:
        query = f"What is {name}'s Total Revenue in 2021?"
        decoy = _cosine(query, _page_text(collection.get_document(f"{sym.lower()}-10k-2023"), 8))
        gold = _cosine(query, _page_text(collection.get_document(f"{sym.lower()}-10k-2021"), 2))
        assert decoy > gold


def test_overview_wall_beats_dividend_pages_for_yearless_query(adversarial_bundle):
    collection, table = adversarial_bundle
    for name, sym in table.companies[:6]:
        query = f"How much Dividends Paid did {name} pay in the last 4 years in US dollars?"
        wall = _cosine(query, _page_text(collection.get_document(f"{sym.lower()}-10k-2019"), 1))
        best_gold = max(
            _cosine(query, _page_text(collection.get_document(f"{sym.lower()}-10k-{y}"), 4))
            for y in range(2019, 2024)
        )
        assert wall > best_gold


def test_year_qualified_dividend_query_beats_the_wall(adversarial_bundle):
    collection, table = adversarial_bundle
    for name, sym in table.companies[:6]:
        for year in range(2019, 2024):
            query = f"What is the Dividends Paid of {name} ({sym}) in {year} in US dollars?"
            gold = _cosine(query, _page_text(collection.get_document(f"{sym.lower()}-10k-{year}"), 4))
            wall = _cosine(query, _page_text(collection.get_document(f"{sym.lower()}-10k-2019"), 1))
            assert gold > wall


def test_clean_metric_gold_ranks_first_full_scan(adversarial_bundle, adversarial_index):
    collection, table = adversarial_bundle
    embedder = HashedBowEmbedder()
    for name, sym in table.companies[::5]:
        for year in (2019, 2022):
            query = f"What is {name}'s Total Employees in {year}?"
            result = retrieve_relevant_pages(
                query, collection.documents, 1, adversarial_index, embedder
            )
            assert result[0].page_ref == (f"{sym.lower()}-10k-{year}", 3)
