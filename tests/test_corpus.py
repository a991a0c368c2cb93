from __future__ import annotations

import json
from datetime import date

import pytest

from mdqa.corpus import (
    CorpusError,
    Document,
    DocumentCollection,
    DocumentFilter,
    FormulaError,
    Page,
    UnknownDocumentError,
    doc_signature,
    eval_formula,
    formula_refs,
    load_collection,
    load_fact_table,
    parse_formula,
    render_value_variants,
    save_collection,
    save_fact_table,
    select_documents,
    value_findable_in_doc,
)
from mdqa.synth import make_bundle

from conftest import make_doc


def _toy_collection() -> DocumentCollection:
    """Six documents over three companies, two forms, three years."""
    docs = [
        make_doc("nflx-10k-2021", "NFLX", "Netflix Inc.", "10-K", 2021, date(2021, 12, 31)),
        make_doc("nflx-10k-2022", "NFLX", "Netflix Inc.", "10-K", 2022, date(2022, 12, 31)),
        make_doc("ko-10k-2022", "KO", "Coca-Cola Co.", "10-K", 2022, date(2022, 12, 31)),
        make_doc("ko-10q-2022", "KO", "Coca-Cola Co.", "10-Q", 2022, date(2022, 6, 30)),
        make_doc("adbe-10k-2022", "ADBE", "Adobe Inc.", "10-K", 2022, date(2022, 12, 2)),
        make_doc("adbe-8k-2020", "ADBE", "Adobe Inc.", "8-K", 2020, date(2020, 12, 7)),
    ]
    return DocumentCollection(docs)


def _brute_force_select(collection, f: DocumentFilter):
    out = []
    for doc in collection.documents:
        company_ok = True
        if f.companies or f.stock_symbols:
            by_symbol = doc.stock_symbol in {s.upper() for s in (f.stock_symbols or ())}
            by_name = any(
                n.lower() in (doc.company_name.lower(),)
                or doc.company_name.lower().startswith(n.lower() + " ")
                or doc.company_name.lower().split()[0] == n.lower()
                for n in (f.companies or ())
            )
            company_ok = by_symbol or by_name
        form_ok = not f.form_types or doc.form_type in f.form_types
        year_ok = not f.fiscal_years or doc.fiscal_year in f.fiscal_years
        start_ok = f.period_end_start is None or doc.period_end_date >= f.period_end_start
        end_ok = f.period_end_end is None or doc.period_end_date <= f.period_end_end
        if company_ok and form_ok and year_ok and start_ok and end_ok:
            out.append(doc.doc_id)
    return sorted(out)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_select_by_symbol_form_year():
    collection = _toy_collection()
    picked = select_documents(
        collection,
        DocumentFilter(stock_symbols=("ADBE",), form_types=("10-K",), fiscal_years=(2022,)),
    )
    assert [d.doc_id for d in picked] == ["adbe-10k-2022"]


def test_select_empty_filter_returns_everything():
    collection = _toy_collection()
    assert len(select_documents(collection, DocumentFilter())) == len(collection)


def test_select_company_name_or_symbol_union():
    collection = _toy_collection()
    picked = select_documents(
        collection, DocumentFilter(companies=("Netflix",), stock_symbols=("KO",))
    )
    got = sorted(d.doc_id for d in picked)
    expected = _brute_force_select(
        collection, DocumentFilter(companies=("Netflix",), stock_symbols=("KO",))
    )
    assert got == expected
    assert got == ["ko-10k-2022", "ko-10q-2022", "nflx-10k-2021", "nflx-10k-2022"]


def test_select_no_match_is_empty_list():
    collection = _toy_collection()
    assert select_documents(collection, DocumentFilter(stock_symbols=("ZZZZ",))) == []


def test_select_period_end_range():
    collection = _toy_collection()
    picked = select_documents(
        collection,
        DocumentFilter(period_end_start=date(2022, 1, 1), period_end_end=date(2022, 7, 1)),
    )
    assert [d.doc_id for d in picked] == ["ko-10q-2022"]


def test_select_ordering():
    collection = _toy_collection()
    picked = select_documents(collection, DocumentFilter())
    keys = [
        (d.stock_symbol, d.fiscal_year, d.form_type, d.period_end_date) for d in picked
    ]
    assert keys == sorted(keys)


def test_select_ticker_case_insensitive():
    collection = _toy_collection()
    picked = select_documents(collection, DocumentFilter(stock_symbols=("adbe",)))
    assert {d.stock_symbol for d in picked} == {"ADBE"}


def test_select_company_suffix_stripping():
    collection = _toy_collection()
    picked = select_documents(collection, DocumentFilter(companies=("coca-cola",)))
    assert {d.stock_symbol for d in picked} == {"KO"}


def test_select_monotone_adding_conditions_never_enlarges():
    collection = _toy_collection()
    base = DocumentFilter(stock_symbols=("NFLX", "KO", "ADBE"))
    narrowed = DocumentFilter(
        stock_symbols=("NFLX", "KO", "ADBE"), form_types=("10-K",), fiscal_years=(2022,)
    )
    wide = {d.doc_id for d in select_documents(collection, base)}
    narrow = {d.doc_id for d in select_documents(collection, narrowed)}
    assert narrow <= wide


def test_select_idempotent():
    collection = _toy_collection()
    f = DocumentFilter(form_types=("10-K",))
    first = select_documents(collection, f)
    second = select_documents(collection, f)
    assert [d.doc_id for d in first] == [d.doc_id for d in second]


def test_filter_rejects_inverted_range():
    with pytest.raises(ValueError):
        DocumentFilter(period_end_start=date(2023, 1, 1), period_end_end=date(2022, 1, 1))


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def test_doc_signature_fields():
    collection = _toy_collection()
    sig = doc_signature(("adbe-10k-2022", 1), collection)
    assert sig == ("ADBE", "10-K", 2022, date(2022, 12, 2))


def test_doc_signature_unknown_page():
    collection = _toy_collection()
    with pytest.raises(UnknownDocumentError):
        doc_signature(("adbe-10k-2022", 9999), collection)
    with pytest.raises(UnknownDocumentError):
        doc_signature(("missing-doc", 1), collection)


def test_doc_signature_constant_across_pages():
    pages = tuple(Page(n, f"t{n}", f"content {n}") for n in (1, 2, 5))
    doc = make_doc("multi", pages=pages)
    collection = DocumentCollection([doc])
    sigs = {doc_signature(("multi", p.page_number), collection) for p in pages}
    assert len(sigs) == 1


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


def _doc_dict(**overrides):
    base = {
        "doc_id": "d1",
        "company_name": "Acme Corp",
        "stock_symbol": "ACME",
        "form_type": "10-K",
        "fiscal_year": 2022,
        "period_end_date": "2022-12-31",
        "pages": [{"page_number": 1, "title": "t", "content": "c", "tables": []}],
    }
    base.update(overrides)
    return base


def _write_corpus(tmp_path, docs):
    path = tmp_path / "collection.jsonl"
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n", encoding="utf-8")
    return tmp_path


def test_load_two_document_corpus(tmp_path):
    corpus = _write_corpus(
        tmp_path,
        [
            _doc_dict(),
            _doc_dict(doc_id="d2", stock_symbol="OTHR", fiscal_year=2021),
        ],
    )
    collection = load_collection(corpus)
    assert len(collection) == 2
    assert [d.doc_id for d in collection.lookup("ACME", "10-K", 2022)] == ["d1"]


def test_load_missing_fiscal_year_names_document(tmp_path):
    corpus = _write_corpus(tmp_path, [{k: v for k, v in _doc_dict().items() if k != "fiscal_year"}])
    with pytest.raises(CorpusError, match="d1.*fiscal_year"):
        load_collection(corpus)


def test_load_duplicate_identity(tmp_path):
    corpus = _write_corpus(
        tmp_path,
        [
            _doc_dict(doc_id="a", stock_symbol="ADBE", period_end_date="2022-12-02"),
            _doc_dict(doc_id="b", stock_symbol="ADBE", period_end_date="2022-12-02"),
        ],
    )
    with pytest.raises(CorpusError, match="duplicate identity"):
        load_collection(corpus)


def test_load_duplicate_doc_id(tmp_path):
    corpus = _write_corpus(tmp_path, [_doc_dict(), _doc_dict(fiscal_year=2021)])
    with pytest.raises(CorpusError, match="duplicate doc_id"):
        load_collection(corpus)


def test_load_empty_collection(tmp_path):
    (tmp_path / "collection.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty"):
        load_collection(tmp_path)


def test_load_bad_form_type(tmp_path):
    corpus = _write_corpus(tmp_path, [_doc_dict(form_type="S-1")])
    with pytest.raises(CorpusError, match="form_type"):
        load_collection(corpus)


def test_load_pages_must_increase(tmp_path):
    doc = _doc_dict(
        pages=[
            {"page_number": 2, "title": "", "content": "x", "tables": []},
            {"page_number": 1, "title": "", "content": "y", "tables": []},
        ]
    )
    with pytest.raises(CorpusError, match="strictly increasing"):
        load_collection(_write_corpus(tmp_path, [doc]))


def test_load_ragged_table_rejected(tmp_path):
    doc = _doc_dict(
        pages=[
            {
                "page_number": 1,
                "title": "",
                "content": "x",
                "tables": [[["a", "b"], ["c"]]],
            }
        ]
    )
    with pytest.raises(CorpusError, match="unequal cell counts"):
        load_collection(_write_corpus(tmp_path, [doc]))


def test_ticker_normalized_to_uppercase(tmp_path):
    collection = load_collection(_write_corpus(tmp_path, [_doc_dict(stock_symbol="acme")]))
    assert collection.documents[0].stock_symbol == "ACME"


def test_collection_round_trip(tmp_path):
    collection, table = make_bundle("clean", n_companies=2)
    save_collection(collection, tmp_path)
    reloaded = load_collection(tmp_path)
    assert reloaded == collection
    save_fact_table(table, tmp_path)
    reloaded_table = load_fact_table(tmp_path, reloaded)
    assert reloaded_table.records == table.records
    assert reloaded_table.metric_defs == table.metric_defs


def test_fact_table_rejects_unknown_source_doc(tmp_path):
    collection, table = make_bundle("clean", n_companies=1)
    save_collection(collection, tmp_path)
    save_fact_table(table, tmp_path)
    facts = (tmp_path / "facts.jsonl").read_text().splitlines()
    bad = json.loads(facts[0])
    bad["source_doc_id"] = "nowhere"
    (tmp_path / "facts.jsonl").write_text("\n".join([json.dumps(bad)] + facts[1:]))
    with pytest.raises(CorpusError, match="not in collection"):
        load_fact_table(tmp_path, collection)


def test_fact_table_rejects_duplicate_key(tmp_path):
    collection, table = make_bundle("clean", n_companies=1)
    save_collection(collection, tmp_path)
    save_fact_table(table, tmp_path)
    facts = (tmp_path / "facts.jsonl").read_text().splitlines()
    (tmp_path / "facts.jsonl").write_text("\n".join(facts + [facts[0]]))
    with pytest.raises(CorpusError, match="duplicate fact"):
        load_fact_table(tmp_path, collection)


def test_fact_table_rejects_bad_multiplier(tmp_path):
    collection, table = make_bundle("clean", n_companies=1)
    save_collection(collection, tmp_path)
    save_fact_table(table, tmp_path)
    facts = (tmp_path / "facts.jsonl").read_text().splitlines()
    bad = json.loads(facts[0])
    bad["multiplier"] = "bazillions"
    (tmp_path / "facts.jsonl").write_text("\n".join([json.dumps(bad)] + facts[1:]))
    with pytest.raises(CorpusError, match="bad multiplier 'bazillions'"):
        load_fact_table(tmp_path, collection)


# ---------------------------------------------------------------------------
# Compound metric formulas
# ---------------------------------------------------------------------------


def test_formula_parse_and_eval():
    node = parse_formula("total_revenue / total_employees")
    assert formula_refs(node) == {"total_revenue", "total_employees"}
    assert eval_formula(node, {"total_revenue": 1e9, "total_employees": 1000.0}) == 1e6


def test_formula_precedence_and_parens():
    node = parse_formula("a + b * (c - 2)")
    assert eval_formula(node, {"a": 1.0, "b": 2.0, "c": 5.0}) == 7.0


def test_formula_rejects_garbage():
    with pytest.raises(FormulaError):
        parse_formula("a +* b")
    with pytest.raises(FormulaError):
        parse_formula("(a + b")
    with pytest.raises(FormulaError):
        parse_formula("")


def test_formula_division_by_zero():
    node = parse_formula("a / b")
    with pytest.raises(ZeroDivisionError):
        eval_formula(node, {"a": 1.0, "b": 0.0})


# ---------------------------------------------------------------------------
# Value findability
# ---------------------------------------------------------------------------


def test_findable_direct_rendering():
    doc = make_doc(
        "d", pages=(Page(1, "", "Revenue was 1,234.5 for the year"),)
    )
    assert value_findable_in_doc(1234.5, "millions", doc) is True


def test_not_findable():
    doc = make_doc("d", pages=(Page(1, "", "no numbers that match here 9,999"),))
    assert value_findable_in_doc(1234.5, "millions", doc) is False


def test_findable_cross_scale_rendering():
    # Value carried in base units; the document reports it in millions.
    variants = render_value_variants(1_200_000_000, "units")
    assert "1,200" in variants
    doc = make_doc(
        "d",
        pages=(
            Page(1, "", "Summary", tables=((("Revenue", "1,200"),),)),
        ),
    )
    assert value_findable_in_doc(1_200_000_000, "units", doc) is True


def test_findable_in_table_cells():
    doc = make_doc("d", pages=(Page(1, "", "text", tables=((("25,400",),),)),))
    assert value_findable_in_doc(25400, "units", doc) is True


def test_tiny_renderings_are_not_used():
    # A compound value around 8e3 must not be "found" via a bare "8".
    variants = render_value_variants(8000.0, "units")
    assert all(len(v) >= 3 for v in variants)
    doc = make_doc("d", pages=(Page(1, "", "there are 8 items"),))
    assert value_findable_in_doc(8000.0, "units", doc) is False


def test_fact_sources_selectable(clean_bundle):
    # Every fact's source document is reachable through a filter built from
    # the fact's own key.
    collection, table = clean_bundle
    for rec in table.records[::7]:
        picked = select_documents(
            collection,
            DocumentFilter(
                stock_symbols=(rec.stock_symbol,),
                form_types=("10-K",),
                fiscal_years=(rec.fiscal_year,),
            ),
        )
        assert rec.source_doc_id in {d.doc_id for d in picked}
