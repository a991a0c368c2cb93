from __future__ import annotations

import json
from datetime import date

import pytest

from mdqa.corpus import DocumentCollection, FactRecord, FactTable, MetricDef, Page
from mdqa.questiongen import (
    GenConfig,
    GoldAnswer,
    InfeasibleConfigError,
    MissingFactError,
    Question,
    QuestionGenError,
    RULE_BINDINGS,
    TEMPLATES,
    compound_lookup,
    compute_gold_with_provenance,
    fill_template,
    generate_questions,
    read_questions,
    write_questions,
)
from mdqa.synth import make_bundle

from conftest import make_doc


# ---------------------------------------------------------------------------
# Normalized fact values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,multiplier,expected",
    [
        (1234.5, "millions", 1.2345e9),
        (2.5, "billions", 2.5e9),
        (42, "units", 42.0),
        (7.5, "thousands", 7500.0),
    ],
)
def test_normalize_value(value, multiplier, expected):
    record = FactRecord("AAPL", 2022, "total_revenue", value, multiplier, "aapl-2022", (1,))
    assert record.normalized == expected


# ---------------------------------------------------------------------------
# fill_template
# ---------------------------------------------------------------------------


def _tiny_table():
    defs = [
        MetricDef("total_revenue", "total revenue", "reported"),
        MetricDef(
            "total_debt",
            "Total Debt",
            "compound",
            formula="short_term_debt + long_term_debt",
            description="Total Debt combines short and long term borrowings.",
        ),
        MetricDef("short_term_debt", "Short Term Debt", "reported"),
        MetricDef("long_term_debt", "Long Term Debt", "reported"),
    ]
    return FactTable(records=[], metric_defs=defs, companies=[("Apple Inc.", "AAPL")])


def test_fill_template_ve2():
    text = fill_template(
        TEMPLATES["ve2"],
        {"company": "Apple Inc.", "metric": "total revenue", "year": 2022,
         "metric_id": "total_revenue"},
        _tiny_table(),
    )
    assert text == "What is Apple Inc.'s total revenue in 2022?"


def test_fill_template_compound_appends_definition():
    text = fill_template(
        TEMPLATES["cve1"],
        {"company": "Boeing", "metric": "Total Debt", "metric_id": "total_debt"},
        _tiny_table(),
    )
    assert text.startswith("What is Boeing's Total Debt?")
    assert "Where Total Debt is defined as:" in text
    assert text.endswith("Total Debt combines short and long term borrowings.")


def test_fill_template_missing_slot():
    with pytest.raises(QuestionGenError, match="missing slot"):
        fill_template(TEMPLATES["ve2"], {"company": "Apple Inc.", "metric": "x"}, _tiny_table())


def test_fill_template_unknown_metric():
    with pytest.raises(QuestionGenError, match="unknown metric_id"):
        fill_template(
            TEMPLATES["ve1"],
            {"company": "Apple Inc.", "metric": "x", "metric_id": "nope"},
            _tiny_table(),
        )


def test_fill_template_company_list_rendering():
    text = fill_template(
        TEMPLATES["md4"],
        {
            "company_names": ["Honeywell", "Caterpillar", "Pfizer", "PepsiCo", "Boeing"],
            "metric1": "Total Debt",
            "metric2": "total revenue",
        },
    )
    assert text.startswith(
        "Among Honeywell, Caterpillar, Pfizer, PepsiCo, and Boeing, what is the"
    )


# ---------------------------------------------------------------------------
# compute_gold_with_provenance
# ---------------------------------------------------------------------------


def _facts_table():
    """Hand-built table; values chosen for easy arithmetic."""
    defs = [
        MetricDef("rev", "Revenue", "reported"),
        MetricDef("emp", "Employees", "reported"),
        MetricDef("div", "Dividends", "reported"),
        MetricDef("rpe", "Revenue Per Employee", "compound", formula="rev / emp"),
    ]
    companies = [("Honeywell", "HON"), ("Caterpillar", "CAT"), ("Pfizer", "PFE")]
    docs = []
    records = []
    for sym in ("HON", "CAT", "PFE"):
        for year in (2020, 2021, 2022, 2023):
            doc_id = f"{sym.lower()}-{year}"
            docs.append(
                make_doc(doc_id, sym, dict(companies)[0] if False else sym.title(), "10-K", year,
                         date(year, 12, 31), pages=(Page(1, "", f"{sym} filler"),))
            )
    values = {
        ("HON", "rev"): 5.0,
        ("CAT", "rev"): 9.0,
        ("PFE", "rev"): 3.0,
        ("CAT", "emp"): 77.0,
        ("HON", "emp"): 50.0,
        ("PFE", "emp"): 60.0,
    }
    for (sym, metric), value in values.items():
        for year in (2020, 2021, 2022, 2023):
            records.append(
                FactRecord(sym, year, metric, value, "units", f"{sym.lower()}-{year}", (1,))
            )
    for sym, yearly in (("HON", (1.0, 2.0, 3.0)),):
        for year, value in zip((2021, 2022, 2023), yearly):
            records.append(
                FactRecord(sym, year, "div", value, "billions", f"{sym.lower()}-{year}", (1,))
            )
    table = FactTable(records=records, metric_defs=defs, companies=companies)
    return table, DocumentCollection(docs)


def test_gold_overall_growth():
    table, _ = _facts_table()
    gold, _ = compute_gold_with_provenance(
        "overall_growth",
        {"symbol": "HON", "metric": "div", "num_year": 2},
        table,
        2023,
    )
    # base 1.0e9 in 2021, current 3.0e9 in 2023
    assert gold.number == pytest.approx(200.0)


def test_gold_overall_growth_simple_numbers():
    defs = [MetricDef("m", "M", "reported")]
    records = [
        FactRecord("AA", 2021, "m", 100.0, "units", "d1", (1,)),
        FactRecord("AA", 2023, "m", 150.0, "units", "d2", (1,)),
    ]
    docs = [make_doc("d1", "AA", "Aa", year=2021), make_doc("d2", "AA", "Aa", year=2023)]
    table = FactTable(records, defs, [("Aa", "AA")])
    gold, _ = compute_gold_with_provenance("overall_growth", {"symbol": "AA", "metric": "m", "num_year": 2}, table, 2023)
    assert gold.number == 50.0


def test_gold_extreme_lookup_unique_maximum():
    table, _ = _facts_table()
    gold, _ = compute_gold_with_provenance(
        "extreme_lookup",
        {"symbols": ("HON", "CAT", "PFE"), "metric1": "rev", "metric2": "emp",
         "extreme": "highest"},
        table,
        2023,
    )
    assert gold.number == 77.0  # CAT has max rev 9.0; CAT's emp is 77


def test_gold_extreme_lookup_matches_brute_force():
    table, _ = _facts_table()
    binding = {
        "symbols": ("HON", "CAT", "PFE"),
        "metric1": "rev",
        "metric2": "emp",
        "extreme": "lowest",
    }
    gold, _ = compute_gold_with_provenance("extreme_lookup", dict(binding), table, 2023)
    values = {s: table.get(s, 2023, "rev").normalized for s in binding["symbols"]}
    winner = min(sorted(values), key=lambda s: (values[s], s))
    assert gold.number == table.get(winner, 2023, "emp").normalized


def test_gold_extreme_lookup_tie_breaks_to_smallest_symbol():
    defs = [MetricDef("m1", "M1", "reported"), MetricDef("m2", "M2", "reported")]
    records = []
    docs = []
    for sym in ("BBB", "AAA"):
        doc_id = f"{sym.lower()}-2023"
        docs.append(make_doc(doc_id, sym, sym.title(), year=2023))
        records.append(FactRecord(sym, 2023, "m1", 5.0, "units", doc_id, (1,)))
        records.append(
            FactRecord(sym, 2023, "m2", 10.0 if sym == "AAA" else 99.0, "units", doc_id, (1,))
        )
    table = FactTable(records, defs, [("Aaa", "AAA"), ("Bbb", "BBB")])
    binding = {"symbols": ("BBB", "AAA"), "metric1": "m1", "metric2": "m2", "extreme": "highest"}
    gold, _ = compute_gold_with_provenance("extreme_lookup", binding, table, 2023)
    assert gold.number == 10.0
    assert binding["winner_symbol"] == "AAA"
    assert binding["tie"] is True


def test_gold_compound_rpe():
    table, _ = _facts_table()
    gold, _ = compute_gold_with_provenance("compound_value", {"symbol": "HON", "metric": "rpe", "year": 2023}, table, 2023)
    assert gold.number == pytest.approx(0.1)  # 5 units / 50 units
    defs = [
        MetricDef("rev", "Revenue", "reported"),
        MetricDef("emp", "Employees", "reported"),
        MetricDef("rpe", "RPE", "compound", formula="rev / emp"),
    ]
    records = [
        FactRecord("XX", 2023, "rev", 1.0e9, "units", "x-2023", (1,)),
        FactRecord("XX", 2023, "emp", 1000.0, "units", "x-2023", (1,)),
    ]
    table2 = FactTable(records, defs, [("Xx", "XX")])
    gold2, _ = compute_gold_with_provenance("compound_value", {"symbol": "XX", "metric": "rpe", "year": 2023}, table2, 2023)
    assert gold2.number == 1.0e6


def test_compound_lookup_over_any_leaf():
    # The oracle replays gold rules over substituted values through the same
    # evaluator: a leaf other than the fact table gets the same guards.
    defs = [
        MetricDef("rev", "Revenue", "reported"),
        MetricDef("emp", "Employees", "reported"),
        MetricDef("rpe", "RPE", "compound", formula="rev / emp"),
        MetricDef("a", "A", "compound", formula="b + rev"),
        MetricDef("b", "B", "compound", formula="a * 2"),
    ]
    table = FactTable([], defs, [("Xx", "XX")])
    leaf_values = {("XX", "rev", 2023): 6.0, ("XX", "emp", 2023): 3.0}
    lookup = compound_lookup(table, lambda s, m, y: leaf_values[(s, m, y)])
    assert lookup("XX", "rpe", 2023) == 2.0
    with pytest.raises(QuestionGenError, match="cyclic compound metric 'a'"):
        lookup("XX", "a", 2023)
    leaf_values[("XX", "emp", 2023)] = 0.0
    with pytest.raises(MissingFactError, match="division by zero"):
        lookup("XX", "rpe", 2023)


def test_gold_cyclic_compound_definition():
    defs = [
        MetricDef("a", "A", "compound", formula="b + 1"),
        MetricDef("b", "B", "compound", formula="a * 2"),
    ]
    table = FactTable([], defs, [("Xx", "XX")])
    with pytest.raises(QuestionGenError, match="cyclic"):
        compute_gold_with_provenance("compound_value", {"symbol": "XX", "metric": "a", "year": 2023}, table, 2023)


def test_gold_sum_over_years_brute_force():
    table, _ = _facts_table()
    binding = {"symbol": "HON", "metric": "div", "num_year": 3}
    gold, _ = compute_gold_with_provenance("sum_over_years", binding, table, 2023)
    brute = sum(
        table.get("HON", year, "div").normalized for year in (2021, 2022, 2023)
    )
    assert gold.number == pytest.approx(brute)
    assert gold.number == pytest.approx(6.0e9)


def test_gold_pct_difference():
    table, _ = _facts_table()
    gold, _ = compute_gold_with_provenance(
        "pct_difference",
        {"symbol1": "HON", "symbol2": "CAT", "metric": "rev"},
        table,
        2023,
    )
    assert gold.number == pytest.approx((5.0 - 9.0) / 9.0 * 100.0)


def test_gold_pct_difference_zero_base():
    defs = [MetricDef("m", "M", "reported")]
    records = [
        FactRecord("AA", 2023, "m", 1.0, "units", "a-2023", (1,)),
        FactRecord("BB", 2023, "m", 0.0, "units", "b-2023", (1,)),
    ]
    table = FactTable(records, defs, [("Aa", "AA"), ("Bb", "BB")])
    with pytest.raises(MissingFactError, match="zero"):
        compute_gold_with_provenance("pct_difference", {"symbol1": "AA", "symbol2": "BB", "metric": "m"}, table, 2023)


def test_gold_yes_if_positive():
    table, _ = _facts_table()
    gold, _ = compute_gold_with_provenance("yes_if_positive", {"symbol": "HON", "metric": "div", "year": 2023}, table, 2023)
    assert gold.kind == "yesno" and gold.label == "Yes"


def test_gold_multi_value():
    table, _ = _facts_table()
    gold, _ = compute_gold_with_provenance(
        "multi_value",
        {"symbol": "HON", "metric1": "rev", "metric2": "emp", "year": 2023},
        table,
        2023,
    )
    assert gold.kind == "multi"
    assert dict(gold.parts) == {"Revenue": 5.0, "Employees": 50.0}


def test_gold_missing_fact():
    table, _ = _facts_table()
    with pytest.raises(MissingFactError):
        compute_gold_with_provenance("single_value", {"symbol": "HON", "metric": "div", "year": 1999}, table, 2023)


def test_gold_scale_coherence():
    # pct rules are invariant under a common positive rescaling of the facts.
    defs = [MetricDef("m", "M", "reported")]
    for scale in (1.0, 3.7):
        records = [
            FactRecord("AA", 2021, "m", 100.0 * scale, "units", "d1", (1,)),
            FactRecord("AA", 2023, "m", 150.0 * scale, "units", "d2", (1,)),
            FactRecord("BB", 2023, "m", 50.0 * scale, "units", "d3", (1,)),
        ]
        table = FactTable(records, defs, [("Aa", "AA"), ("Bb", "BB")])
        growth, _ = compute_gold_with_provenance(
            "overall_growth", {"symbol": "AA", "metric": "m", "num_year": 2}, table, 2023
        )
        diff, _ = compute_gold_with_provenance(
            "pct_difference", {"symbol1": "AA", "symbol2": "BB", "metric": "m"}, table, 2023
        )
        assert growth.number == pytest.approx(50.0)
        assert diff.number == pytest.approx(200.0)


# ---------------------------------------------------------------------------
# GoldAnswer validation
# ---------------------------------------------------------------------------


def test_gold_answer_invariants():
    with pytest.raises(QuestionGenError):
        GoldAnswer(kind="multi", parts=(("only one", 1.0),))
    with pytest.raises(QuestionGenError):
        GoldAnswer(kind="yesno", label="maybe")
    with pytest.raises(QuestionGenError):
        GoldAnswer(kind="number")


def test_gold_answer_round_trip():
    for gold in (
        GoldAnswer(kind="number", number=1.5e9),
        GoldAnswer(kind="yesno", label="No"),
        GoldAnswer(kind="multi", parts=(("A", 1.0), ("B", 2.0))),
    ):
        assert GoldAnswer.from_json_dict(gold.to_json_dict()) == gold


# ---------------------------------------------------------------------------
# generate_questions
# ---------------------------------------------------------------------------


def _gen_config(**overrides):
    base = dict(
        template_ids=("ve2", "md1", "md3", "md4"),
        count_per_template=4,
        dataset_year=2023,
        rng_seed=7,
        metrics_by_template={"md1": ("dividends_paid",), "md3": ("total_revenue",)},
        num_years=(2, 3),
    )
    base.update(overrides)
    return GenConfig(**base)


def test_generation_deterministic(clean_bundle):
    collection, table = clean_bundle
    a = generate_questions(table, collection, _gen_config())
    b = generate_questions(table, collection, _gen_config())
    assert [q.to_json_dict() for q in a] == [q.to_json_dict() for q in b]
    serialized_a = "\n".join(json.dumps(q.to_json_dict(), sort_keys=True) for q in a)
    serialized_b = "\n".join(json.dumps(q.to_json_dict(), sort_keys=True) for q in b)
    assert serialized_a == serialized_b


def test_generation_different_seeds_differ(clean_bundle):
    collection, table = clean_bundle
    a = generate_questions(table, collection, _gen_config(rng_seed=1))
    b = generate_questions(table, collection, _gen_config(rng_seed=2))
    assert [q.slots for q in a] != [q.slots for q in b]


def test_provenance_soundness(clean_bundle):
    # Recomputing the gold from only the facts whose provenance the question
    # carries reproduces the gold exactly.
    collection, table = clean_bundle
    questions = generate_questions(table, collection, _gen_config(count_per_template=3))
    for q in questions:
        template = TEMPLATES[q.template_id]
        gold, consumed = compute_gold_with_provenance(
            template.gold_rule, dict(q.bindings), table, q.dataset_year
        )
        assert gold == q.gold
        for rec in consumed:
            assert rec.source_doc_id in q.gold_docs
            for page in rec.source_pages:
                assert (rec.source_doc_id, page) in q.gold_pages


def test_md_provenance_spans_exact_years(clean_bundle):
    collection, table = clean_bundle
    config = GenConfig(
        template_ids=("md1",),
        count_per_template=4,
        dataset_year=2023,
        rng_seed=5,
        metrics_by_template={"md1": ("dividends_paid",)},
        num_years=(3,),
    )
    questions = generate_questions(table, collection, config)
    assert questions
    for q in questions:
        years = {collection.get_document(d).fiscal_year for d in q.gold_docs}
        assert years == {2021, 2022, 2023}


def test_single_value_questions_pass_findability(clean_bundle):
    from mdqa.corpus import value_findable_in_doc

    collection, table = clean_bundle
    questions = generate_questions(
        table, collection, _gen_config(template_ids=("ve1", "ve2"), count_per_template=6)
    )
    for q in questions:
        rec = table.get(q.bindings["symbol"], q.bindings.get("year", 2023), q.bindings["metric"])
        doc = collection.get_document(rec.source_doc_id)
        assert value_findable_in_doc(rec.value, rec.multiplier, doc)


def test_text_contains_surface_slots(clean_bundle):
    collection, table = clean_bundle
    questions = generate_questions(
        table, collection, _gen_config(template_ids=("ve2", "md2", "md4"), count_per_template=3)
    )
    for q in questions:
        template = TEMPLATES[q.template_id]
        for slot in template.slot_names:
            value = q.slots[slot]
            if slot == "company_names":
                for name in value:
                    assert name in q.text
            else:
                assert str(value) in q.text


def test_filter_removes_unfindable_values():
    # One company, one metric, one year; the page omits the value string, so
    # the only candidate is filtered and generation reports infeasibility.
    defs = [MetricDef("rev", "Revenue", "reported")]
    doc = make_doc(
        "aa-2023", "AA", "Aacorp", year=2023,
        pages=(Page(1, "Revenue", "aacorp revenue REDACTED fiscal 2023"),),
    )
    table = FactTable(
        [FactRecord("AA", 2023, "rev", 123.4, "millions", "aa-2023", (1,))],
        defs,
        [("Aacorp", "AA")],
    )
    collection = DocumentCollection([doc])
    config = GenConfig(
        template_ids=("ve2",), count_per_template=1, dataset_year=2023, rng_seed=1
    )
    with pytest.raises(InfeasibleConfigError):
        generate_questions(table, collection, config)


def test_compound_questions_require_unfindable_value(clean_bundle):
    collection, table = clean_bundle
    questions = generate_questions(
        table,
        collection,
        GenConfig(template_ids=("cve2",), count_per_template=4, dataset_year=2023, rng_seed=3),
    )
    assert questions
    from mdqa.corpus import value_findable_in_doc

    for q in questions:
        assert "Where" in q.text  # definition block appended
        for doc_id in q.gold_docs:
            doc = collection.get_document(doc_id)
            assert not value_findable_in_doc(q.gold.number, "units", doc)


def test_unknown_template_rejected(clean_bundle):
    collection, table = clean_bundle
    with pytest.raises(QuestionGenError, match="unknown template_id"):
        generate_questions(
            table, collection,
            GenConfig(template_ids=("nope",), count_per_template=1, dataset_year=2023, rng_seed=1),
        )


def test_question_file_round_trip(tmp_path, clean_bundle):
    collection, table = clean_bundle
    questions = generate_questions(table, collection, _gen_config(count_per_template=2))
    path = write_questions(questions, tmp_path / "q.jsonl")
    loaded = read_questions(path)
    assert [q.to_json_dict() for q in loaded] == [q.to_json_dict() for q in questions]


def test_rule_bindings_are_what_each_rule_reads(clean_bundle):
    """Every template's gold comes from its rule's ``RULE_BINDINGS`` and the
    optional ``year`` and ``extreme`` alone, and a record without any one of
    those names is rejected when read."""
    collection, table = clean_bundle
    questions = generate_questions(
        table, collection, _gen_config(template_ids=tuple(TEMPLATES), count_per_template=1)
    )
    assert sorted({q.template_id for q in questions}) == sorted(TEMPLATES)
    for question in questions:
        rule = TEMPLATES[question.template_id].gold_rule
        names = RULE_BINDINGS[rule]
        kept = {k: v for k, v in question.bindings.items() if k in names + ("year", "extreme")}
        gold, _ = compute_gold_with_provenance(rule, kept, table, question.dataset_year)
        assert gold == question.gold
        raw = question.to_json_dict()
        for name in names:
            bindings = {k: v for k, v in raw["bindings"].items() if k != name}
            with pytest.raises(KeyError, match=f"bindings.{name}"):
                Question.from_json_dict({**raw, "bindings": bindings})
