from __future__ import annotations

import ast
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqa.backends import BackendError, HashedBowEmbedder
from mdqa.corpus import FactTable
from mdqa.oracle import OracleChatBackend, _fmt_plain, build_canonical_plan
from mdqa.planlang import parse_plan
from mdqa.questiongen import (
    TEMPLATES,
    GenConfig,
    MissingFactError,
    compound_lookup,
    compute_gold_with_provenance,
    evaluate_rule,
    generate_questions,
)
from mdqa.synth import ORACLE_METRIC_ALIASES


def _questions(bundle, template_ids, **overrides):
    collection, table = bundle
    base = dict(
        template_ids=template_ids,
        count_per_template=2,
        dataset_year=2023,
        rng_seed=9,
        metrics_by_template={
            "md1": ("dividends_paid",),
            "md3": ("total_revenue",),
        },
        num_years=(3,),
    )
    base.update(overrides)
    return generate_questions(table, collection, GenConfig(**base))


def _oracle(bundle, questions, mode="perfect"):
    _, table = bundle
    return OracleChatBackend(
        table, 2023, questions=questions, mode=mode, metric_aliases=ORACLE_METRIC_ALIASES
    )


def _extract_prompt(query, refs):
    pages = "\n\n".join(f"[page {doc}#{num}] title\ncontent" for doc, num in refs)
    return [
        {"role": "system", "content": "extraction"},
        {"role": "user", "content": f"Value query: {query}\n\nPages:\n{pages}"},
    ]


def _scan_company(companies, query):
    """The company lookup as one ``re.search`` per ticker, then a name scan:
    the reference for the oracle's single ticker pattern."""
    hits = []
    for _, sym in companies:
        m = re.search(rf"\b{re.escape(sym)}\b", query)
        if m:
            hits.append((m.start(), sym))
    if not hits:
        for name, sym in companies:
            pos = query.lower().find(name.lower())
            if pos >= 0:
                hits.append((pos, sym))
    return min(hits)[1] if hits else None


# Tickers from a few letters prefix each other; "." "+" "*" "(" and "|" are
# regex metacharacters, and "-" and "&" are not word characters.
_TICKERS = st.text(alphabet="AB.+*(|-&", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    companies=st.lists(st.tuples(st.sampled_from(["Ab Co", "Ba Inc", "A B"]), _TICKERS),
                       max_size=5),
    data=st.data(),
)
def test_company_lookup_equals_a_scan_per_ticker(companies, data):
    pieces = [sym for _, sym in companies] + [name for name, _ in companies]
    query = data.draw(st.lists(
        st.one_of(st.sampled_from(pieces or ["A"]), st.sampled_from([" ", "x", "-", "A", "."])),
        max_size=8,
    ).map("".join))
    oracle = OracleChatBackend(FactTable((), (), companies), 2023)
    assert oracle._resolve_company(query) == _scan_company(companies, query)


# ---------------------------------------------------------------------------
# Extraction behaviour
# ---------------------------------------------------------------------------


def test_extract_perfect_gold_page_present(clean_bundle):
    collection, table = clean_bundle
    rec = table.get("ARGX", 2021, "total_revenue")
    oracle = _oracle(clean_bundle, [])
    reply = oracle.chat(
        _extract_prompt(
            "What is the Total Revenue of Argonix (ARGX) in 2021 in US dollars?",
            [(rec.source_doc_id, rec.source_pages[0])],
        )
    )
    assert reply == f"{rec.value!r} millions" or reply == f"{int(rec.value)} millions"
    value_text = reply.split()[0]
    assert float(value_text) == rec.value


def test_extract_perfect_gold_page_absent(clean_bundle):
    oracle = _oracle(clean_bundle, [])
    reply = oracle.chat(
        _extract_prompt(
            "What is the Total Revenue of Argonix (ARGX) in 2021 in US dollars?",
            [("argx-10k-2019", 2)],  # wrong year's page
        )
    )
    assert reply == "not found"


def test_extract_textual_returns_wrong_year_value(clean_bundle):
    collection, table = clean_bundle
    oracle = _oracle(clean_bundle, [], mode="textual")
    wrong = table.get("ARGX", 2019, "total_revenue")
    reply = oracle.chat(
        _extract_prompt(
            "What is the Total Revenue of Argonix (ARGX) in 2021 in US dollars?",
            [(wrong.source_doc_id, wrong.source_pages[0])],
        )
    )
    assert float(reply.split()[0]) == wrong.value
    assert wrong.value != table.get("ARGX", 2021, "total_revenue").value


def test_extract_unknown_metric_or_company(clean_bundle):
    oracle = _oracle(clean_bundle, [])
    assert (
        oracle.chat(_extract_prompt("What is the frobnication of Argonix?", [("argx-10k-2021", 2)]))
        == "not found"
    )
    assert (
        oracle.chat(_extract_prompt("What is the Total Revenue of Nobody Inc?", [("argx-10k-2021", 2)]))
        == "not found"
    )


def test_extract_resolves_longest_alias(clean_bundle):
    collection, table = clean_bundle
    rec = table.get("ARGX", 2021, "short_term_debt")
    oracle = _oracle(clean_bundle, [])
    reply = oracle.chat(
        _extract_prompt(
            "What is the Short Term Debt of Argonix (ARGX) in 2021 in US dollars?",
            [(rec.source_doc_id, rec.source_pages[0])],
        )
    )
    assert float(reply.split()[0]) == rec.value


# ---------------------------------------------------------------------------
# Plan generation
# ---------------------------------------------------------------------------


def test_canonical_md1_plan_loops_per_year(clean_bundle):
    questions = _questions(clean_bundle, ("md1",))
    question = questions[0]
    _, table = clean_bundle
    source = build_canonical_plan(question, table, with_select=True)
    program = parse_plan(source)
    loops = [s for s in program.body if isinstance(s, ast.For)]
    assert len(loops) == 1
    assert isinstance(loops[0].iter, ast.Call) and loops[0].iter.func.id == "range"
    assert "select_documents" in source
    assert "fiscal_years=[year]" in source
    num_year = question.bindings["num_year"]
    assert f"range(2023, {2023 - num_year}, -1)" in source
    last = program.body[-1]
    assert isinstance(last, ast.Expr) and last.value.func.id == "emit"


def test_canonical_plans_parse_for_every_template(clean_bundle):
    questions = _questions(
        clean_bundle,
        ("ve1", "ve2", "cve2", "yn1", "mo1", "md1", "md2", "md3", "md4", "md4_lowest"),
        count_per_template=1,
    )
    _, table = clean_bundle
    assert len(questions) == 10
    for question in questions:
        for with_select in (True, False):
            source = build_canonical_plan(question, table, with_select=with_select)
            parse_plan(source)
            if not with_select:
                assert "select_documents" not in source


def test_oracle_plan_reply_dispatch(clean_bundle):
    questions = _questions(clean_bundle, ("ve2",), count_per_template=1)
    oracle = _oracle(clean_bundle, questions)
    messages = [
        {"role": "system", "content": "... select_documents(...) ..."},
        {"role": "user", "content": f"Question: {questions[0].text}\n\nPlan program:\n"},
    ]
    source = oracle.chat(messages)
    assert "select_documents" in source
    parse_plan(source)
    # The page-only variant omits document selection.
    messages[0]["content"] = "no selection helper here"
    source = oracle.chat(messages)
    assert "select_documents" not in source


def test_oracle_unknown_question_plan_fails(clean_bundle):
    oracle = _oracle(clean_bundle, [])
    with pytest.raises(BackendError):
        oracle.chat(
            [
                {"role": "system", "content": "select_documents("},
                {"role": "user", "content": "Question: What is this?\n\nPlan program:\n"},
            ]
        )


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def test_expand_md3_mentions_both_years(clean_bundle):
    questions = _questions(clean_bundle, ("md3",), count_per_template=1, num_years=(3,))
    question = questions[0]
    oracle = _oracle(clean_bundle, questions)
    reply = oracle.chat(
        [
            {"role": "system", "content": "expander"},
            {
                "role": "user",
                "content": f"Question: {question.text}\n\nWrite 3 alternative search queries",
            },
        ]
    )
    lines = reply.splitlines()
    assert any("2023" in line for line in lines)
    assert any("2020" in line for line in lines)


def test_expand_md1_one_query_per_year(clean_bundle):
    questions = _questions(clean_bundle, ("md1",), count_per_template=1, num_years=(3,))
    question = questions[0]
    oracle = _oracle(clean_bundle, questions)
    reply = oracle.chat(
        [
            {"role": "system", "content": "expander"},
            {
                "role": "user",
                "content": f"Question: {question.text}\n\nWrite 5 alternative search queries",
            },
        ]
    )
    lines = reply.splitlines()
    assert len(lines) == 3
    for year in (2023, 2022, 2021):
        assert any(str(year) in line for line in lines)


def test_expand_unregistered_question_is_empty(clean_bundle):
    oracle = _oracle(clean_bundle, [])
    reply = oracle.chat(
        [
            {"role": "system", "content": "expander"},
            {"role": "user", "content": "Question: unknown\n\nWrite 3 alternative search queries"},
        ]
    )
    assert reply == ""


# ---------------------------------------------------------------------------
# Direct answering
# ---------------------------------------------------------------------------


def _answer_prompt(question_text, refs):
    pages = "\n\n".join(f"[page {doc}#{num}] t\ncontent" for doc, num in refs)
    return [
        {"role": "system", "content": "answerer"},
        {
            "role": "user",
            "content": f"Question: {question_text}\n\nPages:\n{pages}\n\nFinal answer:\n",
        },
    ]


def test_answer_perfect_needs_all_facts(clean_bundle):
    collection, table = clean_bundle
    questions = _questions(clean_bundle, ("md1",), count_per_template=1, num_years=(3,))
    question = questions[0]
    oracle = _oracle(clean_bundle, questions)
    # All gold pages provided: the reply is the exact sum.
    reply = oracle.chat(_answer_prompt(question.text, list(question.gold_pages)))
    assert float(reply.replace(",", "")) == pytest.approx(question.gold.number)
    # One year missing: parseable but wrong ("0").
    partial = list(question.gold_pages)[:-1]
    reply = oracle.chat(_answer_prompt(question.text, partial))
    assert reply == "0"


def test_answer_oracle_is_deterministic(clean_bundle):
    questions = _questions(clean_bundle, ("md2",), count_per_template=1)
    question = questions[0]
    oracle = _oracle(clean_bundle, questions)
    prompt = _answer_prompt(question.text, list(question.gold_pages))
    assert oracle.chat(prompt) == oracle.chat(prompt)


def test_oracle_rejects_unknown_prompt_shape(clean_bundle):
    oracle = _oracle(clean_bundle, [])
    with pytest.raises(BackendError):
        oracle.chat([{"role": "user", "content": "tell me a story"}])


def _two_pass_reply(oracle, question, refs):
    """The direct answer as it was computed before one evaluation replaced
    it: a first pass over the true facts lists the figures the gold answer
    reads, each is substituted by what the pages show, and the rule is
    evaluated again over the substitutes."""
    table = oracle.fact_table

    def first_shown(symbol, metric_id):
        shown = {
            (r.source_doc_id, p): r
            for r in table.records
            if r.stock_symbol == symbol and r.metric_id == metric_id
            for p in r.source_pages
        }
        return next((shown[ref] for ref in refs if ref in shown), None)

    rule = TEMPLATES[question.template_id].gold_rule
    _, needed = compute_gold_with_provenance(
        rule, dict(question.bindings), table, question.dataset_year
    )
    substitutes = {}
    for rec in needed:
        key = (rec.stock_symbol, rec.metric_id, rec.fiscal_year)
        if {(rec.source_doc_id, p) for p in rec.source_pages} & set(refs):
            substitutes[key] = rec.normalized
        elif oracle.mode == "textual":
            shown = first_shown(rec.stock_symbol, rec.metric_id)
            if shown is not None:
                substitutes[key] = shown.normalized
    if len(substitutes) < len({(r.stock_symbol, r.metric_id, r.fiscal_year) for r in needed}):
        return "0"

    def substitute(symbol, metric_id, year):
        return substitutes[(symbol, metric_id, year)]  # KeyError: no substitute

    answer = evaluate_rule(
        rule, dict(question.bindings), compound_lookup(table, substitute),
        question.dataset_year, metric_display=lambda mid: table.metric(mid).display_name,
    )
    if answer.kind == "number":
        return _fmt_plain(answer.number)
    if answer.kind == "yesno":
        return answer.label
    return "\n".join(f"{label}: {_fmt_plain(v)}" for label, v in answer.parts)


@pytest.mark.parametrize("mode", ["perfect", "textual"])
def test_answer_equals_the_two_pass_algorithm(adversarial_bundle, mode):
    """Over random subsets of the pages of a question's companies, in random
    order, one evaluation of the rule gives the two-pass reply wherever the
    two-pass algorithm returns. The one difference is intended: when the
    figures shown make another company win an md4 question, the two-pass
    algorithm still required the true winner's figure and replied 0, and one
    evaluation reads the figure of the company that won."""
    collection, table = adversarial_bundle
    questions = _questions(adversarial_bundle, tuple(TEMPLATES), count_per_template=3)
    oracle = _oracle(adversarial_bundle, questions, mode=mode)
    rng = random.Random(5)
    compared = 0
    for question in questions:
        b = question.bindings
        symbols = set(b.get("symbols", [])) | {b.get(n) for n in ("symbol", "symbol1", "symbol2")}
        pool = list(question.gold_pages) + [
            (doc.doc_id, page.page_number)
            for doc in collection.documents
            if doc.stock_symbol in symbols
            for page in doc.pages
        ]
        for _ in range(25):
            refs = rng.sample(pool, rng.randint(0, len(pool)))
            reply = oracle.chat(_answer_prompt(question.text, refs))
            try:
                expected = _two_pass_reply(oracle, question, refs)
            except (KeyError, MissingFactError):
                continue  # the two-pass algorithm raised: no reply to compare
            compared += 1
            if reply == expected:
                continue
            assert (mode, question.template_id, expected) in (
                ("textual", "md4", "0"), ("textual", "md4_lowest", "0"),
            ), (question.question_id, refs, reply, expected)
            winner = question.bindings["winner_symbol"]
            assert oracle._shown_fact(winner, b["metric2"], question.dataset_year, refs) is None
            shown = {
                s: oracle._shown_fact(s, b["metric1"], question.dataset_year, refs).normalized
                for s in b["symbols"]
            }
            best = (min if b.get("extreme") == "lowest" else max)(shown.values())
            assert min(s for s in shown if shown[s] == best) != winner
    assert compared > 0.9 * 25 * len(questions)


def test_textual_md4_answer_reads_the_winner_the_pages_show(adversarial_bundle):
    """When a wrong-year figure makes another company win an md4 question,
    the direct answer is that company's figure, though no page shows the
    true winner's; the two-pass algorithm replied 0 here."""
    _, table = adversarial_bundle
    questions = _questions(adversarial_bundle, ("md4", "md4_lowest"), count_per_template=4)
    oracle = _oracle(adversarial_bundle, questions, mode="textual")
    checked = 0
    for question in questions:
        b, year = question.bindings, question.dataset_year
        winner, lowest = b["winner_symbol"], b.get("extreme") == "lowest"
        others = {s: table.get(s, year, b["metric1"]) for s in b["symbols"] if s != winner}
        best = (min if lowest else max)(r.normalized for r in others.values())
        winner_metric2_pages = {
            (r.source_doc_id, p)
            for r in table.records
            if r.stock_symbol == winner and r.metric_id == b["metric2"]
            for p in r.source_pages
        }
        # A year of the true winner's first figure that loses to the others.
        losing = [
            r for r in table.records
            if r.stock_symbol == winner and r.metric_id == b["metric1"]
            and (r.normalized > best if lowest else r.normalized < best)
            and not {(r.source_doc_id, p) for p in r.source_pages} & winner_metric2_pages
        ]
        if not losing:
            continue
        shown_winner = min(s for s, r in others.items() if r.normalized == best)
        answer = table.get(shown_winner, year, b["metric2"])
        refs = [(r.source_doc_id, r.source_pages[0]) for r in [*others.values(), losing[0], answer]]
        assert not set(refs) & winner_metric2_pages
        reply = oracle.chat(_answer_prompt(question.text, refs))
        assert reply == _fmt_plain(answer.normalized)
        assert _two_pass_reply(oracle, question, refs) == "0"
        checked += 1
    assert checked > 0, checked
