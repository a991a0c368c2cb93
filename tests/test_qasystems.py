from __future__ import annotations

import pytest

from mdqa.backends import BackendError, HashedBowEmbedder
from mdqa.oracle import OracleChatBackend
from mdqa.planlang import PageHandle
from mdqa.qasystems import (
    AnswerParseError,
    Backends,
    ExtractionError,
    extract_value,
    parse_answer_text,
    parse_emitted,
    run_system,
)
from mdqa.questiongen import GenConfig, generate_questions
from mdqa.records import Answer, SystemRun
from mdqa.retrieval import build_index
from mdqa.synth import ORACLE_METRIC_ALIASES


# ---------------------------------------------------------------------------
# Answer parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1,234.5 million", 1.2345e9),
        ("approximately $2.5 billion", 2.5e9),
        ("$1,200", 1200.0),
        ("2.5B", 2.5e9),
        ("750 K", 750e3),
        ("42", 42.0),
        ("-3.4%", -3.4),
        ("about 12 thousand dollars", 12000.0),
        ("6000000000.0", 6.0e9),
    ],
)
def test_parse_number_forms(text, expected):
    answer = parse_answer_text(text)
    assert answer.kind == "number"
    assert answer.number == pytest.approx(expected)


def test_parse_yesno():
    assert parse_answer_text("Yes").label == "Yes"
    assert parse_answer_text("no.").label == "No"
    assert parse_answer_text(" YES ").kind == "yesno"


def test_parse_multi_labeled_lines():
    answer = parse_answer_text("Total Revenue: 1,234.5 millions\nTotal Employees: 25,400")
    assert answer.kind == "multi"
    assert dict(answer.parts) == {
        "Total Revenue": pytest.approx(1.2345e9),
        "Total Employees": pytest.approx(25400.0),
    }


def test_parse_single_labeled_line_is_number():
    answer = parse_answer_text("Revenue: 1,000")
    assert answer.kind == "number"
    assert answer.number == 1000.0


def test_parse_unparseable_raises():
    with pytest.raises(AnswerParseError):
        parse_answer_text("I cannot determine that")
    with pytest.raises(AnswerParseError):
        parse_answer_text("")


def test_parse_emitted_values():
    assert parse_emitted(6.0e9).number == 6.0e9
    assert parse_emitted("Yes").kind == "yesno"
    multi = parse_emitted({"Revenue": 1.0, "Margin": 2.0})
    assert multi.kind == "multi" and len(multi.parts) == 2
    single_map = parse_emitted({"Revenue": 5.0})
    assert single_map.kind == "number" and single_map.number == 5.0
    with pytest.raises(AnswerParseError):
        parse_emitted([1.0, 2.0])
    with pytest.raises(AnswerParseError):
        parse_emitted(True)


def test_parsed_answer_round_trip():
    for answer in (
        Answer(kind="number", number=1.5, raw_text="1.5"),
        Answer(kind="yesno", label="No", raw_text="no"),
        Answer(kind="multi", parts=(("A", 1.0), ("B", 2.0)), raw_text="x"),
    ):
        # Only a run record writes the reply an answer was parsed from.
        assert "raw_text" not in answer.to_json_dict()
        run = SystemRun("vanilla_rag", "q", 4, answer, [("d", 1)], 1, 1)
        assert SystemRun.from_json_dict(run.to_json_dict()) == run


# ---------------------------------------------------------------------------
# extract_value
# ---------------------------------------------------------------------------


class _ScriptedChat:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def chat(self, messages, **params):
        self.calls += 1
        return self.replies.pop(0)


def _pages():
    return [PageHandle("doc-1", 3, "Title", "content here")]


def test_extract_value_parses_first_reply():
    chat = _ScriptedChat(["1,234.5 million"])
    answer = extract_value("query", _pages(), chat)
    assert answer.number == pytest.approx(1.2345e9)
    assert chat.calls == 1


def test_extract_value_not_found_is_definitive():
    chat = _ScriptedChat(["not found", "should never be asked"])
    with pytest.raises(ExtractionError, match="not found"):
        extract_value("query", _pages(), chat)
    assert chat.calls == 1  # no reprompt for a definitive miss


def test_extract_value_reprompts_once_on_garbage():
    chat = _ScriptedChat(["well, it depends...", "2.5 billions"])
    answer = extract_value("query", _pages(), chat)
    assert answer.number == pytest.approx(2.5e9)
    assert chat.calls == 2


def test_extract_value_fails_after_reprompt():
    chat = _ScriptedChat(["hmm", "still prose"])
    with pytest.raises(ExtractionError, match="unparseable"):
        extract_value("query", _pages(), chat)
    assert chat.calls == 2


def test_extract_value_not_found_after_reprompt_is_a_miss():
    chat = _ScriptedChat(["hmm", "Not found"])
    with pytest.raises(ExtractionError, match="value not found"):
        extract_value("query", _pages(), chat)
    assert chat.calls == 2


def test_extract_value_requires_pages():
    with pytest.raises(ExtractionError):
        extract_value("query", [], _ScriptedChat(["1"]))


def test_extract_value_yesno():
    chat = _ScriptedChat(["Yes"])
    answer = extract_value("Did X pay dividends?", _pages(), chat)
    assert answer.kind == "yesno" and answer.label == "Yes"


# ---------------------------------------------------------------------------
# Pipelines against oracle backends
# ---------------------------------------------------------------------------


class _TextLog(HashedBowEmbedder):
    """An embedder that keeps every text it is asked to embed."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def embed(self, texts):
        self.texts.extend(texts)
        return super().embed(texts)


@pytest.fixture()
def clean_world(clean_bundle, clean_index):
    collection, table = clean_bundle
    config = GenConfig(
        template_ids=("ve2", "md3"),
        count_per_template=4,
        dataset_year=2023,
        rng_seed=7,
        metrics_by_template={"md3": ("total_revenue",)},
        num_years=(2,),
    )
    questions = generate_questions(table, collection, config)
    embedder = _TextLog()
    chat = OracleChatBackend(
        table,
        2023,
        questions=questions,
        mode="perfect",
        metric_aliases=ORACLE_METRIC_ALIASES,
    )
    return collection, table, clean_index, questions, Backends(chat, embedder)


def test_vanilla_correct_when_gold_ranks_first(clean_world):
    collection, table, index, questions, backends = clean_world
    question = next(q for q in questions if q.template_id == "ve2")
    run = run_system(
        "vanilla_rag", question.question_id, question.text, collection, index, backends, 4, 2023
    )
    assert run.failure is None
    assert run.chat_calls == 1
    assert run.predicted.kind == "number"
    assert run.predicted.number == pytest.approx(question.gold.number)
    assert len(run.retrieved_pages) == 4


def test_vanilla_rejects_k_zero(clean_world):
    collection, _, index, questions, backends = clean_world
    with pytest.raises(ValueError):
        run_system("vanilla_rag", "q", "text", collection, index, backends, 0, 2023)


def test_retrieved_docs_is_signature_image(clean_world):
    # A run records pages only; its documents are derived through the corpus.
    collection, _, index, questions, backends = clean_world
    question = questions[0]
    run = run_system(
        "vanilla_rag", question.question_id, question.text, collection, index, backends, 4, 2023
    )
    assert run.retrieved_pages
    assert "retrieved_docs" not in run.to_json_dict()
    for ref in run.retrieved_pages:
        sym, form, year, pe = collection.get_document(ref[0]).signature()
        assert collection.page_signature(ref) == (sym, form, year, pe.isoformat())


def test_multiquery_n1_matches_vanilla_retrieval(clean_world):
    collection, _, index, questions, backends = clean_world
    question = questions[0]
    vanilla = run_system(
        "vanilla_rag", question.question_id, question.text, collection, index, backends, 4, 2023
    )
    mq = run_system(
        "multi_query_rag", question.question_id, question.text, collection, index, backends,
        4, 2023, n_queries=1,
    )
    assert mq.retrieved_pages == vanilla.retrieved_pages
    assert mq.chat_calls == vanilla.chat_calls + 1  # the expansion call
    assert mq.predicted.number == pytest.approx(vanilla.predicted.number)


def test_multiquery_covers_more_gold_years_on_growth(clean_world):
    collection, _, index, questions, backends = clean_world
    question = next(q for q in questions if q.template_id == "md3")
    gold_pages = set(question.gold_pages)
    vanilla = run_system(
        "vanilla_rag", question.question_id, question.text, collection, index, backends, 4, 2023
    )
    mq = run_system(
        "multi_query_rag", question.question_id, question.text, collection, index, backends,
        4, 2023, n_queries=3,
    )
    vanilla_recall = len(set(vanilla.retrieved_pages) & gold_pages) / len(gold_pages)
    mq_recall = len(set(mq.retrieved_pages) & gold_pages) / len(gold_pages)
    assert mq_recall > vanilla_recall
    assert mq_recall == 1.0


def test_multiquery_expansion_failure_recorded(clean_world):
    collection, _, index, questions, backends = clean_world

    class Exploding:
        def chat(self, messages, **params):
            raise BackendError("expansion died")

    bad = Backends(chat=Exploding(), embed=backends.embed)
    run = run_system("multi_query_rag", "q1", "text", collection, index, bad, 4, 2023)
    assert run.failure is not None
    assert run.failure.startswith("retrieval_error")
    assert run.predicted is None


class _EmbedOutage:
    def embed(self, texts):
        raise BackendError("embed endpoint down")


@pytest.mark.parametrize(
    "system_id,chat_calls", [("vanilla_rag", 0), ("multi_query_rag", 1)]
)
def test_rag_embed_failure_recorded(clean_world, system_id, chat_calls):
    collection, _, index, questions, backends = clean_world
    question = questions[0]
    broken = Backends(chat=backends.chat, embed=_EmbedOutage())
    run = run_system(
        system_id, question.question_id, question.text, collection, index, broken, 4, 2023
    )
    assert run.failure == "retrieval_error: embed endpoint down"
    assert run.predicted is None
    assert run.retrieved_pages == []
    assert (run.chat_calls, run.embed_calls) == (chat_calls, 1)


def test_codegen_failed_extract_call_is_counted(clean_bundle, clean_index):
    collection, _ = clean_bundle

    class ExtractOutage:
        calls = 0

        def chat(self, messages, **params):
            self.calls += 1
            if any("Value query:" in m["content"] for m in messages):
                raise BackendError("extract endpoint down")
            return 'pages = retrieve_relevant_pages("total revenue")\n' \
                'emit(extract_value("total revenue", pages))'

    chat = ExtractOutage()
    backends = Backends(chat, HashedBowEmbedder())
    run = run_system("codegen_pager", "q", "irrelevant", collection, clean_index, backends, 4, 2023)
    assert run.failure.startswith("plan_runtime_error:extraction_failed")
    assert chat.calls == 2
    assert run.chat_calls == 2
    assert run.trace["chat_calls"] == 1
    assert run.embed_calls == 1


def test_codegen_plan_that_builds_too_much_is_a_recorded_failure(clean_bundle, clean_index):
    collection, _ = clean_bundle

    class Doubler:
        def chat(self, messages, **params):
            return 's = "a"\nfor i in range(26):\n  s = s + s\nemit(s)'

    backends = Backends(Doubler(), HashedBowEmbedder())
    run = run_system("codegen_pager", "q", "irrelevant", collection, clean_index, backends, 4, 2023)
    assert run.failure.startswith("plan_runtime_error:size_budget_exceeded")
    assert run.predicted is None


def test_codegen_md4_costs_seven_chat_calls(clean_bundle, clean_index):
    collection, table = clean_bundle
    config = GenConfig(
        template_ids=("md4",),
        count_per_template=2,
        dataset_year=2023,
        rng_seed=3,
        metrics_by_template={"md4": ("total_employees", "net_income")},
        company_list_size=5,
    )
    questions = generate_questions(table, collection, config)
    chat = OracleChatBackend(
        table, 2023, questions=questions, mode="perfect",
        metric_aliases=ORACLE_METRIC_ALIASES,
    )
    backends = Backends(chat, HashedBowEmbedder())
    for question in questions:
        run = run_system(
            "codegen_docs_pager", question.question_id, question.text, collection, clean_index,
            backends, 4, 2023,
        )
        assert run.failure is None
        # 1 plan call + 5 first-hop extractions + 1 final extraction
        assert run.chat_calls == 7
        assert run.predicted.number == pytest.approx(question.gold.number)
        extracts = [c for c in run.trace["builtin_calls"] if c[0] == "extract_value"]
        assert run.chat_calls >= 1 + len(extracts)
        assert run.trace["chat_calls"] == len(extracts) == 6


def test_codegen_pool_holding_a_document_twice_returns_each_page_once(
    clean_bundle, clean_index
):
    collection, _ = clean_bundle
    plan = (
        'documents = select_documents(stock_symbols=["ARGX"], form_types=["10-K"], '
        "fiscal_years=[2019])\n"
        "append(documents, documents[0])\n"
        'pages = retrieve_relevant_pages("total revenue", documents)\n'
        "emit(1)\n"
    )

    class Planner:
        def chat(self, messages, **params):
            return plan

    backends = Backends(Planner(), HashedBowEmbedder())
    run = run_system(
        "codegen_docs_pager", "q", "irrelevant", collection, clean_index, backends, 4, 2023
    )
    assert run.failure is None
    (retrieved,) = [c[2] for c in run.trace["builtin_calls"] if c[0] == "retrieve_relevant_pages"]
    assert retrieved == (
        "[<page argx-10k-2019#2>, <page argx-10k-2019#3>, "
        "<page argx-10k-2019#1>, <page argx-10k-2019#4>]"
    )
    assert len(run.retrieved_pages) == 4


def test_codegen_plan_without_emit_is_no_answer(clean_bundle, clean_index):
    collection, table = clean_bundle

    class PlanOnly:
        def chat(self, messages, **params):
            return "x = 1\ny = x + 1"

    backends = Backends(PlanOnly(), HashedBowEmbedder())
    run = run_system(
        "codegen_docs_pager", "q", "irrelevant", collection, clean_index, backends, 4, 2023
    )
    assert run.failure is not None
    assert "no_answer" in run.failure
    assert run.predicted is None
    assert run.trace is not None


def test_codegen_parse_failure_retries_once(clean_bundle, clean_index):
    collection, table = clean_bundle
    replies = ["this is )( not a plan", "emit(42)"]

    class FlakyPlanner:
        def __init__(self):
            self.calls = 0

        def chat(self, messages, **params):
            self.calls += 1
            return replies[self.calls - 1]

    planner = FlakyPlanner()
    backends = Backends(planner, HashedBowEmbedder())
    run = run_system(
        "codegen_docs_pager", "q", "irrelevant", collection, clean_index, backends, 4, 2023
    )
    assert planner.calls == 2
    assert run.chat_calls == 2
    assert run.failure is None
    assert run.predicted.number == 42.0


def test_codegen_double_parse_failure_recorded(clean_bundle, clean_index):
    collection, table = clean_bundle

    class Hopeless:
        def chat(self, messages, **params):
            return "(((("

    backends = Backends(Hopeless(), HashedBowEmbedder())
    run = run_system(
        "codegen_docs_pager", "q", "irrelevant", collection, clean_index, backends, 4, 2023
    )
    assert run.failure.startswith("plan_parse_error")
    assert run.chat_calls == 2


def test_codegen_too_deep_plan_is_a_parse_failure(clean_bundle, clean_index):
    """A reply nesting 2,000 parentheses is recorded as a parse failure; it
    does not escape ``run_system``."""
    collection, _ = clean_bundle

    class Deep:
        def chat(self, messages, **params):
            return "emit(" + "(" * 2000 + "1" + ")" * 2000 + ")"

    backends = Backends(Deep(), HashedBowEmbedder())
    run = run_system("codegen_pager", "q1", "q", collection, clean_index, backends, 4, 2023)
    assert run.failure.startswith("plan_parse_error")
    assert "plan nests deeper than" in run.failure


def test_oracle_replies_always_parse(clean_world):
    # Answer parsing is total over the oracle's reply grammar.
    collection, _, index, questions, backends = clean_world
    for question in questions:
        for system in ("vanilla_rag", "multi_query_rag", "codegen_docs_pager"):
            run = run_system(
                system, question.question_id, question.text, collection, index, backends, 4, 2023
            )
            assert run.failure is None or not run.failure.startswith("answer_parse")


def test_adversarial_vanilla_doc_recall_zero(adversarial_bundle, adversarial_index):
    # Near-duplicate summary pages from the latest year crowd out the gold
    # page; every retrieved page then carries the wrong fiscal year.
    collection, table = adversarial_bundle
    config = GenConfig(
        template_ids=("ve2",),
        count_per_template=4,
        dataset_year=2023,
        rng_seed=13,
        metrics_by_template={"ve2": ("total_revenue",)},
        years=(2019, 2020, 2021, 2022),
    )
    questions = generate_questions(table, collection, config)
    chat = OracleChatBackend(
        table, 2023, questions=questions, mode="textual",
        metric_aliases=ORACLE_METRIC_ALIASES,
    )
    backends = Backends(chat, HashedBowEmbedder())
    for question in questions:
        run = run_system(
            "vanilla_rag", question.question_id, question.text, collection, adversarial_index,
            backends, 4, 2023,
        )
        gold_sigs = {
            collection.get_document(d).signature() for d in question.gold_docs
        }
        retrieved_years = {
            collection.page_signature(ref)[2] for ref in run.retrieved_pages
        }
        assert retrieved_years == {2023}
        assert all(sig[2] != 2023 for sig in gold_sigs)
        # Textual extraction grabs the wrong-year figure: answer is wrong but
        # parseable.
        assert run.failure is None
        assert run.predicted.number != pytest.approx(question.gold.number, rel=0.01)


def test_clean_corpus_weak_ordering_on_multi_doc_set(clean_bundle, clean_index):
    # On the clean corpus the codegen systems cannot do worse than the RAG
    # baselines on multi-document questions.
    collection, table = clean_bundle
    config = GenConfig(
        template_ids=("md1", "md3", "md4"),
        count_per_template=4,
        dataset_year=2023,
        rng_seed=21,
        metrics_by_template={"md1": ("dividends_paid",), "md3": ("total_revenue",)},
        num_years=(2, 3),
    )
    questions = generate_questions(table, collection, config)
    chat = OracleChatBackend(
        table, 2023, questions=questions, mode="perfect",
        metric_aliases=ORACLE_METRIC_ALIASES,
    )
    backends = Backends(chat, HashedBowEmbedder())
    accuracy = {}
    for system in ("vanilla_rag", "codegen_pager", "codegen_docs_pager"):
        correct = 0
        for question in questions:
            run = run_system(
                system, question.question_id, question.text,
                collection, clean_index, backends, 4, 2023,
            )
            from mdqa.evaluation import match_answer

            correct += run.failure is None and match_answer(run.predicted, question.gold)
        accuracy[system] = correct / len(questions)
    assert accuracy["codegen_docs_pager"] >= accuracy["codegen_pager"]
    assert accuracy["codegen_pager"] >= accuracy["vanilla_rag"]


def test_run_system_embeds_only_its_question(clean_world):
    collection, _, index, questions, backends = clean_world
    question = questions[0]
    run = run_system(
        "vanilla_rag", question.question_id, question.text, collection, index, backends, 4, 2023
    )
    # vanilla_rag embeds one text, its question, in one call.
    assert run.embed_calls == 1
    assert backends.embed.texts == [question.text]


def test_k_sweep_meters_every_embed_while_ranking_once(clean_world):
    """Across a question's k sweep the index ranks each query once, yet every
    run still meters its own embed calls and the embedder embeds them all."""
    collection, _, _, questions, backends = clean_world
    index = build_index(collection, HashedBowEmbedder())
    question = questions[0]
    runs = [
        run_system(
            system_id, question.question_id, question.text, collection, index, backends, k, 2023
        )
        for system_id in ("vanilla_rag", "multi_query_rag")
        for k in (4, 8, 16)
    ]
    assert all(run.failure is None for run in runs)
    n_queries = runs[-1].embed_calls
    assert n_queries > 1
    assert [run.embed_calls for run in runs] == [1] * 3 + [n_queries] * 3
    # One text per embed call: the question three times, then each query.
    assert len(backends.embed.texts) == 3 + 3 * n_queries
    assert backends.embed.texts[:4] == [question.text] * 4
    # The question itself is multi_query_rag's first query: its ranking is
    # shared with vanilla_rag's.
    assert len(index._rankings) == n_queries


def test_system_run_round_trip(clean_world):
    collection, _, index, questions, backends = clean_world
    question = questions[0]
    run = run_system(
        "codegen_docs_pager", question.question_id, question.text, collection, index,
        backends, 4, 2023,
    )
    assert SystemRun.from_json_dict(run.to_json_dict()).to_json_dict() == run.to_json_dict()


# ---------------------------------------------------------------------------
# k-free runs
# ---------------------------------------------------------------------------


class _OnePlan:
    def __init__(self, plan):
        self.plan = plan

    def chat(self, messages, **params):
        return self.plan


_TEN_K_2019_PLAN = (
    'docs = select_documents(stock_symbols=["ARGX"], fiscal_years=[2019], form_types=["10-K"])\n'
    'pages = retrieve_relevant_pages("total revenue", docs)\n'
    "emit(1)\n"
)


def test_run_is_k_free_only_when_no_cut_reached_k(clean_bundle, clean_index):
    """A pool of exactly k pages counts as cut: only at a larger k is the
    run known to be the run at every larger k."""
    collection, _ = clean_bundle
    backends = Backends(_OnePlan(_TEN_K_2019_PLAN), HashedBowEmbedder())
    pool = sum(len(doc.pages) for doc in collection.documents
               if doc.stock_symbol == "ARGX" and doc.fiscal_year == 2019 and doc.form_type == "10-K")
    assert pool == 7
    runs = {
        k: run_system("codegen_docs_pager", "q", "q", collection, clean_index, backends, k, 2023)
        for k in (pool - 1, pool, pool + 1, 128)
    }
    assert all(run.failure is None for run in runs.values())
    assert [runs[k].k_free for k in sorted(runs)] == [False, False, True, True]
    assert [len(runs[k].retrieved_pages) for k in sorted(runs)] == [6, 7, 7, 7]
    # The flag is never written.
    assert "cut" not in runs[pool].to_json_dict()
    assert SystemRun.from_json_dict(runs[pool].to_json_dict()) == runs[pool]


def test_failed_or_whole_collection_runs_are_not_k_free(clean_world):
    collection, _, index, questions, backends = clean_world
    for system_id in ("vanilla_rag", "multi_query_rag"):
        run = run_system(system_id, "q", questions[0].text, collection, index, backends, 128, 2023)
        assert run.failure is None and run.cut and not run.k_free
    plan = _TEN_K_2019_PLAN.replace("emit(1)", "emit(missing)")
    failing = Backends(_OnePlan(plan), HashedBowEmbedder())
    run = run_system("codegen_docs_pager", "q", "q", collection, index, failing, 128, 2023)
    assert run.failure is not None and not run.cut
    assert not run.k_free


def test_only_codegen_docs_pager_plans_select_documents(clean_bundle, clean_index):
    collection, _ = clean_bundle
    backends = Backends(_OnePlan(_TEN_K_2019_PLAN), HashedBowEmbedder())
    pager, docs_pager = (
        run_system(system_id, "q", "q", collection, clean_index, backends, 4, 2023)
        for system_id in ("codegen_pager", "codegen_docs_pager")
    )
    assert pager.failure == (
        "plan_runtime_error:builtin_unavailable: builtin_unavailable: "
        "select_documents is not available to this system"
    )
    assert (pager.trace["builtin_calls"], pager.embed_calls) == ([], 0)
    assert docs_pager.failure is None and docs_pager.trace["selected_docs"] == ["argx-10k-2019"]
