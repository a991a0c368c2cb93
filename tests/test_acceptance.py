"""Acceptance criteria.

Each test exercises one criterion end to end at its stated tolerance and
prints a PASS line (run with ``pytest -s`` to see them live). The corpus is
the bundled synthetic one: 18 companies, five fiscal years, six reported
metrics, 10-K/10-Q filings, with an adversarial variant whose cross-year
near-duplicate pages are constructed to separate the four QA systems.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from mdqa.backends import HashedBowEmbedder
from mdqa.cli import main as cli_main
from mdqa.evaluation import (
    aggregate_cells,
    cells_r_squared,
    cost_report,
    match_answer,
    prf_at_k,
    r_squared,
    stability_report,
)
from mdqa.oracle import OracleChatBackend
from mdqa.planlang import ExecEnv, PlanParseError, PlanRuntimeError, execute_plan, parse_plan
from mdqa.prompts import load_pack
from mdqa.qasystems import Backends, make_exec_env, run_system
from mdqa.questiongen import GenConfig, Question, generate_questions
from mdqa.records import Answer, SystemRun
from mdqa.retrieval import build_index, retrieve_relevant_pages
from mdqa.synth import ORACLE_METRIC_ALIASES

from conftest import DEMO_ALIASES, DEMO_DEBTS_2023


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def _num(x) -> Answer:
    return Answer(kind="number", number=float(x))


def _gold(x) -> Answer:
    return Answer(kind="number", number=float(x))


# ---------------------------------------------------------------------------
# A1 Plan-language fidelity
# ---------------------------------------------------------------------------

APPENDIX_LOWEST_DEBT_PLAN = """\
companies = ["Honeywell", "Caterpillar", "Pfizer", "PepsiCo", "Boeing"]
stock_symbols = ["HON", "CAT", "PFE", "PEP", "BA"]
total_debts = {}
names = {}
for company, symbol in zip(companies, stock_symbols):
  question_debt = "What is the total debt of {company} ({symbol}) in 2023 in US dollars?"
  documents = select_documents(stock_symbols=[symbol], form_types=["10-K"], fiscal_years=[2023])
  pages = retrieve_relevant_pages(question_debt, documents)
  total_debts[symbol] = float(extract_value(question_debt, pages))
  names[symbol] = company
lowest = argmin(total_debts)
lowest_name = names[lowest]
question_revenue = "What is the total revenues of {lowest_name} ({lowest}) in 2023 in US dollars?"
documents = select_documents(stock_symbols=[lowest], form_types=["10-K"], fiscal_years=[2023])
pages = retrieve_relevant_pages(question_revenue, documents)
total_revenues = extract_value(question_revenue, pages)
emit(total_revenues)
"""


def test_a1_plan_language_fidelity(demo_world):
    collection, table, index, embedder = demo_world
    chat = OracleChatBackend(table, 2023, mode="perfect", metric_aliases=DEMO_ALIASES)
    backends = Backends(chat=chat, embed=embedder)
    run = SystemRun("codegen_docs_pager", "appendix", 4, None, [], 0, 0)
    env = make_exec_env(run, collection, index, backends)

    started = time.perf_counter()
    demos = load_pack("codegen_docs_pager").fewshot_plans(current_year=2023)
    assert len(demos) == 3

    # Brute-force expectations straight from the fixture's fact values.
    ko_dividends = table.get("KO", 2017, "dividends_paid").normalized
    expected_demo1 = "Yes" if ko_dividends > 0 else "No"
    abt_base = table.get("ABT", 2021, "total_revenue").normalized
    abt_now = table.get("ABT", 2023, "total_revenue").normalized
    expected_demo2 = (abt_now - abt_base) / abt_base * 100.0
    expected_demo3 = sum(
        table.get("NFLX", year, "capital_return").normalized for year in (2021, 2022, 2023)
    )

    emitted = []
    for question, source in demos:
        trace = execute_plan(parse_plan(source), env)
        emitted.append(trace.emitted)
    assert emitted[0] == expected_demo1
    assert emitted[1] == expected_demo2  # exact: same float operations
    assert emitted[2] == expected_demo3
    assert emitted[2] == 6.0e9

    # The lowest-total-debt example: brute-force winner, then its revenue.
    winner = min(sorted(DEMO_DEBTS_2023), key=lambda s: (DEMO_DEBTS_2023[s], s))
    assert winner == "PFE"
    expected_revenue = table.get(winner, 2023, "total_revenue").normalized
    trace = execute_plan(parse_plan(APPENDIX_LOWEST_DEBT_PLAN), env)
    assert trace.emitted == expected_revenue
    assert trace.emitted == 5.85e10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report("A1", f"3 demonstrations + lowest-debt example exact in {elapsed*1000:.0f}ms")


# ---------------------------------------------------------------------------
# A2 Clean-corpus ceiling
# ---------------------------------------------------------------------------


def test_a2_clean_corpus_ceiling(clean_bundle, clean_index):
    collection, table = clean_bundle
    started = time.perf_counter()
    single_value_config = GenConfig(
        template_ids=("ve1", "ve2", "cve1", "cve2", "yn1", "mo1"),
        count_per_template=3,
        dataset_year=2023,
        rng_seed=7,
    )
    multi_doc_config = GenConfig(
        template_ids=("md1", "md2", "md3", "md4", "md4_lowest"),
        count_per_template=3,
        dataset_year=2023,
        rng_seed=7,
        metrics_by_template={"md1": ("dividends_paid",), "md3": ("total_revenue",)},
        num_years=(2, 3),
    )
    for label, config in (("single-value", single_value_config), ("multi-doc", multi_doc_config)):
        questions = generate_questions(table, collection, config)
        assert questions
        chat = OracleChatBackend(
            table, 2023, questions=questions, mode="perfect",
            metric_aliases=ORACLE_METRIC_ALIASES,
        )
        backends = Backends(chat, HashedBowEmbedder())
        correct = 0
        for question in questions:
            run = run_system(
                "codegen_docs_pager", question.question_id, question.text,
                collection, clean_index, backends, 4, 2023,
            )
            assert run.failure is None, (question.question_id, run.failure)
            correct += match_answer(run.predicted, question.gold)
        accuracy = correct / len(questions)
        assert accuracy == 1.0, f"{label}: accuracy {accuracy} != 1.0"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _report("A2", f"codegen_docs_pager accuracy 1.0 on both sets at k=4 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A3 System ordering on the adversarial corpus
# ---------------------------------------------------------------------------


def test_a3_system_ordering(adversarial_bundle, adversarial_index):
    collection, table = adversarial_bundle
    started = time.perf_counter()
    config = GenConfig(
        template_ids=("ve2", "md1", "md3", "md4"),
        count_per_template=8,
        dataset_year=2023,
        rng_seed=13,
        metrics_by_template={
            "ve2": ("total_revenue", "total_employees", "net_income"),
            "md1": ("dividends_paid",),
            "md3": ("total_revenue",),
            "md4": ("total_employees", "net_income"),
        },
        years=(2019, 2020, 2021, 2022),
        num_years=(2, 4),
    )
    questions = generate_questions(table, collection, config)
    # The separation argument needs both decoyed and clean single-value
    # questions in the mix; the frozen seed provides them.
    ve2_metrics = {q.bindings["metric"] for q in questions if q.template_id == "ve2"}
    assert "total_revenue" in ve2_metrics
    assert ve2_metrics - {"total_revenue"}

    chat = OracleChatBackend(
        table, 2023, questions=questions, mode="textual",
        metric_aliases=ORACLE_METRIC_ALIASES,
    )
    backends = Backends(chat, HashedBowEmbedder())
    accuracy = {}
    for system in ("vanilla_rag", "multi_query_rag", "codegen_pager", "codegen_docs_pager"):
        correct = 0
        for question in questions:
            run = run_system(
                system, question.question_id, question.text,
                collection, adversarial_index, backends, 4, 2023,
            )
            correct += run.failure is None and match_answer(run.predicted, question.gold)
        accuracy[system] = correct / len(questions)
    elapsed = time.perf_counter() - started
    assert accuracy["codegen_docs_pager"] > accuracy["codegen_pager"], accuracy
    assert accuracy["codegen_pager"] > accuracy["vanilla_rag"], accuracy
    assert accuracy["multi_query_rag"] >= accuracy["vanilla_rag"], accuracy
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    _report(
        "A3",
        "accuracy "
        + " > ".join(
            f"{accuracy[s]:.2f}"
            for s in ("codegen_docs_pager", "codegen_pager", "vanilla_rag")
        )
        + f", multi_query {accuracy['multi_query_rag']:.2f} >= vanilla, in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# A4 Recall-accuracy coupling
# ---------------------------------------------------------------------------


def _constructed_grid(clean_bundle):
    """(system x k) cells where accuracy is exactly affine in page recall and
    page precision has exactly zero covariance with accuracy."""
    collection, _ = clean_bundle
    doc = collection.documents[0]
    others = [d for d in collection.documents if d.doc_id != doc.doc_id]
    gold_refs = [(doc.doc_id, p.page_number) for p in doc.pages[:4]]
    question = Question(
        question_id="grid-q",
        template_id="ve2",
        text="t",
        slots={},
        complexity_tags=frozenset(),
        gold=_gold(1.0),
        gold_docs=(doc.doc_id,),
        gold_pages=tuple(gold_refs),
        dataset_year=2023,
    )
    pad_pool = [(d.doc_id, p.page_number) for d in others for p in d.pages]
    recalls = (0.25, 0.50, 0.75, 1.00)
    precisions = (0.50, 0.25, 0.25, 0.50)  # even pattern: zero covariance
    runs = []
    for cell, (recall, precision) in enumerate(zip(recalls, precisions)):
        hits = round(recall * 4)
        total = round(hits / precision)
        refs = gold_refs[:hits] + pad_pool[: total - hits]
        n_correct = round((0.2 + 0.6 * recall) * 20)
        for i in range(20):
            runs.append(
                SystemRun(
                    system_id=f"grid{cell}",
                    question_id="grid-q",
                    k=4,
                    predicted=_num(1.0) if i < n_correct else _num(50.0),
                    retrieved_pages=list(refs),
                    chat_calls=1,
                    embed_calls=1,
                )
            )
    return runs, [question]


def test_a4_recall_accuracy_coupling(clean_bundle):
    collection, _ = clean_bundle
    runs, questions = _constructed_grid(clean_bundle)
    report = cells_r_squared(aggregate_cells(runs, questions, collection))
    assert report["page_recall"] >= 0.99, report
    assert report["page_precision"] <= 0.05, report

    rng = random.Random(17)
    worst = 0.0
    for _ in range(200):
        xs = [rng.uniform(0, 100) for _ in range(10)]
        ys = [2.5 * x + rng.gauss(0, 15) for x in xs]
        slope, intercept = np.polyfit(xs, ys, 1)
        fitted = slope * np.asarray(xs) + intercept
        ss_res = float(np.sum((np.asarray(ys) - fitted) ** 2))
        ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
        oracle = 1 - ss_res / ss_tot
        worst = max(worst, abs(r_squared(xs, ys) - oracle))
    assert worst <= 1e-9, worst
    _report(
        "A4",
        f"page-recall R2 {report['page_recall']:.4f} >= 0.99, "
        f"page-precision R2 {report['page_precision']:.2e} <= 0.05, "
        f"OLS max deviation {worst:.2e} <= 1e-9",
    )


# ---------------------------------------------------------------------------
# A5 Answer-tolerance rule
# ---------------------------------------------------------------------------


def test_a5_tolerance_rule():
    # Boundary: 1% relative error, inclusive.
    assert match_answer(_num(101.0), _gold(100.0)) is True
    assert match_answer(_num(99.0), _gold(100.0)) is True
    assert match_answer(_num(101.01), _gold(100.0)) is False
    assert match_answer(_num(98.99), _gold(100.0)) is False
    # Gold zero: absolute 1e-9 threshold.
    assert match_answer(_num(0.0), _gold(0.0)) is True
    assert match_answer(_num(1e-9), _gold(0.0)) is True
    assert match_answer(_num(2e-9), _gold(0.0)) is False
    # Scale consistency over 1000 random (gold, pred, scale) triples.
    rng = random.Random(4242)
    checked = 0
    for _ in range(1000):
        gold = rng.uniform(-1e9, 1e9)
        if gold == 0:
            continue
        pred = gold * (1 + rng.uniform(-0.02, 0.02))
        scale = 10 ** rng.uniform(-9, 9)
        assert match_answer(_num(pred), _gold(gold)) == match_answer(
            _num(pred * scale), _gold(gold * scale)
        )
        checked += 1
    assert checked >= 990
    _report("A5", f"boundary inclusive, gold-zero rule, {checked} scale triples consistent")


# ---------------------------------------------------------------------------
# A6 Retrieval metrics
# ---------------------------------------------------------------------------


def test_a6_retrieval_metrics(clean_bundle, clean_index):
    rng = random.Random(616)
    universe = [f"p{i}" for i in range(15)]
    for _ in range(1000):
        retrieved = rng.sample(universe, rng.randint(0, 10))
        gold = set(rng.sample(universe, rng.randint(1, 8)))
        p, r, f1 = prf_at_k(retrieved, gold)
        hit = len(set(retrieved) & gold)
        expect_p = hit / len(set(retrieved)) if retrieved else 0.0
        expect_r = hit / len(gold)
        expect_f1 = (
            0.0 if expect_p + expect_r == 0 else 2 * expect_p * expect_r / (expect_p + expect_r)
        )
        assert (p, r, f1) == (expect_p, expect_r, expect_f1)

    collection, table = clean_bundle
    embedder = HashedBowEmbedder()
    vocabulary = [
        "total", "revenue", "employees", "dividends", "net", "income", "debt",
        "2019", "2020", "2021", "2022", "2023", "argonix", "boltara", "fiscal",
    ]
    for _ in range(100):
        query = " ".join(rng.choices(vocabulary, k=rng.randint(2, 5)))
        full = retrieve_relevant_pages(query, collection.documents, 64, clean_index, embedder)
        for k in (1, 4, 16, 48):
            prefix = retrieve_relevant_pages(query, collection.documents, k, clean_index, embedder)
            assert [s.page_ref for s in prefix] == [s.page_ref for s in full[:k]]
    _report("A6", "prf matches brute force on 1000 pairs; top-k prefix holds on 100 queries")


# ---------------------------------------------------------------------------
# A7 Determinism and stability
# ---------------------------------------------------------------------------


def _full_session(root, seed=7):
    runner = CliRunner()
    corpus = root / "corpus"
    result = runner.invoke(
        cli_main, ["synth", str(corpus), "--kind", "clean", "--companies", "6", "--seed", "11"]
    )
    assert result.exit_code == 0, result.output
    questions = root / "questions.jsonl"
    result = runner.invoke(
        cli_main,
        [
            "gen", "--corpus", str(corpus), "--out", str(questions),
            "--templates", "ve2,md1,md3,md4", "--count", "3",
            "--dataset-year", "2023", "--seed", str(seed),
            "--metrics", "md1=dividends_paid", "--metrics", "md3=total_revenue",
        ],
    )
    assert result.exit_code == 0, result.output
    session = root / "session"
    result = runner.invoke(
        cli_main,
        [
            "run", "--corpus", str(corpus), "--questions", str(questions),
            "--session", str(session), "--k-grid", "4",
        ],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(cli_main, ["eval", str(session)])
    assert result.exit_code in (0, 1), result.output
    return session


def test_a7_determinism_and_stability(tmp_path):
    first = _full_session(tmp_path / "one")
    second = _full_session(tmp_path / "two")
    for name in ("questions.jsonl", "system_runs.jsonl", "report.json"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between identically-seeded sessions"

    runner = CliRunner()
    corpus = tmp_path / "one" / "corpus"
    stab = tmp_path / "stability"
    result = runner.invoke(
        cli_main,
        [
            "stability", "--corpus", str(corpus), "--session", str(stab),
            "--variant-years", "2019:2023", "--templates", "ve2,md2",
            "--count", "3", "--systems", "codegen_docs_pager",
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((stab / "stability.json").read_text())
    assert len(report["per_variant"]) == 5
    assert report["stddev"] == 0.0
    _report("A7", "byte-identical sessions; stability stddev over 5 year variants = 0.0")


# ---------------------------------------------------------------------------
# A8 Cost accounting
# ---------------------------------------------------------------------------


def test_a8_cost_accounting(clean_bundle, clean_index):
    collection, table = clean_bundle
    config = GenConfig(
        template_ids=("md4",),
        count_per_template=4,
        dataset_year=2023,
        rng_seed=3,
        metrics_by_template={"md4": ("total_employees", "net_income")},
        company_list_size=5,
    )
    questions = generate_questions(table, collection, config)

    class CountingOracle(OracleChatBackend):
        """The chat backend, counting the calls it receives."""
        calls = 0

        def chat(self, messages, **params):
            self.calls += 1
            return super().chat(messages, **params)

    chat = CountingOracle(
        table, 2023, questions=questions, mode="perfect", metric_aliases=ORACLE_METRIC_ALIASES,
    )
    backends = Backends(chat, HashedBowEmbedder())
    runs, received = [], {}
    for system in ("vanilla_rag", "codegen_docs_pager"):
        for question in questions:
            before = chat.calls
            runs.append(
                run_system(
                    system, question.question_id, question.text,
                    collection, clean_index, backends, 4, 2023,
                )
            )
            received[(system, question.question_id)] = chat.calls - before
    codegen = [r for r in runs if r.system_id == "codegen_docs_pager"]
    assert all(r.chat_calls == 7 for r in codegen), [r.chat_calls for r in codegen]
    # Each trace counts its plan's calls: all but the one that wrote the plan.
    assert all(r.trace["chat_calls"] == 6 for r in codegen)
    report = cost_report((r.system_id, r.chat_calls, 1) for r in runs)
    assert report["mean_chat_calls"]["vanilla_rag"] == 1.0
    assert report["mean_chat_calls"]["codegen_docs_pager"] == 7.0
    assert report["ratio_vs_vanilla"]["codegen_docs_pager"] == 7.0
    # The calls the backend received equal the summed per-run counts.
    assert chat.calls == sum(r.chat_calls for r in runs)
    for run in runs:
        assert received[(run.system_id, run.question_id)] == run.chat_calls
    _report("A8", "md4 codegen runs cost exactly 7 chat calls; ratio vs vanilla = 7.0")


# ---------------------------------------------------------------------------
# A9 Sandbox
# ---------------------------------------------------------------------------


def test_a9_sandbox():
    # Non-whitelisted callables are rejected at parse time.
    for source in ('open("/etc/passwd")', "exec(code)", '__import__("os")', "eval(x)"):
        with pytest.raises(PlanParseError):
            parse_plan(source)

    # A looping plan halts at the default 10,000-step budget.
    looping = "total = 0\nfor i in range(0, 500000):\n  total = total + 1\nemit(total)"
    with pytest.raises(PlanRuntimeError) as exc_info:
        execute_plan(parse_plan(looping), ExecEnv())
    assert exc_info.value.kind == "step_budget_exceeded"
    assert exc_info.value.trace.step_count <= 10_001

    # Instrumented environment: every observable effect flows through the
    # three injected builtins, and the trace accounts for each one.
    effects = []

    class Doc:
        doc_id = "doc-x"

    from mdqa.planlang import PageHandle

    def select_fn(**kwargs):
        effects.append("select")
        return [Doc()]

    def retrieve_fn(question, documents):
        effects.append("retrieve")
        return [PageHandle("doc-x", 1, "t", "c")]

    def extract_fn(question, pages):
        effects.append("extract")
        return 5.0

    env = ExecEnv(select_fn=select_fn, retrieve_fn=retrieve_fn, extract_fn=extract_fn)
    source = (
        'docs = select_documents(stock_symbols=["X"])\n'
        'pages = retrieve_relevant_pages("q", docs)\n'
        'value = extract_value("q", pages)\n'
        "emit(value)"
    )
    trace = execute_plan(parse_plan(source), env)
    assert effects == ["select", "retrieve", "extract"]
    recorded = [name for name, _, _ in trace.builtin_calls]
    assert recorded == ["select_documents", "retrieve_relevant_pages", "extract_value"]
    assert trace.emitted == 5.0
    _report("A9", "whitelist enforced, budget halts runaway loop, effects fully traced")
