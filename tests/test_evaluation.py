from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqa.corpus import UnknownDocumentError
from mdqa.evaluation import (
    CellStats,
    DegenerateDataError,
    EmptyGoldError,
    EvaluationError,
    aggregate_cells,
    build_report,
    cells_r_squared,
    cost_report,
    match_answer,
    multi_component_hits,
    prf_at_k,
    r_squared,
    stability_report,
)
from mdqa.questiongen import Question
from mdqa.records import Answer, SystemRun


def _num(x):
    return Answer(kind="number", number=float(x))


def _gold(x):
    return Answer(kind="number", number=float(x))


# ---------------------------------------------------------------------------
# match_answer
# ---------------------------------------------------------------------------


def test_match_within_one_percent():
    # |1.23e9 - 1.234e9| / 1.234e9 = 0.0032...
    rel = abs(1.23e9 - 1.234e9) / 1.234e9
    assert rel < 0.01
    assert match_answer(_num(1.23e9), _gold(1.234e9)) is True


def test_match_boundary_inclusive():
    assert match_answer(_num(101.0), _gold(100.0)) is True
    assert match_answer(_num(101.01), _gold(100.0)) is False
    assert match_answer(_num(99.0), _gold(100.0)) is True
    assert match_answer(_num(98.99), _gold(100.0)) is False


def test_match_gold_zero_rule():
    assert match_answer(_num(0.0), _gold(0.0)) is True
    assert match_answer(_num(5e-10), _gold(0.0)) is True
    assert match_answer(_num(1e-8), _gold(0.0)) is False


def test_match_yesno_case_insensitive():
    gold = Answer(kind="yesno", label="Yes")
    assert match_answer(Answer(kind="yesno", label="Yes"), gold) is True
    pred = Answer(kind="yesno", label="Yes", raw_text="yes")
    assert match_answer(pred, gold) is True
    assert match_answer(Answer(kind="yesno", label="No"), gold) is False


def test_match_kind_mismatch_is_false_not_error():
    assert match_answer(_num(1.0), Answer(kind="yesno", label="Yes")) is False
    assert match_answer(None, _gold(5.0)) is False


def test_match_multi_all_components():
    gold = Answer(kind="multi", parts=(("Revenue", 100.0), ("Margin", 40.0)))
    good = Answer(kind="multi", parts=(("revenue", 100.5), ("MARGIN", 39.8)))
    assert match_answer(good, gold) is True
    one_off = Answer(kind="multi", parts=(("revenue", 100.5), ("margin", 45.0)))
    assert match_answer(one_off, gold) is False
    missing_label = Answer(kind="multi", parts=(("revenue", 100.5), ("other", 40.0)))
    assert match_answer(missing_label, gold) is False
    assert multi_component_hits(one_off, gold) == (1, 2)
    assert multi_component_hits(None, gold) == (0, 2)


def test_match_scale_consistency_random_triples():
    rng = random.Random(55)
    for _ in range(1000):
        gold = rng.uniform(-1e6, 1e6)
        if gold == 0:
            continue
        pred = gold * (1 + rng.uniform(-0.02, 0.02))
        scale = 10 ** rng.uniform(-6, 9)
        before = match_answer(_num(pred), _gold(gold))
        after = match_answer(_num(pred * scale), _gold(gold * scale))
        assert before == after


@given(
    gold=st.floats(min_value=1e-3, max_value=1e12),
    rel=st.floats(min_value=0.0, max_value=0.02),
)
@settings(max_examples=200)
def test_match_relative_rule_property(gold, rel):
    pred = gold * (1 + rel)
    expected = abs(pred - gold) / abs(gold) <= 0.01
    assert match_answer(_num(pred), _gold(gold)) == expected


# ---------------------------------------------------------------------------
# prf_at_k
# ---------------------------------------------------------------------------


def test_prf_worked_example():
    p, r, f1 = prf_at_k(["A", "B", "C", "D"], {"A", "E"})
    assert p == 0.25
    assert r == 0.5
    assert f1 == pytest.approx(1 / 3)


def test_prf_perfect_and_disjoint():
    assert prf_at_k(["A", "B"], {"A", "B"}) == (1.0, 1.0, 1.0)
    assert prf_at_k(["A"], {"B"}) == (0.0, 0.0, 0.0)


def test_prf_empty_retrieved():
    assert prf_at_k([], {"A"}) == (0.0, 0.0, 0.0)


def test_prf_empty_gold_flags():
    with pytest.raises(EmptyGoldError):
        prf_at_k(["A"], set())


def test_prf_matches_brute_force_random_pairs():
    rng = random.Random(7)
    universe = [f"p{i}" for i in range(12)]
    for _ in range(1000):
        retrieved = rng.sample(universe, rng.randint(0, 8))
        gold = set(rng.sample(universe, rng.randint(1, 6)))
        p, r, f1 = prf_at_k(retrieved, gold)
        hit = len(set(retrieved) & gold)
        expect_p = hit / len(set(retrieved)) if retrieved else 0.0
        expect_r = hit / len(gold)
        expect_f1 = (
            0.0 if expect_p + expect_r == 0 else 2 * expect_p * expect_r / (expect_p + expect_r)
        )
        assert (p, r, f1) == (expect_p, expect_r, expect_f1)


# ---------------------------------------------------------------------------
# doc_level_sets
# ---------------------------------------------------------------------------


def _mini_questions_and_runs(clean_bundle):
    collection, table = clean_bundle
    doc_a = collection.documents[0]
    doc_b = next(d for d in collection.documents if d.stock_symbol != doc_a.stock_symbol)
    question = Question(
        question_id="q1",
        template_id="ve2",
        text="What is X?",
        slots={},
        complexity_tags=frozenset({"atomic"}),
        gold=Answer(kind="number", number=1.0),
        gold_docs=(doc_a.doc_id,),
        gold_pages=((doc_a.doc_id, doc_a.pages[0].page_number),),
        dataset_year=2023,
        bindings={},
    )
    return collection, doc_a, doc_b, question


def _run_with_pages(refs, system="vanilla_rag", k=4, predicted=None, chat_calls=1):
    return SystemRun(
        system_id=system,
        question_id="q1",
        k=k,
        predicted=predicted,
        retrieved_pages=list(refs),
        chat_calls=chat_calls,
        embed_calls=1,
    )


def _scored(run, question, collection):
    """The one cell of ``run``, scored by the fold."""
    (cell,) = aggregate_cells([run], [question], collection)
    assert cell.n_retrieval_scored == 1
    return cell


def test_doc_level_wrong_doc_zero(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    run = _run_with_pages([(doc_b.doc_id, p.page_number) for p in doc_b.pages[:4]])
    cell = _scored(run, question, collection)
    assert (cell.mean("doc_precision"), cell.mean("doc_recall")) == (0.0, 0.0)


def test_doc_level_signature_collapse(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    # All pages from the gold doc, none of them the exact gold page.
    refs = [(doc_a.doc_id, p.page_number) for p in doc_a.pages[1:4]]
    cell = _scored(_run_with_pages(refs), question, collection)
    assert cell.mean("doc_recall") == 1.0
    assert cell.mean("page_recall") == 0.0  # page missed, doc still hit


def test_doc_level_half_precision(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    refs = [
        (doc_a.doc_id, doc_a.pages[0].page_number),
        (doc_b.doc_id, doc_b.pages[0].page_number),
    ]
    cell = _scored(_run_with_pages(refs), question, collection)
    assert cell.mean("doc_precision") == 0.5 and cell.mean("doc_recall") == 1.0


def test_page_hit_implies_doc_hit(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    cell = _scored(_run_with_pages(list(question.gold_pages)), question, collection)
    assert cell.mean("page_recall") > 0
    assert cell.mean("doc_recall") > 0


def test_retrieved_page_missing_from_the_corpus_is_an_error(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    run = _run_with_pages([(doc_a.doc_id, 9999)])
    with pytest.raises(UnknownDocumentError, match=f"^doc '{doc_a.doc_id}' has no page 9999$"):
        aggregate_cells([run], [question], collection)


def test_multi_output_summary_sums_the_cells(clean_bundle):
    """Each cell counts its multi-output runs; the report sums the counts
    over cells, whether or not a run's question has gold pages."""
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    gold = Answer(kind="multi", parts=(("a", 1.0), ("b", 2.0), ("c", 3.0)))
    multi = Question(**{**vars(question), "question_id": "q2", "gold": gold, "gold_pages": ()})
    one_right = Answer(kind="multi", parts=(("a", 1.0), ("b", 5.0), ("c", 5.0)))
    runs = [
        _run_with_pages(list(question.gold_pages), predicted=_num(1.0)),
        _run_with_pages([], k=4, predicted=gold),
        _run_with_pages([], k=8, predicted=one_right),
        _run_with_pages([], k=8, predicted=None),
    ]
    for run in runs[1:]:
        run.question_id = "q2"
    cells = aggregate_cells(runs, [question, multi], collection)
    assert [(c.k, c.multi_runs, c.multi_correct, c.multi_parts_right, c.multi_parts) for c in cells] == [
        (4, 1, 1, 3, 3),
        (8, 2, 0, 1, 6),
    ]
    report = build_report(runs, [question, multi], collection)
    assert report["multi_output"] == {
        "all_components_accuracy": 1 / 3,
        "per_component_accuracy": 4 / 9,
    }
    assert "multi_output" not in build_report(runs[:1], [question], collection)


# ---------------------------------------------------------------------------
# r_squared
# ---------------------------------------------------------------------------


def _ols_oracle(xs, ys):
    """Closed-form least squares via numpy, independent of the implementation."""
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * np.asarray(xs) + intercept
    ss_res = float(np.sum((np.asarray(ys) - fitted) ** 2))
    ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    return 1 - ss_res / ss_tot


def test_r_squared_perfect_line():
    assert r_squared([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)


def test_r_squared_zero_covariance():
    # xs symmetric around the mean, ys arranged so covariance is exactly 0.
    assert r_squared([1, 2, 3], [5, 9, 5]) == pytest.approx(0.0)


def test_r_squared_four_points_vs_oracle():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [1.1, 1.9, 3.2, 3.8]
    assert r_squared(xs, ys) == pytest.approx(_ols_oracle(xs, ys), abs=1e-12)


def test_r_squared_random_sets_vs_oracle():
    rng = random.Random(21)
    for _ in range(50):
        xs = [rng.uniform(0, 10) for _ in range(10)]
        ys = [3.0 * x - 1.0 + rng.gauss(0, 2.0) for x in xs]
        assert r_squared(xs, ys) == pytest.approx(_ols_oracle(xs, ys), abs=1e-9)


def test_r_squared_affine_invariance_in_xs():
    rng = random.Random(3)
    xs = [rng.uniform(0, 5) for _ in range(8)]
    ys = [rng.uniform(0, 5) for _ in range(8)]
    base = r_squared(xs, ys)
    shifted = r_squared([4.2 * x - 17.0 for x in xs], ys)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_r_squared_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        r_squared([1, 2], [1, 2])
    with pytest.raises(DegenerateDataError):
        r_squared([1, 2, 3], [5, 5, 5])
    with pytest.raises(DegenerateDataError):
        r_squared([2, 2, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# Aggregation / bottleneck
# ---------------------------------------------------------------------------


def _affine_grid(clean_bundle, recalls, accuracy_of_recall, precisions=None):
    """Synthetic runs whose per-cell accuracy is an exact function of page
    recall, with precision decoupled via retrieval-set padding."""
    collection, _ = clean_bundle
    doc = collection.documents[0]
    other = collection.documents[2]
    gold_refs = [(doc.doc_id, p.page_number) for p in doc.pages[:4]]
    question = Question(
        question_id="q1",
        template_id="ve2",
        text="t",
        slots={},
        complexity_tags=frozenset(),
        gold=Answer(kind="number", number=1.0),
        gold_docs=(doc.doc_id,),
        gold_pages=tuple(gold_refs),
        dataset_year=2023,
    )
    runs = []
    n_per_cell = 20
    for cell_i, recall in enumerate(recalls):
        system = f"sys{cell_i}"
        hits = round(recall * len(gold_refs))
        pad = 0 if precisions is None else round(hits / precisions[cell_i]) - hits
        n_correct = round(accuracy_of_recall(recall) * n_per_cell)
        for run_i in range(n_per_cell):
            refs = gold_refs[:hits] + [
                (other.doc_id, p.page_number) for p in other.pages[:pad]
            ]
            correct = run_i < n_correct
            runs.append(
                SystemRun(
                    system_id=system,
                    question_id="q1",
                    k=4,
                    predicted=_num(1.0) if correct else _num(99.0),
                    retrieved_pages=refs,
                    chat_calls=1,
                    embed_calls=1,
                )
            )
    return runs, [question]


def test_bottleneck_affine_recall(clean_bundle):
    collection, _ = clean_bundle
    recalls = [0.25, 0.5, 0.75, 1.0]
    runs, questions = _affine_grid(clean_bundle, recalls, lambda r: 0.2 + 0.6 * r)
    report = cells_r_squared(aggregate_cells(runs, questions, collection))
    assert report["page_recall"] == pytest.approx(1.0, abs=1e-9)


def test_build_report_scores_each_run_once(clean_bundle, monkeypatch):
    """The report's R-squared table comes from its own cells, and equals
    ``cells_r_squared`` of the same runs' cells."""
    from mdqa import evaluation

    collection, _ = clean_bundle
    recalls = [0.25, 0.5, 0.75, 1.0]
    runs, questions = _affine_grid(
        clean_bundle, recalls, lambda r: 0.2 + 0.6 * r, precisions=[1.0, 0.5, 0.5, 0.25]
    )
    expected = cells_r_squared(aggregate_cells(runs, questions, collection))
    passes = []
    aggregate = evaluation.aggregate_cells
    monkeypatch.setattr(
        evaluation, "aggregate_cells", lambda *a: passes.append(1) or aggregate(*a)
    )
    report = evaluation.build_report(runs, questions, collection)
    assert passes == [1]
    assert report["bottleneck_r_squared"] == expected


def test_bottleneck_requires_three_cells(clean_bundle):
    collection, _ = clean_bundle
    runs, questions = _affine_grid(clean_bundle, [0.5, 1.0], lambda r: r)
    with pytest.raises(DegenerateDataError):
        cells_r_squared(aggregate_cells(runs, questions, collection))


def test_aggregate_counts_failures_as_incorrect(clean_bundle):
    collection, _ = clean_bundle
    doc = collection.documents[0]
    question = Question(
        question_id="q1",
        template_id="ve2",
        text="t",
        slots={},
        complexity_tags=frozenset(),
        gold=Answer(kind="number", number=1.0),
        gold_docs=(doc.doc_id,),
        gold_pages=((doc.doc_id, 1),),
        dataset_year=2023,
    )
    ok = _run_with_pages([(doc.doc_id, 1)], predicted=_num(1.0))
    failed = _run_with_pages([(doc.doc_id, 1)], predicted=None)
    failed.failure = "backend_error: boom"
    cells = aggregate_cells([ok, failed], [question], collection)
    assert cells[0].n_runs == 2
    assert cells[0].n_correct == 1
    assert cells[0].n_failures == 1
    assert cells[0].accuracy == 0.5


# ---------------------------------------------------------------------------
# Stability and cost
# ---------------------------------------------------------------------------


def _variant(accuracy, n=10):
    """One variant's cells: ``n`` runs, ``round(accuracy * n)`` correct."""
    return [CellStats(system_id="vanilla_rag", k=4, n_runs=n, n_correct=round(accuracy * n))]


def test_stability_identical_accuracies():
    report = stability_report({"a": _variant(0.8), "b": _variant(0.8), "c": _variant(0.8)})
    assert report["stddev"] == pytest.approx(0.0, abs=1e-12)
    assert report["mean"] == pytest.approx(0.8)
    # With accuracies exactly representable (here 1.0) the spread is exactly 0.
    exact = stability_report({"a": _variant(1.0), "b": _variant(1.0)})
    assert exact["stddev"] == 0.0


def test_stability_two_point_population_sigma():
    report = stability_report({"v1": _variant(0.80, n=100), "v2": _variant(0.82, n=100)})
    assert report["mean"] == pytest.approx(0.81)
    assert report["stddev"] == pytest.approx(0.01)


def test_stability_pools_a_variants_cells():
    """A variant's accuracy is its correct runs over its runs, not the mean
    of its cells' accuracies."""
    pooled = [
        CellStats(system_id="vanilla_rag", k=4, n_runs=1, n_correct=1),
        CellStats(system_id="vanilla_rag", k=8, n_runs=3, n_correct=0),
    ]
    report = stability_report({"a": pooled, "b": _variant(0.25, n=4)})
    assert report["per_variant"] == {"a": 0.25, "b": 0.25}


def test_stability_rejects_empty_variant():
    with pytest.raises(EvaluationError, match="variant 'b' has no runs"):
        stability_report({"a": _variant(0.8), "b": []})
    with pytest.raises(EvaluationError, match="at least 2 variants"):
        stability_report({"only": _variant(0.5)})


def test_cost_report_means_and_ratios():
    runs = [
        _run_with_pages([("d", 1)], system="vanilla_rag", chat_calls=1),
        _run_with_pages([("d", 1)], system="vanilla_rag", chat_calls=1),
        _run_with_pages([("d", 1)], system="codegen_docs_pager", chat_calls=7),
        _run_with_pages([("d", 1)], system="codegen_docs_pager", chat_calls=7),
    ]
    report = cost_report((r.system_id, r.chat_calls, 1) for r in runs)
    assert report["mean_chat_calls"]["vanilla_rag"] == 1.0
    assert report["mean_chat_calls"]["codegen_docs_pager"] == 7.0
    assert report["ratio_vs_vanilla"]["codegen_docs_pager"] == 7.0


def test_cost_report_mean_equals_total_over_count():
    runs = [
        _run_with_pages([("d", 1)], system="vanilla_rag", chat_calls=c) for c in (1, 2, 3)
    ]
    report = cost_report((r.system_id, r.chat_calls, 1) for r in runs)
    assert report["mean_chat_calls"]["vanilla_rag"] == pytest.approx(6 / 3)


@settings(max_examples=50)
@given(
    runs=st.lists(
        st.tuples(
            st.sampled_from(["vanilla_rag", "multi_query_rag", "codegen_pager"]),
            st.sampled_from([4, 8, 16]),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_report_cost_from_cells_is_the_cost_of_its_runs(clean_bundle, runs):
    """``build_report`` costs a session from its cells' totals; that is the
    same report, to the bit, as costing each run on its own."""
    collection, doc, _, question = _mini_questions_and_runs(clean_bundle)
    session = [
        _run_with_pages([(doc.doc_id, 1)], system=system, k=k, chat_calls=calls)
        for system, k, calls in runs
    ]
    report = build_report(session, [question], collection)
    assert report["cost"] == cost_report((r.system_id, r.chat_calls, 1) for r in session)


def test_build_report_best_k_and_multi_sections(clean_bundle):
    from mdqa.evaluation import build_report

    collection, _ = clean_bundle
    doc = collection.documents[0]
    number_q = Question(
        question_id="qn",
        template_id="ve2",
        text="t",
        slots={},
        complexity_tags=frozenset(),
        gold=Answer(kind="number", number=1.0),
        gold_docs=(doc.doc_id,),
        gold_pages=((doc.doc_id, 1),),
        dataset_year=2023,
    )
    multi_q = Question(
        question_id="qm",
        template_id="mo1",
        text="t",
        slots={},
        complexity_tags=frozenset({"multi_output"}),
        gold=Answer(kind="multi", parts=(("A", 1.0), ("B", 2.0))),
        gold_docs=(doc.doc_id,),
        gold_pages=((doc.doc_id, 1),),
        dataset_year=2023,
    )
    runs = []
    for k, correct in ((4, False), (8, True)):
        run = _run_with_pages([(doc.doc_id, 1)], system="sys_a", k=k,
                              predicted=_num(1.0 if correct else 9.0))
        run.question_id = "qn"
        runs.append(run)
    half_multi = _run_with_pages(
        [(doc.doc_id, 1)], system="sys_a", k=4,
        predicted=Answer(kind="multi", parts=(("A", 1.0), ("B", 99.0))),
    )
    half_multi.question_id = "qm"
    runs.append(half_multi)
    report = build_report(runs, [number_q, multi_q], collection)
    assert report["best_k"]["sys_a"] == {"k": 8, "accuracy": 1.0}
    assert report["multi_output"]["all_components_accuracy"] == 0.0
    assert report["multi_output"]["per_component_accuracy"] == 0.5
