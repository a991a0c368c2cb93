from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqa.evaluation import (
    DegenerateDataError,
    EmptyGoldError,
    EvaluationError,
    aggregate_cells,
    bottleneck_report,
    cost_report,
    doc_level_sets,
    match_answer,
    multi_component_hits,
    prf_at_k,
    r_squared,
    stability_report,
)
from mdqa.qasystems import ParsedAnswer, SystemRun
from mdqa.questiongen import GoldAnswer, Question


def _num(x):
    return ParsedAnswer(kind="number", number=float(x))


def _gold(x):
    return GoldAnswer(kind="number", number=float(x))


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
    gold = GoldAnswer(kind="yesno", label="Yes")
    assert match_answer(ParsedAnswer(kind="yesno", label="Yes"), gold) is True
    pred = ParsedAnswer(kind="yesno", label="Yes", raw_text="yes")
    assert match_answer(pred, gold) is True
    assert match_answer(ParsedAnswer(kind="yesno", label="No"), gold) is False


def test_match_kind_mismatch_is_false_not_error():
    assert match_answer(_num(1.0), GoldAnswer(kind="yesno", label="Yes")) is False
    assert match_answer(None, _gold(5.0)) is False


def test_match_multi_all_components():
    gold = GoldAnswer(kind="multi", parts=(("Revenue", 100.0), ("Margin", 40.0)))
    good = ParsedAnswer(kind="multi", parts=(("revenue", 100.5), ("MARGIN", 39.8)))
    assert match_answer(good, gold) is True
    one_off = ParsedAnswer(kind="multi", parts=(("revenue", 100.5), ("margin", 45.0)))
    assert match_answer(one_off, gold) is False
    missing_label = ParsedAnswer(kind="multi", parts=(("revenue", 100.5), ("other", 40.0)))
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
        gold=GoldAnswer(kind="number", number=1.0),
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
        retrieved_docs=[],
        chat_calls=chat_calls,
        embed_calls=1,
    )


def test_doc_level_wrong_doc_zero(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    run = _run_with_pages([(doc_b.doc_id, p.page_number) for p in doc_b.pages[:4]])
    retrieved, gold = doc_level_sets(run, question, collection)
    p, r, f1 = prf_at_k(retrieved, gold)
    assert (p, r) == (0.0, 0.0)


def test_doc_level_signature_collapse(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    # All pages from the gold doc, none of them the exact gold page.
    refs = [(doc_a.doc_id, p.page_number) for p in doc_a.pages[1:4]]
    run = _run_with_pages(refs)
    retrieved, gold = doc_level_sets(run, question, collection)
    p, r, f1 = prf_at_k(retrieved, gold)
    assert r == 1.0
    page_p, page_r, _ = prf_at_k(run.retrieved_pages, set(question.gold_pages))
    assert page_r == 0.0  # page missed, doc still hit


def test_doc_level_half_precision(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    refs = [
        (doc_a.doc_id, doc_a.pages[0].page_number),
        (doc_b.doc_id, doc_b.pages[0].page_number),
    ]
    run = _run_with_pages(refs)
    retrieved, gold = doc_level_sets(run, question, collection)
    p, r, _ = prf_at_k(retrieved, gold)
    assert p == 0.5 and r == 1.0


def test_page_hit_implies_doc_hit(clean_bundle):
    collection, doc_a, doc_b, question = _mini_questions_and_runs(clean_bundle)
    run = _run_with_pages(list(question.gold_pages))
    page_p, page_r, _ = prf_at_k(run.retrieved_pages, set(question.gold_pages))
    retrieved, gold = doc_level_sets(run, question, collection)
    _, doc_r, _ = prf_at_k(retrieved, gold)
    assert page_r > 0
    assert doc_r > 0


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
        gold=GoldAnswer(kind="number", number=1.0),
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
                    retrieved_docs=[],
                    chat_calls=1,
                    embed_calls=1,
                )
            )
    return runs, [question]


def test_bottleneck_affine_recall(clean_bundle):
    collection, _ = clean_bundle
    recalls = [0.25, 0.5, 0.75, 1.0]
    runs, questions = _affine_grid(clean_bundle, recalls, lambda r: 0.2 + 0.6 * r)
    report = bottleneck_report(runs, questions, collection)
    assert report["page_recall"] == pytest.approx(1.0, abs=1e-9)


def test_build_report_scores_each_run_once(clean_bundle, monkeypatch):
    """The report's R-squared table comes from its own cells, and equals
    ``bottleneck_report`` of the same runs."""
    from mdqa import evaluation

    collection, _ = clean_bundle
    recalls = [0.25, 0.5, 0.75, 1.0]
    runs, questions = _affine_grid(
        clean_bundle, recalls, lambda r: 0.2 + 0.6 * r, precisions=[1.0, 0.5, 0.5, 0.25]
    )
    expected = bottleneck_report(runs, questions, collection)
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
        bottleneck_report(runs, questions, collection)


def test_aggregate_counts_failures_as_incorrect(clean_bundle):
    collection, _ = clean_bundle
    doc = collection.documents[0]
    question = Question(
        question_id="q1",
        template_id="ve2",
        text="t",
        slots={},
        complexity_tags=frozenset(),
        gold=GoldAnswer(kind="number", number=1.0),
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
    question = Question(
        question_id="q1",
        template_id="ve2",
        text="t",
        slots={},
        complexity_tags=frozenset(),
        gold=GoldAnswer(kind="number", number=1.0),
        gold_docs=("d",),
        gold_pages=(("d", 1),),
        dataset_year=2023,
    )
    runs = []
    for i in range(n):
        predicted = _num(1.0) if i < round(accuracy * n) else _num(2.0)
        runs.append(_run_with_pages([("d", 1)], predicted=predicted))
    return runs, [question]


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


def test_stability_rejects_empty_variant():
    with pytest.raises(EvaluationError):
        stability_report({"a": _variant(0.8), "b": ([], [])})
    with pytest.raises(EvaluationError):
        stability_report({"only": _variant(0.5)})


def test_cost_report_means_and_ratios():
    runs = [
        _run_with_pages([("d", 1)], system="vanilla_rag", chat_calls=1),
        _run_with_pages([("d", 1)], system="vanilla_rag", chat_calls=1),
        _run_with_pages([("d", 1)], system="codegen_docs_pager", chat_calls=7),
        _run_with_pages([("d", 1)], system="codegen_docs_pager", chat_calls=7),
    ]
    report = cost_report(runs)
    assert report["mean_chat_calls"]["vanilla_rag"] == 1.0
    assert report["mean_chat_calls"]["codegen_docs_pager"] == 7.0
    assert report["ratio_vs_vanilla"]["codegen_docs_pager"] == 7.0


def test_cost_report_mean_equals_total_over_count():
    runs = [
        _run_with_pages([("d", 1)], system="vanilla_rag", chat_calls=c) for c in (1, 2, 3)
    ]
    report = cost_report(runs)
    assert report["mean_chat_calls"]["vanilla_rag"] == pytest.approx(6 / 3)


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
        gold=GoldAnswer(kind="number", number=1.0),
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
        gold=GoldAnswer(kind="multi", parts=(("A", 1.0), ("B", 2.0))),
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
        predicted=ParsedAnswer(kind="multi", parts=(("A", 1.0), ("B", 99.0))),
    )
    half_multi.question_id = "qm"
    runs.append(half_multi)
    report = build_report(runs, [number_q, multi_q], collection)
    assert report["best_k"]["sys_a"] == {"k": 8, "accuracy": 1.0}
    assert report["multi_output"]["all_components_accuracy"] == 0.0
    assert report["multi_output"]["per_component_accuracy"] == 0.5
