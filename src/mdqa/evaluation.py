"""Scoring: answer matching, retrieval P/R/F1, regression analysis, stability,
and cost. All reports are pure folds over persisted runs and questions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .corpus import DocumentCollection
from .files import atomic_open, write_json
from .qasystems import ParsedAnswer, SystemRun
from .questiongen import GoldAnswer, Question

RELATIVE_TOLERANCE = 0.01  # inclusive
GOLD_ZERO_ABSOLUTE = 1e-9


class EvaluationError(Exception):
    pass


class EmptyGoldError(EvaluationError):
    """A question with no gold retrieval set cannot be scored for retrieval."""


class DegenerateDataError(EvaluationError):
    """Too few or constant data points; the regression is undefined."""


# ---------------------------------------------------------------------------
# Answer matching
# ---------------------------------------------------------------------------


def _numbers_match(pred: float, gold: float) -> bool:
    if gold == 0:
        return abs(pred) <= GOLD_ZERO_ABSOLUTE
    return abs(pred - gold) / abs(gold) <= RELATIVE_TOLERANCE


def match_answer(predicted: Optional[ParsedAnswer], gold: GoldAnswer) -> bool:
    """Inclusive 1% relative tolerance on numbers; case-insensitive Yes/No;
    multi answers need every labeled component to match. Kind mismatches are
    false, never an exception."""
    if predicted is None:
        return False
    if predicted.kind != gold.kind:
        return False
    if gold.kind == "number":
        return _numbers_match(predicted.number, gold.number)
    if gold.kind == "yesno":
        return predicted.label.lower() == gold.label.lower()
    wanted = {label.lower(): value for label, value in gold.parts}
    got = {label.lower(): value for label, value in predicted.parts}
    if set(wanted) != set(got):
        return False
    return all(_numbers_match(got[label], wanted[label]) for label in wanted)


def multi_component_hits(predicted: Optional[ParsedAnswer], gold: GoldAnswer) -> tuple[int, int]:
    """(matched components, total components) for a multi-output gold."""
    total = len(gold.parts)
    if predicted is None or predicted.kind != "multi":
        return 0, total
    got = {label.lower(): value for label, value in predicted.parts}
    hits = sum(
        1
        for label, value in gold.parts
        if label.lower() in got and _numbers_match(got[label.lower()], value)
    )
    return hits, total


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------


def prf_at_k(retrieved: Sequence, gold: set) -> tuple[float, float, float]:
    """Precision, recall, F1 of a retrieved set against a gold set.

    Precision divides by what was actually retrieved (an under-filled
    retrieval is not penalized for pages that do not exist). F1 is 0 when
    P + R is 0.
    """
    if not gold:
        raise EmptyGoldError("gold set is empty")
    retrieved_set = set(retrieved)
    hit = len(retrieved_set & gold)
    precision = hit / len(retrieved_set) if retrieved_set else 0.0
    recall = hit / len(gold)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def doc_level_sets(
    run: SystemRun, question: Question, collection: DocumentCollection
) -> tuple[set, set]:
    """Map retrieved pages and gold docs through document signatures."""
    retrieved = set(map(collection.page_signature, run.retrieved_pages))
    gold = set(map(collection.signature_of, question.gold_docs))
    return retrieved, gold


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------


def r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Coefficient of determination of the simple OLS regression of ys on xs."""
    if len(xs) != len(ys):
        raise EvaluationError("xs and ys must have the same length")
    n = len(xs)
    if n < 3:
        raise DegenerateDataError(f"need at least 3 points, got {n}")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    if syy == 0:
        raise DegenerateDataError("ys are all equal")
    if sxx == 0:
        raise DegenerateDataError("xs are all equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    ss_res = syy - sxy * sxy / sxx
    return 1.0 - ss_res / syy


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

_RETRIEVAL_METRICS = (
    "page_precision",
    "page_recall",
    "page_f1",
    "doc_precision",
    "doc_recall",
    "doc_f1",
)


@dataclass
class CellStats:
    """Aggregates for one (system, k) grid cell."""

    system_id: str
    k: int
    n_runs: int = 0
    n_correct: int = 0
    n_failures: int = 0
    n_retrieval_scored: int = 0
    n_excluded_empty_gold: int = 0
    sums: dict = field(default_factory=lambda: {m: 0.0 for m in _RETRIEVAL_METRICS})
    chat_calls: int = 0
    embed_calls: int = 0

    @property
    def accuracy(self) -> float:
        if self.n_runs == 0:
            raise EvaluationError("cell has no runs")
        return self.n_correct / self.n_runs

    def mean(self, metric: str) -> float:
        if self.n_retrieval_scored == 0:
            return 0.0
        return self.sums[metric] / self.n_retrieval_scored

    def to_json_dict(self) -> dict:
        out = {
            "system_id": self.system_id,
            "k": self.k,
            "n_runs": self.n_runs,
            "n_correct": self.n_correct,
            "n_failures": self.n_failures,
            "n_excluded_empty_gold": self.n_excluded_empty_gold,
            "accuracy": self.accuracy,
            "mean_chat_calls": self.chat_calls / self.n_runs,
            "mean_embed_calls": self.embed_calls / self.n_runs,
        }
        for metric in _RETRIEVAL_METRICS:
            out[metric] = self.mean(metric)
        return out


def aggregate_cells(
    runs: Iterable[SystemRun],
    questions: Iterable[Question],
    collection: DocumentCollection,
) -> list[CellStats]:
    by_id = {q.question_id: q for q in questions}
    cells: dict[tuple[str, int], CellStats] = {}
    for run in runs:
        question = by_id.get(run.question_id)
        if question is None:
            raise EvaluationError(f"run references unknown question {run.question_id!r}")
        cell = cells.setdefault(
            (run.system_id, run.k), CellStats(system_id=run.system_id, k=run.k)
        )
        cell.n_runs += 1
        cell.chat_calls += run.chat_calls
        cell.embed_calls += run.embed_calls
        if run.failure:
            cell.n_failures += 1
        if run.failure is None and match_answer(run.predicted, question.gold):
            cell.n_correct += 1
        gold_pages = set(question.gold_pages)
        if not gold_pages:
            cell.n_excluded_empty_gold += 1
            continue
        page_p, page_r, page_f1 = prf_at_k(run.retrieved_pages, gold_pages)
        retrieved_docs, gold_docs = doc_level_sets(run, question, collection)
        doc_p, doc_r, doc_f1 = prf_at_k(retrieved_docs, gold_docs)
        cell.n_retrieval_scored += 1
        for metric, value in zip(
            _RETRIEVAL_METRICS, (page_p, page_r, page_f1, doc_p, doc_r, doc_f1)
        ):
            cell.sums[metric] += value
    return sorted(cells.values(), key=lambda c: (c.system_id, c.k))


def bottleneck_report(
    runs: Iterable[SystemRun],
    questions: Iterable[Question],
    collection: DocumentCollection,
) -> dict[str, float]:
    """R-squared between per-cell accuracy and each mean retrieval metric."""
    return cells_r_squared(aggregate_cells(runs, questions, collection))


def cells_r_squared(cells: Sequence[CellStats]) -> dict[str, float]:
    """``bottleneck_report`` of cells already aggregated."""
    if len(cells) < 3:
        raise DegenerateDataError(
            f"bottleneck analysis needs at least 3 (system, k) cells, got {len(cells)}"
        )
    accuracies = [c.accuracy for c in cells]
    out = {}
    for metric in _RETRIEVAL_METRICS:
        xs = [c.mean(metric) for c in cells]
        try:
            out[metric] = r_squared(xs, accuracies)
        except DegenerateDataError:
            out[metric] = None
    return out


def accuracy_of(
    runs: Iterable[SystemRun], questions: Iterable[Question]
) -> float:
    by_id = {q.question_id: q for q in questions}
    runs = list(runs)
    if not runs:
        raise EvaluationError("no runs to score")
    correct = sum(
        1
        for run in runs
        if run.failure is None and match_answer(run.predicted, by_id[run.question_id].gold)
    )
    return correct / len(runs)


def stability_report(
    variant_runs: dict[str, tuple[list[SystemRun], list[Question]]]
) -> dict:
    """Accuracy per benchmark variant, with mean and population stddev."""
    if len(variant_runs) < 2:
        raise EvaluationError("stability needs at least 2 variants")
    per_variant = {}
    for variant, (runs, questions) in sorted(variant_runs.items()):
        if not runs:
            raise EvaluationError(f"variant {variant!r} has no runs")
        per_variant[variant] = accuracy_of(runs, questions)
    values = list(per_variant.values())
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return {
        "per_variant": per_variant,
        "mean": mean,
        "stddev": math.sqrt(variance),
    }


def cost_report(runs: Iterable[SystemRun]) -> dict:
    """Mean chat calls per system, with ratios against vanilla."""
    by_system: dict[str, list[int]] = {}
    for run in runs:
        by_system.setdefault(run.system_id, []).append(run.chat_calls)
    if not by_system:
        raise EvaluationError("no runs to cost")
    means = {sys: sum(calls) / len(calls) for sys, calls in sorted(by_system.items())}
    out = {"mean_chat_calls": means}
    baseline = means.get("vanilla_rag")
    if baseline:
        out["ratio_vs_vanilla"] = {sys: mean / baseline for sys, mean in means.items()}
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def build_report(
    runs: list[SystemRun],
    questions: list[Question],
    collection: DocumentCollection,
    ledger_snapshot: Optional[dict] = None,
    stability: Optional[dict] = None,
) -> dict:
    cells = aggregate_cells(runs, questions, collection)
    report: dict = {
        "cells": [c.to_json_dict() for c in cells],
        "n_runs": len(runs),
        "n_questions": len(questions),
        "cost": cost_report(runs),
    }
    # Per-system best k: the full grid stays in "cells", this is the summary.
    best_k: dict[str, dict] = {}
    for cell in cells:
        current = best_k.get(cell.system_id)
        if (
            current is None
            or cell.accuracy > current["accuracy"]
            or (cell.accuracy == current["accuracy"] and cell.k < current["k"])
        ):
            best_k[cell.system_id] = {"k": cell.k, "accuracy": cell.accuracy}
    report["best_k"] = best_k
    if len(cells) >= 3:
        report["bottleneck_r_squared"] = cells_r_squared(cells)
    by_id = {q.question_id: q for q in questions}
    multi_hits = 0
    multi_total = 0
    multi_all = 0
    multi_n = 0
    for run in runs:
        gold = by_id[run.question_id].gold
        if gold.kind != "multi":
            continue
        multi_n += 1
        hits, total = multi_component_hits(run.predicted, gold)
        multi_hits += hits
        multi_total += total
        if run.failure is None and match_answer(run.predicted, gold):
            multi_all += 1
    if multi_n:
        report["multi_output"] = {
            "all_components_accuracy": multi_all / multi_n,
            "per_component_accuracy": multi_hits / multi_total,
        }
    if ledger_snapshot:
        report["ledger"] = ledger_snapshot
    if stability:
        report["stability"] = stability
    return report


def write_report(report: dict, out_dir: str | Path) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = write_json(out_dir / "report.json", report)
    csv_path = out_dir / "report.csv"
    with atomic_open(csv_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system_id", "k", "metric", "value"])
        for cell in report["cells"]:
            for metric in (
                "accuracy",
                "mean_chat_calls",
                *_RETRIEVAL_METRICS,
            ):
                writer.writerow([cell["system_id"], cell["k"], metric, cell[metric]])
    return json_path, csv_path
