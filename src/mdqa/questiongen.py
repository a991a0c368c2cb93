"""Template-based question generation with gold answers and provenance.

Questions are filled from the fact table with seeded randomness. Every
emitted question has a computable gold answer, and the document/page
provenance of every fact the gold rule consumed. Single-value questions must
additionally survive a string-match check against their source document;
compound-metric questions must fail it (a compound value printed verbatim in
a filing defeats the point of asking for it).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .corpus import (
    DocumentCollection,
    FactRecord,
    FactTable,
    eval_formula,
    formula_refs,
    parse_formula,
    value_findable_in_doc,
)


class QuestionGenError(Exception):
    """Question generation failed (bad template, slots, or config)."""


class MissingFactError(QuestionGenError):
    """A fact required by a gold rule is absent from the table."""


class InfeasibleConfigError(QuestionGenError):
    """No slot assignment yields a computable gold within the attempt budget."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuestionTemplate:
    template_id: str
    pattern: str
    complexity_tags: frozenset[str]
    gold_rule: str
    slot_names: tuple[str, ...]
    # "highest" or "lowest" for extreme-lookup variants, else None
    extreme: Optional[str] = None


@dataclass(frozen=True)
class GoldAnswer:
    """Gold answer: a number, Yes/No, or labeled (label, value) components."""

    kind: str  # "number" | "yesno" | "multi"
    number: Optional[float] = None
    label: Optional[str] = None
    parts: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "number" and self.number is None:
            raise QuestionGenError("number gold requires a value")
        if self.kind == "yesno" and self.label not in ("Yes", "No"):
            raise QuestionGenError("yesno gold must be 'Yes' or 'No'")
        if self.kind == "multi" and len(self.parts) < 2:
            raise QuestionGenError("multi gold requires at least 2 labeled values")

    def to_json_dict(self) -> dict:
        if self.kind == "number":
            return {"kind": "number", "value": self.number}
        if self.kind == "yesno":
            return {"kind": "yesno", "value": self.label}
        return {"kind": "multi", "value": [[label, v] for label, v in self.parts]}

    @staticmethod
    def from_json_dict(raw: dict) -> "GoldAnswer":
        kind = raw["kind"]
        if kind == "number":
            return GoldAnswer(kind="number", number=float(raw["value"]))
        if kind == "yesno":
            return GoldAnswer(kind="yesno", label=raw["value"])
        return GoldAnswer(
            kind="multi", parts=tuple((str(l), float(v)) for l, v in raw["value"])
        )


@dataclass(frozen=True)
class Question:
    question_id: str
    template_id: str
    text: str
    slots: dict
    complexity_tags: frozenset[str]
    gold: GoldAnswer
    gold_docs: tuple[str, ...]
    gold_pages: tuple[tuple[str, int], ...]
    dataset_year: int
    # Machine-resolved slot bindings (symbols, metric ids, tie-break notes).
    bindings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "template_id": self.template_id,
            "text": self.text,
            "slots": self.slots,
            "complexity_tags": sorted(self.complexity_tags),
            "gold": self.gold.to_json_dict(),
            "gold_docs": list(self.gold_docs),
            "gold_pages": [[d, p] for d, p in self.gold_pages],
            "dataset_year": self.dataset_year,
            "bindings": self.bindings,
        }

    @staticmethod
    def from_json_dict(raw: dict) -> "Question":
        return Question(
            question_id=raw["question_id"],
            template_id=raw["template_id"],
            text=raw["text"],
            slots=raw["slots"],
            complexity_tags=frozenset(raw["complexity_tags"]),
            gold=GoldAnswer.from_json_dict(raw["gold"]),
            gold_docs=tuple(raw["gold_docs"]),
            gold_pages=tuple((d, int(p)) for d, p in raw["gold_pages"]),
            dataset_year=int(raw["dataset_year"]),
            bindings=raw.get("bindings", {}),
        )


TEMPLATES: dict[str, QuestionTemplate] = {
    t.template_id: t
    for t in [
        QuestionTemplate(
            "ve1",
            "What is {company}'s {metric}?",
            frozenset({"atomic"}),
            "single_value",
            ("company", "metric"),
        ),
        QuestionTemplate(
            "ve2",
            "What is {company}'s {metric} in {year}?",
            frozenset({"atomic"}),
            "single_value",
            ("company", "metric", "year"),
        ),
        QuestionTemplate(
            "cve1",
            "What is {company}'s {metric}?",
            frozenset({"atomic", "compound_metric"}),
            "compound_value",
            ("company", "metric"),
        ),
        QuestionTemplate(
            "cve2",
            "What is {company}'s {metric} in {year}?",
            frozenset({"atomic", "compound_metric"}),
            "compound_value",
            ("company", "metric", "year"),
        ),
        QuestionTemplate(
            "md1",
            "How much {metric} did {company} pay in the last {num_year} years in US dollars?",
            frozenset({"parallel"}),
            "sum_over_years",
            ("company", "metric", "num_year"),
        ),
        QuestionTemplate(
            "md2",
            "What is the percentage difference of {company1}'s {metric} compared to that of {company2}?",
            frozenset({"parallel"}),
            "pct_difference",
            ("company1", "company2", "metric"),
        ),
        QuestionTemplate(
            "md3",
            "What is {company}'s overall {metric} growth over the last {num_year}-year period?",
            frozenset({"parallel"}),
            "overall_growth",
            ("company", "metric", "num_year"),
        ),
        QuestionTemplate(
            "md4",
            "Among {company_names}, what is the {metric2} of the company that has the highest {metric1}?",
            frozenset({"parallel", "multi_hop"}),
            "extreme_lookup",
            ("company_names", "metric1", "metric2"),
            extreme="highest",
        ),
        QuestionTemplate(
            "md4_lowest",
            "Among {company_names}, what is the {metric2} of the company that has the lowest {metric1}?",
            frozenset({"parallel", "multi_hop"}),
            "extreme_lookup",
            ("company_names", "metric1", "metric2"),
            extreme="lowest",
        ),
        QuestionTemplate(
            "yn1",
            "Did {company} pay {metric} in {year}?",
            frozenset({"atomic"}),
            "yes_if_positive",
            ("company", "metric", "year"),
        ),
        QuestionTemplate(
            "mo1",
            "What are {company}'s {metric1} and {metric2} in {year}?",
            frozenset({"multi_output"}),
            "multi_value",
            ("company", "metric1", "metric2", "year"),
        ),
    ]
}


# ---------------------------------------------------------------------------
# Gold computation
# ---------------------------------------------------------------------------

# A lookup takes (stock_symbol, metric_id, fiscal_year) and returns the
# normalized value, raising MissingFactError when absent. Gold rules are
# written against lookups so the same arithmetic can be replayed over
# substituted values (the oracle backend does this to model extraction from
# wrong-year pages).

Lookup = Callable[[str, str, int], float]


def compound_lookup(fact_table: FactTable, leaf: Lookup) -> Lookup:
    """Lookup that expands compound metrics through their formulas and asks
    ``leaf`` for every reported metric. A cyclic definition raises
    QuestionGenError; a zero divisor raises MissingFactError."""

    def lookup(symbol: str, metric_id: str, year: int, _stack: tuple = ()) -> float:
        metric = fact_table.metric(metric_id)
        if metric.kind != "compound":
            return leaf(symbol, metric_id, year)
        if metric_id in _stack:
            raise QuestionGenError(f"cyclic compound metric {metric_id!r}")
        node = parse_formula(metric.formula)
        values = {
            ref: lookup(symbol, ref, year, _stack + (metric_id,))
            for ref in sorted(formula_refs(node))
        }
        try:
            return eval_formula(node, values)
        except ZeroDivisionError:
            raise MissingFactError(
                f"division by zero evaluating {metric_id!r} for {symbol} {year}"
            ) from None

    return lookup


def table_lookup(fact_table: FactTable, record_sink: Optional[list[FactRecord]] = None) -> Lookup:
    """Lookup over the fact table, expanding compound metrics recursively."""

    def leaf(symbol: str, metric_id: str, year: int) -> float:
        rec = fact_table.get(symbol, year, metric_id)
        if rec is None:
            raise MissingFactError(f"no fact for ({symbol}, {year}, {metric_id})")
        if record_sink is not None:
            record_sink.append(rec)
        return rec.normalized

    return compound_lookup(fact_table, leaf)


def evaluate_rule(
    rule: str,
    binding: dict,
    lookup: Lookup,
    dataset_year: int,
    metric_display: Callable[[str], str],
) -> GoldAnswer:
    """Apply a gold-computation rule over values supplied by ``lookup``.

    ``binding`` carries resolved slot values: symbols, metric ids, years.
    """
    if rule in ("single_value", "compound_value"):
        year = binding.get("year", dataset_year)
        value = lookup(binding["symbol"], binding["metric"], year)
        return GoldAnswer(kind="number", number=value)

    if rule == "sum_over_years":
        num_year = binding["num_year"]
        years = range(dataset_year - num_year + 1, dataset_year + 1)
        total = 0.0
        for year in years:
            total += lookup(binding["symbol"], binding["metric"], year)
        return GoldAnswer(kind="number", number=total)

    if rule == "pct_difference":
        year = binding.get("year", dataset_year)
        v1 = lookup(binding["symbol1"], binding["metric"], year)
        v2 = lookup(binding["symbol2"], binding["metric"], year)
        if v2 == 0:
            raise MissingFactError("pct_difference base value is zero")
        return GoldAnswer(kind="number", number=(v1 - v2) / v2 * 100.0)

    if rule == "overall_growth":
        base_year = dataset_year - binding["num_year"]
        v_base = lookup(binding["symbol"], binding["metric"], base_year)
        v_current = lookup(binding["symbol"], binding["metric"], dataset_year)
        if v_base == 0:
            raise MissingFactError("overall_growth base value is zero")
        return GoldAnswer(kind="number", number=(v_current - v_base) / v_base * 100.0)

    if rule == "extreme_lookup":
        year = binding.get("year", dataset_year)
        values = {
            symbol: lookup(symbol, binding["metric1"], year)
            for symbol in binding["symbols"]
        }
        lowest = binding.get("extreme") == "lowest"
        best = (min if lowest else max)(values.values())
        # Ties break to the lexicographically smallest stock symbol.
        winner = min(sym for sym, v in values.items() if v == best)
        answer = lookup(winner, binding["metric2"], year)
        binding["winner_symbol"] = winner
        binding["tie"] = sum(1 for v in values.values() if v == best) > 1
        return GoldAnswer(kind="number", number=answer)

    if rule == "yes_if_positive":
        year = binding.get("year", dataset_year)
        value = lookup(binding["symbol"], binding["metric"], year)
        return GoldAnswer(kind="yesno", label="Yes" if value > 0 else "No")

    if rule == "multi_value":
        year = binding.get("year", dataset_year)
        parts = []
        for key in ("metric1", "metric2"):
            metric_id = binding[key]
            parts.append(
                (metric_display(metric_id), lookup(binding["symbol"], metric_id, year))
            )
        return GoldAnswer(kind="multi", parts=tuple(parts))

    raise QuestionGenError(f"unknown gold rule {rule!r}")


def compute_gold(
    rule: str, binding: dict, fact_table: FactTable, dataset_year: int
) -> GoldAnswer:
    """Compute the gold answer for a rule over the fact table."""
    gold, _ = compute_gold_with_provenance(rule, binding, fact_table, dataset_year)
    return gold


def compute_gold_with_provenance(
    rule: str, binding: dict, fact_table: FactTable, dataset_year: int
) -> tuple[GoldAnswer, list[FactRecord]]:
    consumed: list[FactRecord] = []
    lookup = table_lookup(fact_table, record_sink=consumed)
    gold = evaluate_rule(
        rule, binding, lookup, dataset_year,
        metric_display=lambda mid: fact_table.metric(mid).display_name,
    )
    return gold, consumed


# ---------------------------------------------------------------------------
# Surface rendering
# ---------------------------------------------------------------------------


def render_company_list(names: list[str]) -> str:
    if len(names) == 1:
        return names[0]
    if len(names) == 2:
        return f"{names[0]} and {names[1]}"
    return ", ".join(names[:-1]) + f", and {names[-1]}"


def fill_template(
    template: QuestionTemplate, slots: dict, fact_table: Optional[FactTable] = None
) -> str:
    """Render a question from surface slot values.

    Compound metrics get their definition appended after the question text so
    the formula is answerable from the filings alone.
    """
    text = template.pattern
    for name in template.slot_names:
        if name not in slots:
            raise QuestionGenError(
                f"template {template.template_id!r}: missing slot {name!r}"
            )
        value = slots[name]
        if name == "company_names":
            surface = render_company_list(list(value))
        else:
            surface = str(value)
        text = text.replace("{" + name + "}", surface)
    if fact_table is not None:
        for key in ("metric", "metric1", "metric2"):
            metric_id = slots.get(f"{key}_id")
            if metric_id is None:
                continue
            if not fact_table.has_metric(metric_id):
                raise QuestionGenError(f"unknown metric_id {metric_id!r}")
            metric = fact_table.metric(metric_id)
            if metric.kind == "compound" and metric.description:
                text = (
                    f"{text}\nWhere {metric.display_name} is defined as:\n"
                    f"{metric.description}"
                )
    return text


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass
class GenConfig:
    """Controls one generation run.

    ``dataset_year`` is the benchmark's notion of "the current year"; it is
    explicit config rather than wall-clock so year-relative questions are
    reproducible and year-variant sets can be constructed.
    """

    template_ids: tuple[str, ...]
    count_per_template: int
    dataset_year: int
    rng_seed: int
    # Optional slot pools; None means "everything the fact table offers".
    metrics_by_template: dict[str, tuple[str, ...]] = field(default_factory=dict)
    years: Optional[tuple[int, ...]] = None
    num_years: tuple[int, ...] = (2, 3)
    company_list_size: int = 5
    max_attempts: int = 1000


def _metric_pool(
    template: QuestionTemplate, config: GenConfig, fact_table: FactTable
) -> list[str]:
    pool = config.metrics_by_template.get(template.template_id)
    if pool is not None:
        return list(pool)
    if template.gold_rule == "compound_value":
        return fact_table.compound_metric_ids()
    return fact_table.reported_metric_ids()


def _draw_binding(
    template: QuestionTemplate,
    config: GenConfig,
    fact_table: FactTable,
    rng: random.Random,
) -> tuple[dict, dict]:
    """Draw one candidate (binding, surface slots) pair for a template."""
    symbols = fact_table.symbols()
    if not symbols:
        raise InfeasibleConfigError("fact table has no companies")
    metrics = _metric_pool(template, config, fact_table)
    if not metrics and any(s.startswith("metric") or s == "metric" for s in template.slot_names):
        raise InfeasibleConfigError(
            f"template {template.template_id!r}: empty metric pool"
        )
    year_pool = list(config.years) if config.years else fact_table.years()
    binding: dict = {}
    slots: dict = {}

    def pick_company(slot: str, exclude: Optional[str] = None) -> str:
        choices = [s for s in symbols if s != exclude]
        symbol = rng.choice(choices)
        binding[f"symbol{slot[-1]}" if slot[-1].isdigit() else "symbol"] = symbol
        slots[slot] = fact_table.company_name(symbol)
        slots[f"{slot}_symbol"] = symbol
        return symbol

    def pick_metric(slot: str, exclude: Optional[str] = None) -> str:
        choices = [m for m in metrics if m != exclude]
        if not choices:
            raise InfeasibleConfigError(
                f"template {template.template_id!r}: metric pool too small"
            )
        metric_id = rng.choice(choices)
        binding[slot if slot.startswith("metric") else "metric"] = metric_id
        slots[slot] = fact_table.metric(metric_id).display_name
        slots[f"{slot}_id"] = metric_id
        return metric_id

    for slot in template.slot_names:
        if slot == "company":
            pick_company("company")
        elif slot in ("company1", "company2"):
            pick_company(slot, exclude=binding.get("symbol1"))
        elif slot == "company_names":
            size = min(config.company_list_size, len(symbols))
            chosen = rng.sample(symbols, size)
            # JSON-native types only, so bindings survive a file round trip.
            binding["symbols"] = list(chosen)
            slots["company_names"] = [fact_table.company_name(s) for s in chosen]
            slots["company_names_symbols"] = chosen
        elif slot in ("metric", "metric1", "metric2"):
            pick_metric(slot, exclude=binding.get("metric1") if slot == "metric2" else None)
        elif slot == "year":
            year = rng.choice(sorted(year_pool))
            binding["year"] = year
            slots["year"] = year
        elif slot == "num_year":
            num_year = rng.choice(sorted(config.num_years))
            binding["num_year"] = num_year
            slots["num_year"] = num_year
        else:
            raise QuestionGenError(f"unknown slot {slot!r}")
    if template.extreme:
        binding["extreme"] = template.extreme
    return binding, slots


def _passes_findability(
    template: QuestionTemplate,
    binding: dict,
    gold: GoldAnswer,
    consumed: list[FactRecord],
    collection: DocumentCollection,
) -> bool:
    if template.gold_rule == "single_value":
        # The value must be present verbatim so extraction is possible.
        for rec in consumed:
            doc = collection.get_document(rec.source_doc_id)
            if not value_findable_in_doc(rec.value, rec.multiplier, doc):
                return False
        return True
    if template.gold_rule == "compound_value":
        # The compound value must NOT be readable off any source document,
        # otherwise the question degenerates to string matching.
        assert gold.number is not None
        for rec in consumed:
            doc = collection.get_document(rec.source_doc_id)
            if value_findable_in_doc(gold.number, "units", doc):
                return False
        return True
    return True


def generate_questions(
    fact_table: FactTable,
    collection: DocumentCollection,
    config: GenConfig,
) -> list[Question]:
    """Deterministically generate questions for the configured templates.

    For a fixed seed the output is byte-identical across runs. Each template
    draws slot tuples without replacement until ``count_per_template``
    questions pass the gold and findability checks, or the attempt budget is
    exhausted. A template that yields nothing at all raises
    InfeasibleConfigError; yielding fewer than requested is acceptable (the
    string-match filter legitimately removes candidates).
    """
    questions: list[Question] = []
    for template_id in config.template_ids:
        if template_id not in TEMPLATES:
            raise QuestionGenError(f"unknown template_id {template_id!r}")
        template = TEMPLATES[template_id]
        # Per-template stream: independent of other templates in the run.
        rng = random.Random(f"{config.rng_seed}:{template_id}")
        emitted = 0
        seen: set[str] = set()
        attempts = 0
        while emitted < config.count_per_template and attempts < config.max_attempts:
            attempts += 1
            try:
                binding, slots = _draw_binding(template, config, fact_table, rng)
            except InfeasibleConfigError:
                raise
            key = json.dumps(binding, sort_keys=True, default=str)
            if key in seen:
                continue
            seen.add(key)
            try:
                gold, consumed = compute_gold_with_provenance(
                    template.gold_rule, binding, fact_table, config.dataset_year
                )
            except MissingFactError:
                continue
            if not _passes_findability(template, binding, gold, consumed, collection):
                continue
            text = fill_template(template, slots, fact_table)
            gold_docs = tuple(sorted({rec.source_doc_id for rec in consumed}))
            gold_pages = tuple(
                sorted(
                    {
                        (rec.source_doc_id, page)
                        for rec in consumed
                        for page in rec.source_pages
                    }
                )
            )
            questions.append(
                Question(
                    question_id=f"{template_id}-{emitted:04d}",
                    template_id=template_id,
                    text=text,
                    slots=slots,
                    complexity_tags=template.complexity_tags,
                    gold=gold,
                    gold_docs=gold_docs,
                    gold_pages=gold_pages,
                    dataset_year=config.dataset_year,
                    bindings=binding,
                )
            )
            emitted += 1
        if emitted == 0:
            raise InfeasibleConfigError(
                f"template {template_id!r}: no slot assignment yielded a "
                f"computable gold within {config.max_attempts} attempts"
            )
    return questions


# ---------------------------------------------------------------------------
# Question set files
# ---------------------------------------------------------------------------


def write_questions(questions: list[Question], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps(q.to_json_dict(), sort_keys=True) + "\n")
    return path


def read_questions(path: str | Path) -> list[Question]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Question.from_json_dict(json.loads(line)))
    return out
